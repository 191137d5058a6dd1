"""One fold per merge class (paper Sections 2-3, as folds over Qs).

Every RQL mechanism is a loop body over the Qs snapshot ids, and every
loop body is a fold followed by a merge.  This module writes each
per-snapshot step exactly once, as one :class:`Fold` per merge class:

===================  ========================  ==========================
merge class          mechanism                 merge law
===================  ========================  ==========================
``concat``           CollateData               concatenation in snapshot
                                               order
``monoid``           AggregateDataInVariable   abelian-monoid ``merge``
                                               (AVG via sum/count)
``stored-row``       AggregateDataInTable      per-group merge of stored
                                               rows, hidden AVG helpers
                                               included
``interval-stitch``  CollateDataIntoIntervals  a later range's interval
                                               that starts at its first
                                               snapshot extends the
                                               earliest same-key interval
                                               ending just before it
===================  ========================  ==========================

A fold offers:

* ``step(sid, columns, rows)`` — fold one snapshot's whole Qq output;
* ``merge(later)`` — fold in the fold of the next contiguous snapshot
  range.  It mutates ``self`` only (replint RPL023 holds every merge
  here to that);
* ``restore(last_sid, load, state)`` / ``dump()`` — rebuild a
  materialized view's stored base, and the JSON state the view
  persists beside its table;
* ``emit()`` — the result table: columns, rows and index columns.

A fold built with ``first=True`` runs the serial *first iteration* on
its first step: AggregateDataInTable inserts every record unprobed, so
duplicate group rows survive exactly as in the serial loop.  Every
other range runs probe semantics, which is why only adjacent ranges'
boundary snapshots interact in a merge.

The drivers are ordinary code: :class:`repro.core.parallel.
ParallelExecutor` steps one fold per contiguous partition and merges
them in partition order; :class:`repro.retro.views.ViewManager`
restores a view's stored base, steps a fold over the newly declared
snapshots and merges it in.  The serial loop bodies of
:mod:`repro.core.mechanisms` stay the paper's Section 3 reference —
their per-iteration inserts and index probes are what Figures 12-13
meter — except AggregateDataInVariable, which steps the monoid fold.

Nothing here imports :mod:`repro.analysis`; rqlint's certifier imports
the merge-class literals from this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.aggregates import (
    make_cross_snapshot_aggregate,
    merge_avg_stored,
    merge_stored_value,
    parse_col_func_pairs,
)
from repro.errors import MechanismError
from repro.sql.types import SqlValue, compare
from repro.storage.record import encode_key

CONCAT = "concat"
MONOID = "monoid"
STORED_ROW = "stored-row"
INTERVAL_STITCH = "interval-stitch"
SERIAL_ONLY = "serial-only"

#: CollateDataIntoIntervals' lifetime columns, after the Qq columns
START_COLUMN = "start_snapshot"
END_COLUMN = "end_snapshot"


def result_index_name(table: str) -> str:
    """The index a mechanism builds on its result table."""
    return f"__rqlidx_{table.lower()}"


# ---------------------------------------------------------------------------
# AggregateDataInTable's stored-row algebra
# ---------------------------------------------------------------------------

class TableAggregateSchema:
    """Schema binding + per-record fold logic for AggregateDataInTable.

    Shared by the serial index-probe run, the sort-merge ablation
    variant and :class:`StoredRowFold`, so all three agree byte-for-byte
    on widened rows and aggregate updates — including the hidden
    ``__avg_sum_i`` / ``__avg_cnt_i`` helper columns.
    """

    def __init__(self, pairs: List[Tuple[str, str]]) -> None:
        self.pairs = pairs
        self.group_positions: List[int] = []
        self.agg_specs: List[Tuple[int, str, Optional[int], Optional[int]]] = []
        self.columns: List[str] = []

    @property
    def bound(self) -> bool:
        return bool(self.columns)

    def bind(self, columns: List[str]) -> None:
        lowered = [c.lower() for c in columns]
        agg_columns = {}
        for column, func in self.pairs:
            if column.lower() not in lowered:
                raise MechanismError(
                    f"aggregation column {column!r} not in Qq output "
                    f"{columns}"
                )
            agg_columns[lowered.index(column.lower())] = func
        self.group_positions = [
            i for i in range(len(columns)) if i not in agg_columns
        ]
        if not self.group_positions:
            raise MechanismError(
                "AggregateDataInTable needs at least one grouping column; "
                "use AggregateDataInVariable for scalar aggregation"
            )
        stored = list(columns)
        self.agg_specs = []
        for position, func in sorted(agg_columns.items()):
            if func == "avg":
                sum_pos = len(stored)
                stored.append(f"__avg_sum_{position}")
                cnt_pos = len(stored)
                stored.append(f"__avg_cnt_{position}")
                self.agg_specs.append((position, func, sum_pos, cnt_pos))
            else:
                self.agg_specs.append((position, func, None, None))
        self.columns = stored

    def group_key(self, row: Sequence[SqlValue]) -> bytes:
        """The serial probe's group identity: ``encode_key`` of the
        grouping values (so e.g. 1 and 1.0 coalesce, as in the index).
        """
        return encode_key(tuple(row[p] for p in self.group_positions))

    def widen(self, row: Sequence[SqlValue]) -> Tuple[SqlValue, ...]:
        """Prepare a fresh group row: initialize aggregate columns and
        append hidden AVG helper values.

        COUNT starts at 1 per occurrence (the stored column counts the
        snapshots a group appears in, not the group's first Qq value);
        MIN/MAX/SUM start at the observed value; AVG starts at the value
        with (sum, count) helpers.
        """
        out = list(row)
        for position, func, sum_pos, cnt_pos in self.agg_specs:
            value = row[position]
            if func == "count":
                out[position] = 1 if value is not None else 0
            elif func == "avg":
                out.append(float(value) if value is not None else 0.0)
                out.append(1 if value is not None else 0)
        return tuple(out)

    def apply(self, existing: Sequence[SqlValue],
              row: Sequence[SqlValue]) -> Optional[Tuple[SqlValue, ...]]:
        """Merge one Qq record into the stored group row.

        Returns the new stored row, or None when nothing changed (MAX/
        MIN often don't — the paper's Figure 13 contrast with SUM).
        """
        out = list(existing)
        changed = False
        for position, func, sum_pos, cnt_pos in self.agg_specs:
            new_value = row[position]
            if func == "avg":
                if new_value is None:
                    continue
                out[sum_pos] = (out[sum_pos] or 0.0) + float(new_value)
                out[cnt_pos] = (out[cnt_pos] or 0) + 1
                out[position] = out[sum_pos] / out[cnt_pos]
                changed = True
                continue
            old_value = out[position]
            if new_value is None:
                continue
            if func == "sum":
                out[position] = (0 if old_value is None else old_value) \
                    + new_value
                changed = True
            elif func == "count":
                out[position] = (0 if old_value is None else old_value) + 1
                changed = True
            elif func == "min":
                if old_value is None or compare(new_value, old_value) == -1:
                    out[position] = new_value
                    changed = True
            elif func == "max":
                if old_value is None or compare(new_value, old_value) == 1:
                    out[position] = new_value
                    changed = True
        return tuple(out) if changed else None


def merge_group_rows(schema: TableAggregateSchema,
                     earlier: Sequence[SqlValue],
                     later: Sequence[SqlValue]) -> Tuple[SqlValue, ...]:
    """One group's stored row from two contiguous ranges, column-wise
    (what the serial probe pass would have produced across the
    boundary)."""
    out = list(earlier)
    for position, func, sum_pos, cnt_pos in schema.agg_specs:
        if func == "avg":
            assert sum_pos is not None and cnt_pos is not None
            (out[position], out[sum_pos], out[cnt_pos]) = merge_avg_stored(
                earlier[position], earlier[sum_pos], earlier[cnt_pos],
                later[position], later[sum_pos], later[cnt_pos],
            )
        else:
            out[position] = merge_stored_value(
                func, earlier[position], later[position],
            )
    return tuple(out)


# ---------------------------------------------------------------------------
# The folds
# ---------------------------------------------------------------------------

#: a view's stored result table: () -> (columns, rows)
Loader = Callable[[], Tuple[List[str], List[tuple]]]


@dataclass
class Emitted:
    """What a fold writes: the result table's columns, its rows in
    batches (one per snapshot for concat, else a single batch) and the
    columns of its index.  ``append`` rows extend a view's stored table
    instead of replacing it."""

    columns: Optional[List[str]]
    batches: List[List[tuple]]
    index_columns: Optional[List[str]] = None
    append: bool = False

    @property
    def rows(self) -> List[tuple]:
        return [row for batch in self.batches for row in batch]


class Fold:
    """The per-snapshot step and range merge of one merge class."""

    def __init__(self, arg=None, first: bool = True) -> None:
        #: run the serial first-iteration semantics on the next step
        self.first = first
        #: the base was restored from a view's stored table
        self.restored = False
        #: a merge brought rows the restored base did not have
        self.changed = False

    def step(self, sid: int, columns: Sequence[str],
             rows: Sequence[tuple]) -> None:
        raise NotImplementedError

    def merge(self, later: "Fold") -> None:
        raise NotImplementedError

    def restore(self, last_sid: int, load: Loader,
                state: Optional[dict]) -> bool:
        """Become a view's stored base, built through ``last_sid``;
        False when it cannot be restored (full recompute instead)."""
        raise NotImplementedError

    def dump(self) -> Optional[dict]:
        """JSON state a view persists to restore this fold later."""
        return None

    def emit(self) -> Optional[Emitted]:
        """The result table, or None when there is nothing to write."""
        raise NotImplementedError


class ConcatFold(Fold):
    """CollateData: every snapshot's rows, in snapshot order."""

    def __init__(self, arg=None, first: bool = True) -> None:
        super().__init__(arg, first)
        self.columns: Optional[List[str]] = None
        self.batches: List[List[tuple]] = []

    def step(self, sid, columns, rows) -> None:
        if self.columns is None:
            self.columns = list(columns)
        self.batches.append(rows)

    def merge(self, later: "ConcatFold") -> None:
        if self.columns is None:
            self.columns = later.columns
        self.batches.extend(later.batches)
        self.changed = self.changed or any(later.batches)

    def restore(self, last_sid, load, state) -> bool:
        # The stored rows are exactly the serial prefix: append to them.
        self.restored = True
        return True

    def emit(self) -> Optional[Emitted]:
        if self.columns is None or (self.restored and not self.changed):
            return None
        return Emitted(self.columns, self.batches, append=self.restored)


class MonoidFold(Fold):
    """AggregateDataInVariable: one single-row, single-column Qq value
    per snapshot, folded by a cross-snapshot aggregate."""

    def __init__(self, arg=None, first: bool = True) -> None:
        super().__init__(arg, first)
        self.column: Optional[str] = None
        self.aggregate = make_cross_snapshot_aggregate(arg)

    def step(self, sid, columns, rows) -> None:
        if len(columns) != 1:
            raise MechanismError(
                "AggregateDataInVariable requires a single-column Qq"
            )
        if self.column is None:
            self.column = columns[0]
        if len(rows) > 1:
            raise MechanismError(
                "AggregateDataInVariable requires Qq to return a single row"
                f"; snapshot {sid} returned {len(rows)}"
            )
        if rows:
            self.aggregate.absorb(rows[0][0])

    def merge(self, later: "MonoidFold") -> None:
        if self.column is None:
            self.column = later.column
        self.aggregate.merge(later.aggregate)

    def restore(self, last_sid, load, state) -> bool:
        if not state or "column" not in state or "func" not in state:
            return False
        self.column = state["column"]
        self.aggregate = make_cross_snapshot_aggregate(state["func"])
        self.aggregate.restore(state)
        self.restored = True
        return True

    def dump(self) -> Optional[dict]:
        if self.column is None:
            return None
        payload = self.aggregate.dump()
        if payload is None:
            return None
        return {"column": self.column, **payload}

    def emit(self) -> Optional[Emitted]:
        if self.column is None:
            return None
        return Emitted([self.column], [[(self.aggregate.result(),)]])


class StoredRowFold(Fold):
    """AggregateDataInTable: one stored row per group, kept in the
    serial result table's insertion order."""

    def __init__(self, arg=None, first: bool = True) -> None:
        super().__init__(arg, first)
        self.schema = TableAggregateSchema(list(parse_col_func_pairs(arg)))
        self.rows: List[Tuple[SqlValue, ...]] = []
        #: group key -> earliest row of the group (the probe's target)
        self.by_key: Dict[bytes, int] = {}

    def step(self, sid, columns, rows) -> None:
        schema = self.schema
        if not schema.bound:
            schema.bind(list(columns))
        if self.first:
            # Serial first pass: insert every record without probing.
            self.first = False
            for row in rows:
                self.by_key.setdefault(schema.group_key(row), len(self.rows))
                self.rows.append(schema.widen(row))
            return
        for row in rows:
            key = schema.group_key(row)
            at = self.by_key.get(key)
            if at is None:
                self.by_key[key] = len(self.rows)
                self.rows.append(schema.widen(row))
            else:
                updated = schema.apply(self.rows[at], row)
                if updated is not None:
                    self.rows[at] = updated

    def merge(self, later: "StoredRowFold") -> None:
        if not self.schema.bound:
            self.schema = later.schema
        # A later range ran probe semantics: one row per group, each
        # merged into the earliest row of its group here.
        for row in later.rows:
            key = self.schema.group_key(row)
            at = self.by_key.get(key)
            if at is None:
                self.by_key[key] = len(self.rows)
                self.rows.append(tuple(row))
            else:
                self.rows[at] = merge_group_rows(self.schema,
                                                 self.rows[at], row)
        self.changed = self.changed or bool(later.rows)

    def restore(self, last_sid, load, state) -> bool:
        columns, rows = load()
        self.schema.bind([c for c in columns if not c.startswith("__avg_")])
        for row in rows:
            self.by_key.setdefault(self.schema.group_key(row),
                                   len(self.rows))
            self.rows.append(tuple(row))
        self.first = False
        self.restored = True
        return True

    def emit(self) -> Optional[Emitted]:
        schema = self.schema
        if not schema.bound or (self.restored and not self.changed):
            return None
        return Emitted(
            list(schema.columns), [self.rows],
            index_columns=[schema.columns[p]
                           for p in schema.group_positions],
        )


class IntervalFold(Fold):
    """CollateDataIntoIntervals: a record seen in consecutive snapshots
    extends its interval; a gap opens a new one."""

    def __init__(self, arg=None, first: bool = True) -> None:
        super().__init__(arg, first)
        self.columns: Optional[List[str]] = None
        # interval: [key, values, start, end]; kept in open order,
        # mirroring the serial result table's rowid order.
        self.intervals: List[list] = []
        self.by_key: Dict[bytes, List[int]] = {}
        self.first_sid: Optional[int] = None
        self.last_sid: Optional[int] = None

    def _extend(self, key: bytes, end: int, new_end: int) -> bool:
        """Move the earliest ``key`` interval ending at ``end`` (the
        interval the serial index probe finds) to ``new_end``."""
        for at in self.by_key.get(key, ()):
            interval = self.intervals[at]
            if interval[3] == end:
                interval[3] = new_end
                return True
        return False

    def _open(self, key: bytes, values: tuple, start: int, end: int) -> None:
        self.by_key.setdefault(key, []).append(len(self.intervals))
        self.intervals.append([key, values, start, end])

    def step(self, sid, columns, rows) -> None:
        if self.columns is None:
            self.columns = list(columns)
        if self.first_sid is None:
            self.first_sid = sid
        previous = self.last_sid
        for row in rows:
            values = tuple(row)
            key = encode_key(values)
            if previous is None or not self._extend(key, previous, sid):
                self._open(key, values, sid, sid)
        self.last_sid = sid

    def merge(self, later: "IntervalFold") -> None:
        if self.columns is None:
            self.columns = later.columns
        if later.first_sid is None:
            return
        boundary = self.last_sid
        for key, values, start, end in later.intervals:
            if start == later.first_sid and boundary is not None \
                    and self._extend(key, boundary, end):
                continue
            self._open(key, values, start, end)
        self.last_sid = later.last_sid
        self.changed = self.changed or bool(later.intervals)

    def restore(self, last_sid, load, state) -> bool:
        columns, rows = load()
        self.columns = list(columns[:-2])
        for row in rows:
            values = tuple(row[:-2])
            self._open(encode_key(values), values, row[-2], row[-1])
        self.last_sid = last_sid
        self.restored = True
        return True

    def emit(self) -> Optional[Emitted]:
        if self.columns is None or (self.restored and not self.changed):
            return None
        return Emitted(
            self.columns + [START_COLUMN, END_COLUMN],
            [[values + (start, end)
              for _key, values, start, end in self.intervals]],
            index_columns=list(self.columns),
        )


_FOLDS = {
    CONCAT: ConcatFold,
    MONOID: MonoidFold,
    STORED_ROW: StoredRowFold,
    INTERVAL_STITCH: IntervalFold,
}


def new_fold(merge_class: str, arg=None, first: bool = True) -> Fold:
    """A fresh fold of ``merge_class``; ``arg`` is the mechanism's
    aggregate argument (AggFunc or ListOfColFuncPairs)."""
    return _FOLDS[merge_class](arg, first)
