"""The four RQL mechanisms (paper Section 2), implemented as loop bodies
over the snapshot set (paper Section 3).

Every mechanism iterates the snapshot ids returned by Qs, and per
iteration:

1. rewrites Qq — ``AS OF sid`` injection + ``current_snapshot()``
   inlining (:mod:`repro.core.rewrite`);
2. runs the rewritten Qq through the engine's row-callback interface
   (the ``sqlite3_exec`` analogue), processing each returned record in a
   mechanism-specific way;
3. meters its costs into a :class:`~repro.retro.metrics.MetricsSink`,
   splitting *query evaluation* (Qq execution) from *RQL UDF* work
   (result-table inserts, index probes, aggregate updates) exactly as
   the paper's figures break them down.

Result tables default to the non-snapshotable aux database (the paper's
"temporary non-snapshotable table"); ``persistent=True`` places them in
the snapshotable main database instead.

:data:`MECHANISMS` is the one registry of the four: every surface (the
session's methods and SQL UDF forms, the server, materialized views,
rqlint, the shell) resolves a name with :func:`resolve` and checks the
argument with :meth:`Mechanism.check`;
:func:`repro.core.parallel.run_mechanism` dispatches a checked call to
the serial loop body or the parallel executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import MechanismError, QueryCancelled
from repro.core.aggregates import (
    CrossSnapshotAggregate,
    make_cross_snapshot_aggregate,
    parse_col_func_pairs,
)
from repro.core.folds import (
    CONCAT,
    END_COLUMN,
    INTERVAL_STITCH,
    MONOID,
    START_COLUMN,
    STORED_ROW,
    MonoidFold,
    TableAggregateSchema,
    result_index_name,
)
from repro.core.rewrite import rewrite_qq, validate_qs
from repro.retro.metrics import MetricsSink
from repro.sql.database import Database
from repro.sql.executor import IndexAccess, TableWriter
from repro.sql.types import SqlValue


@dataclass
class RQLResult:
    """Outcome of one RQL mechanism run."""

    table: str
    snapshots: List[int]
    metrics: MetricsSink
    result_rows: int = 0
    result_table_bytes: int = 0
    result_index_bytes: int = 0
    #: visible result columns (hidden AVG helper columns excluded)
    columns: List[str] = field(default_factory=list)
    #: :class:`repro.core.parallel.ParallelRunInfo` when the run used the
    #: parallel executor; None for serial runs
    parallel: Optional[object] = None

    @property
    def iterations(self) -> int:
        return len(self.snapshots)


def _quote(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


class _LoopBody:
    """Common driver: Qs evaluation, iteration metering, result stats."""

    #: set by subclasses that create an index on the result table
    index_name: Optional[str] = None

    def __init__(self, db: Database, qq: str, table: str,
                 persistent: bool = False,
                 sink: Optional[MetricsSink] = None) -> None:
        self.db = db
        self.qq = qq
        self.table = table
        self.persistent = persistent
        # An injected sink carries its own monotonic clock, making every
        # timing in this run deterministic under test.
        self.sink = sink if sink is not None else MetricsSink()
        self._first_done = False

    # -- public ------------------------------------------------------------

    def run(self, qs: str, cancel: Optional[object] = None) -> RQLResult:
        """Drive the loop body over Qs's snapshot ids.

        ``cancel`` (an object with ``is_set()``, e.g. threading.Event)
        is polled between iterations: the server's scheduler sets it
        when a client disconnects mid-query, and the run stops at the
        next snapshot boundary with :class:`QueryCancelled`.
        """
        validate_qs(qs)
        snapshot_ids = [int(row[0]) for row in self.db.execute(qs).rows]
        previous = self.db.metrics
        self.db.attach_metrics(self.sink)
        try:
            for snapshot_id in snapshot_ids:
                if cancel is not None and cancel.is_set():
                    raise QueryCancelled(
                        f"query over {self.table!r} cancelled before "
                        f"snapshot {snapshot_id}"
                    )
                self.iteration(snapshot_id)
            self.finalize()
        finally:
            self.db.attach_metrics(previous)
        return self._build_result(snapshot_ids)

    def iteration(self, snapshot_id: int) -> None:
        """One loop-body invocation (also the UDF entry point)."""
        self.sink.begin_iteration(snapshot_id)
        try:
            self._iteration(snapshot_id, first=not self._first_done)
            self._first_done = True
        finally:
            self.sink.end_iteration()

    def finalize(self) -> None:
        """Post-loop work (only AggregateDataInVariable needs any)."""

    # -- subclass protocol ------------------------------------------------------

    def _iteration(self, snapshot_id: int, first: bool) -> None:
        raise NotImplementedError

    def visible_columns(self, all_columns: List[str]) -> List[str]:
        return [c for c in all_columns if not c.startswith("__")]

    # -- helpers -----------------------------------------------------------------

    def _create_result_table(self, columns: Sequence[str]) -> None:
        temp = "" if self.persistent else "TEMP "
        cols = ", ".join(_quote(c) for c in columns)
        self.db.execute(
            f"CREATE {temp}TABLE {_quote(self.table)} ({cols})"
        )

    def _run_qq(self, snapshot_id: int, begin) -> List[str]:
        """Run rewritten Qq, timing Qq evaluation vs callback (UDF) work.

        ``begin(columns)`` sees the Qq output columns before the first
        row (bind a schema, create the result table) and returns the
        per-row callback.  ``begin`` counts as query evaluation, every
        callback as UDF.  Returns the Qq output column names.
        """
        rewritten = rewrite_qq(self.qq, snapshot_id)
        clock = self.sink.clock
        current = self.sink.current
        index_before = current.index_creation_seconds
        started = clock()
        udf_seconds = 0.0
        columns, rows = self.db.execute_cursor(rewritten)
        on_row = begin(columns)
        for row in rows:
            current.qq_rows += 1
            cb_start = clock()
            on_row(row)
            udf_seconds += clock() - cb_start
        total = clock() - started
        # Auto covering-index builds inside Qq are metered separately
        # (index_creation); keep them out of query evaluation.
        index_delta = current.index_creation_seconds - index_before
        current.udf_seconds += udf_seconds
        current.query_eval_seconds += max(
            total - udf_seconds - index_delta, 0.0,
        )
        return columns

    def _build_result_index(self, columns: Sequence[str]) -> None:
        """Index the result table at the end of the first iteration
        (paper Section 3).  Its cost belongs to the UDF (Figure 12), not
        to Qq index creation, so the statement's own index-creation
        metering is neutralized."""
        current = self.sink.current
        index_before = current.index_creation_seconds
        started = self.sink.clock()
        self.db.execute(
            f"CREATE INDEX {_quote(self.index_name)} ON "
            f"{_quote(self.table)} ({', '.join(_quote(c) for c in columns)})"
        )
        self._timed_udf(self.sink.clock() - started)
        current.index_creation_seconds = index_before

    def _result_index(self, writer: TableWriter) -> IndexAccess:
        """The result-table index the probe passes look rows up in."""
        for index in writer.indexes:
            if index.info.name.lower() == self.index_name.lower():
                return index
        raise MechanismError("result-table index vanished")

    def _timed_udf(self, seconds: float) -> None:
        self.sink.current.udf_seconds += seconds

    def _build_result(self, snapshot_ids: List[int]) -> RQLResult:
        result = RQLResult(
            table=self.table, snapshots=snapshot_ids, metrics=self.sink,
        )
        stats = _result_table_stats(self.db, self.table, self.index_name)
        if stats is not None:
            (result.result_rows, result.result_table_bytes,
             result.result_index_bytes, all_columns) = stats
            result.columns = self.visible_columns(all_columns)
        return result


def _result_table_stats(db: Database, table: str,
                        index_name: Optional[str]):
    """(rows, table_bytes, index_bytes, columns) for a result table."""
    from repro.sql.catalog import Catalog
    from repro.storage.btree import BTree

    for engine in (db.aux_engine, db.engine):
        read_ctx = engine.begin_read()
        try:
            source = engine.read_source(read_ctx)
            catalog = Catalog(source, engine.pager.get_root("catalog"))
            info = catalog.get_table(table)
            if info is None:
                continue
            tree = BTree(source, info.root_id)
            rows = tree.count()
            table_bytes = len(tree.page_ids()) * engine.page_size
            index_bytes = 0
            if index_name is not None:
                index_info = catalog.get_index(index_name)
                if index_info is not None:
                    index_tree = BTree(source, index_info.root_id)
                    index_bytes = (len(index_tree.page_ids())
                                   * engine.page_size)
            return rows, table_bytes, index_bytes, info.column_names()
        finally:
            read_ctx.close()
    return None


# ---------------------------------------------------------------------------
# Collate Data
# ---------------------------------------------------------------------------

class CollateDataRun(_LoopBody):
    """Collect Qq records from every snapshot into one table.

    First iteration: ``CREATE TABLE T AS Qq`` (within the snapshot);
    subsequent: ``INSERT INTO T Qq``.  The result table has no primary
    key and no index — Figure 12's cheap-insert explanation.
    """

    def _iteration(self, snapshot_id: int, first: bool) -> None:
        def begin(columns):
            if first:
                self._create_result_table(columns)
            return self.db.table_writer(self.table)[1].insert

        with self.db.transaction():
            self._run_qq(snapshot_id, begin)


# ---------------------------------------------------------------------------
# Aggregate Data In Variable
# ---------------------------------------------------------------------------

class AggregateDataInVariableRun(_LoopBody):
    """Fold a single scalar across snapshots with a monoid aggregate.

    Qq must return a single column and at most one row per snapshot (a
    snapshot contributing no rows is skipped).  The folded value lands
    in table T at the end.
    """

    def __init__(self, db: Database, qq: str, table: str, agg_func: str,
                 persistent: bool = False,
                 sink: Optional[MetricsSink] = None) -> None:
        super().__init__(db, qq, table, persistent, sink=sink)
        self.fold = MonoidFold(agg_func)

    @property
    def state(self) -> CrossSnapshotAggregate:
        return self.fold.aggregate

    def _iteration(self, snapshot_id: int, first: bool) -> None:
        collected: List[Sequence[SqlValue]] = []
        columns = self._run_qq(snapshot_id, lambda _columns: collected.append)
        started = self.sink.clock()
        self.fold.step(snapshot_id, columns, collected)
        self._timed_udf(self.sink.clock() - started)

    def finalize(self) -> None:
        emitted = self.fold.emit()
        if emitted is None:
            return
        with self.db.transaction():
            self._create_result_table(emitted.columns)
            _, writer = self.db.table_writer(self.table)
            for row in emitted.rows:
                writer.insert(row)


# ---------------------------------------------------------------------------
# Aggregate Data In Table
# ---------------------------------------------------------------------------

class AggregateDataInTableRun(_LoopBody):
    """Across-time GROUP BY (paper Section 2.3).

    Grouping columns are the Qq output columns *not* listed in
    ListOfColFuncPairs.  The first iteration creates T, inserts the Qq
    output, and builds an index on the grouping columns; subsequent
    iterations probe the index per Qq record and update or insert.

    AVG columns keep hidden ``__avg_sum_i`` / ``__avg_cnt_i`` helper
    columns in T (the paper's "simple extension" for the non-monoid
    AVG); the visible column always holds the current average.
    """

    def __init__(self, db: Database, qq: str, table: str, col_func_pairs,
                 persistent: bool = False,
                 sink: Optional[MetricsSink] = None) -> None:
        super().__init__(db, qq, table, persistent, sink=sink)
        self.pairs = parse_col_func_pairs(col_func_pairs)
        self.index_name = result_index_name(table)
        self.schema = TableAggregateSchema(self.pairs)
        #: operation counters (Figure 13 contrasts SUM's ~1M updates
        #: with MAX's ~22K)
        self.probes = 0
        self.updates_applied = 0
        self.rows_inserted = 0

    # -- schema binding (delegates kept for the sort-merge subclass) --------

    @property
    def _group_positions(self) -> List[int]:
        return self.schema.group_positions

    @property
    def _columns(self) -> List[str]:
        return self.schema.columns

    def _bind_columns(self, columns: List[str]) -> None:
        self.schema.bind(columns)

    def _widen(self, row: Sequence[SqlValue]) -> Tuple[SqlValue, ...]:
        return self.schema.widen(row)

    def _apply_aggregates(self, existing, row):
        return self.schema.apply(existing, row)

    # -- iteration -----------------------------------------------------------

    def _iteration(self, snapshot_id: int, first: bool) -> None:
        with self.db.transaction():
            if first:
                self._run_qq(snapshot_id, self._begin_first_pass)
                self._build_result_index(
                    [self._columns[p] for p in self._group_positions])
            else:
                self._run_qq(snapshot_id, self._begin_probe_pass)

    def _begin_first_pass(self, columns: List[str]):
        """Create T and insert every record without probing."""
        self._bind_columns(columns)
        self._create_result_table(self._columns)
        _, writer = self.db.table_writer(self.table)

        def insert(row) -> None:
            writer.insert(self._widen(row))
            self.rows_inserted += 1
        return insert

    def _begin_probe_pass(self, columns: List[str]):
        """Probe the grouping index per record; update or insert."""
        table, writer = self.db.table_writer(self.table)
        index = self._result_index(writer)

        def probe(row) -> None:
            group_values = [row[p] for p in self._group_positions]
            rowid = next(iter(index.lookup_equal(group_values)), None)
            self.probes += 1
            if rowid is None:
                writer.insert(self._widen(row))
                self.rows_inserted += 1
            else:
                existing = table.get(rowid)
                updated = self._apply_aggregates(existing, row)
                if updated is not None:
                    writer.update(rowid, updated)
                    self.updates_applied += 1
        return probe


# ---------------------------------------------------------------------------
# Collate Data Into Intervals
# ---------------------------------------------------------------------------

class CollateDataIntoIntervalsRun(_LoopBody):
    """Compress per-snapshot records into lifetime intervals.

    T holds the Qq columns plus ``start_snapshot`` / ``end_snapshot``.
    A record present in consecutive snapshots extends its interval; a
    gap (record absent then reappearing) opens a new interval — the
    record-lifetime representation of temporal databases (Section 2.4).
    """

    START_COLUMN = START_COLUMN
    END_COLUMN = END_COLUMN

    def __init__(self, db: Database, qq: str, table: str,
                 persistent: bool = False,
                 sink: Optional[MetricsSink] = None) -> None:
        super().__init__(db, qq, table, persistent, sink=sink)
        self.index_name = result_index_name(table)
        self._qq_width = 0
        self._previous_snapshot: Optional[int] = None

    def visible_columns(self, all_columns: List[str]) -> List[str]:
        return all_columns

    def _iteration(self, snapshot_id: int, first: bool) -> None:
        def begin_first(columns: List[str]):
            self._qq_width = len(columns)
            self._create_result_table(
                list(columns) + [self.START_COLUMN, self.END_COLUMN])
            _, writer = self.db.table_writer(self.table)
            return lambda row: writer.insert(
                tuple(row) + (snapshot_id, snapshot_id))

        with self.db.transaction():
            if first:
                columns = self._run_qq(snapshot_id, begin_first)
                self._build_result_index(columns)
            else:
                self._run_qq(snapshot_id,
                             lambda _columns: self._extend_pass(snapshot_id))
        self._previous_snapshot = snapshot_id

    def _extend_pass(self, snapshot_id: int):
        """Extend the interval ending at the previous snapshot, else
        open a new one."""
        table, writer = self.db.table_writer(self.table)
        index = self._result_index(writer)
        end_position = self._qq_width + 1
        previous = self._previous_snapshot

        def extend(row) -> None:
            values = list(row)
            for rowid in index.lookup_equal(values):
                stored = table.get(rowid)
                if stored is not None and stored[end_position] == previous:
                    new_row = list(stored)
                    new_row[end_position] = snapshot_id
                    writer.update(rowid, tuple(new_row))
                    return
            writer.insert(tuple(values) + (snapshot_id, snapshot_id))
        return extend


# ---------------------------------------------------------------------------
# The mechanism registry: every surface resolves, checks and dispatches here
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mechanism:
    """One of the paper's four mechanisms, as every surface sees it.

    ``name`` is the canonical CamelCase spelling (certificates, SQL UDF
    forms, view metadata); ``method`` the snake_case method that
    :class:`~repro.core.session.RQLSession`, :class:`~repro.core.
    parallel.ParallelExecutor` and the server's client handle expose;
    ``merge_class`` the rqlint class a mergeable certificate carries;
    ``run_class`` the serial Section 3 loop body; ``arg_check`` validates
    the fourth argument (None for the mechanisms that take none).
    """

    name: str
    method: str
    merge_class: str
    run_class: type
    arg_check: Optional[Callable[[object], object]] = None

    @property
    def takes_arg(self) -> bool:
        return self.arg_check is not None

    def check(self, arg):
        """Raise :class:`~repro.errors.AggregateError` for a bad argument,
        before any side effect; returns the parsed argument."""
        if self.arg_check is None:
            return None
        return self.arg_check(arg)

    def serial(self, db: Database, qq: str, table: str, arg=None,
               persistent: bool = False) -> _LoopBody:
        """The serial loop body for one invocation."""
        args = (arg,) if self.takes_arg else ()
        return self.run_class(db, qq, table, *args, persistent)


COLLATE_DATA = Mechanism("CollateData", "collate_data", CONCAT,
                         CollateDataRun)
AGGREGATE_DATA_IN_VARIABLE = Mechanism(
    "AggregateDataInVariable", "aggregate_data_in_variable", MONOID,
    AggregateDataInVariableRun, make_cross_snapshot_aggregate)
AGGREGATE_DATA_IN_TABLE = Mechanism(
    "AggregateDataInTable", "aggregate_data_in_table", STORED_ROW,
    AggregateDataInTableRun, parse_col_func_pairs)
COLLATE_DATA_INTO_INTERVALS = Mechanism(
    "CollateDataIntoIntervals", "collate_data_into_intervals",
    INTERVAL_STITCH, CollateDataIntoIntervalsRun)

MECHANISMS: Tuple[Mechanism, ...] = (
    COLLATE_DATA, AGGREGATE_DATA_IN_VARIABLE, AGGREGATE_DATA_IN_TABLE,
    COLLATE_DATA_INTO_INTERVALS,
)

_BY_KEY = {mechanism.name.lower(): mechanism for mechanism in MECHANISMS}


def resolve(name, error: type = MechanismError) -> Mechanism:
    """The mechanism ``name`` spells, in any case, with or without
    underscores (``CollateData``, ``collate_data``, ``COLLATEDATA``).

    An unknown name raises ``error`` — each surface keeps the error type
    its callers already handle.
    """
    mechanism = None
    if isinstance(name, str):
        mechanism = _BY_KEY.get(name.replace("_", "").strip().lower())
    if mechanism is None:
        raise error(
            f"unknown mechanism {name!r}; one of "
            f"{', '.join(m.name for m in MECHANISMS)}"
        )
    return mechanism
