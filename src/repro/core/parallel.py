"""Parallel snapshot-set execution (paper Section 7, "parallelize the
computation over the snapshot set").

The serial mechanisms iterate the Qs snapshot ids one by one.  This
module partitions those ids into **contiguous runs** and steps one
:class:`~repro.core.folds.Fold` per partition on its own worker thread
— each worker owns a private :class:`~repro.retro.metrics.MetricsSink`
and opens private read-only contexts per iteration, so workers share
nothing but the (latched) buffer pool, snapshot page cache, and SPT
cache.  The calling thread then merges the partition folds in
partition order and writes the result table; :mod:`repro.core.folds`
holds the four merge laws:

* **CollateData** (``concat``) — partition row lists are inserted into
  T one transaction per snapshot, in global snapshot order, mirroring
  the serial per-iteration ``INSERT``s and their UDF split.
* **AggregateDataInVariable** (``monoid``), **AggregateDataInTable**
  (``stored-row``) and **CollateDataIntoIntervals**
  (``interval-stitch``) — the merged fold is written in one
  transaction, with the grouping / interval index where the serial
  run builds one.

Contiguous partitioning is what makes the merges this simple: each
worker sees an unbroken prefix-free slice of the iteration order, so
only the two boundary snapshots of adjacent partitions interact — and
it preserves the hot-iteration page sharing the paper measures, since
consecutive snapshots share most Pagelog slots.

Each entry point first obtains an rqlint **merge certificate**
(:func:`repro.analysis.query.mergeclass.certify_mechanism`, or a
pre-built one via the ``certificate`` kwarg) and selects its fold *by
the certified merge class*: ``concat``, ``monoid``, ``stored-row`` or
``interval-stitch``.  A ``serial-only`` verdict — a non-monoid
aggregate, a non-mergeable column function, a stateful builtin in the
Qq — has no fold to dispatch to and is refused with :class:`~repro.errors.MechanismError` carrying the RQL1NN
diagnostics, instead of being silently merged wrong.

Equivalence with the serial mechanisms is proven by the differential
harness in ``tests/core/test_parallel_equivalence.py``; certificate
consumption (including refusal on stripped/forged certificates) by
``tests/core/test_parallel_certificates.py``.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.folds import (
    CONCAT,
    INTERVAL_STITCH,
    Emitted,
    Fold,
    new_fold,
    result_index_name,
)
from repro.core.mechanisms import (
    AGGREGATE_DATA_IN_TABLE,
    AGGREGATE_DATA_IN_VARIABLE,
    COLLATE_DATA,
    COLLATE_DATA_INTO_INTERVALS,
    Mechanism,
    RQLResult,
    _quote,
    _result_table_stats,
)
from repro.core.rewrite import rewrite_qq, validate_qs
from repro.errors import MechanismError, QueryCancelled
from repro.retro.metrics import MetricsSink
from repro.sql.database import Database

def partition_snapshots(snapshot_ids: Sequence[int],
                        workers: int) -> List[List[int]]:
    """Split ``snapshot_ids`` into at most ``workers`` contiguous runs.

    Sizes differ by at most one, earlier partitions taking the extra
    element; iteration order within and across partitions is preserved.
    """
    if workers < 1:
        raise MechanismError("workers must be >= 1")
    count = len(snapshot_ids)
    parts = min(workers, count)
    partitions: List[List[int]] = []
    if parts == 0:
        return partitions
    base, extra = divmod(count, parts)
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        partitions.append(list(snapshot_ids[start:start + size]))
        start += size
    return partitions


@dataclass
class ParallelRunInfo:
    """Telemetry for one parallel run.

    ``worker_eval_seconds`` is captured at join time, before the merge
    phase mutates any sink, so :meth:`makespan_seconds` models the
    wall-clock of truly concurrent workers: the slowest partition's
    evaluation plus the serial merge.
    """

    workers: int
    partitions: List[List[int]] = field(default_factory=list)
    worker_sinks: List[MetricsSink] = field(default_factory=list)
    worker_eval_seconds: List[float] = field(default_factory=list)
    merge_seconds: float = 0.0

    def makespan_seconds(self) -> float:
        return max(self.worker_eval_seconds, default=0.0) \
            + self.merge_seconds


class _Partial:
    """One worker's partition outcome (the payload is its stepped fold)."""

    def __init__(self, index: int, snapshot_ids: List[int],
                 sink: MetricsSink) -> None:
        self.index = index
        self.snapshot_ids = snapshot_ids
        self.sink = sink
        self.payload: object = None


class PoolTicket:
    """Completion handle for one task submitted to a :class:`WorkerPool`.

    ``error`` carries anything the task raised (the pool thread itself
    never dies on a task failure); ``done`` is set exactly once, after
    the task has fully retired.
    """

    __slots__ = ("done", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.error: Optional[BaseException] = None


class WorkerPool:
    """A fixed set of reusable worker threads.

    The multi-session server owns one pool shared by every concurrent
    retrospective query, bounding total worker threads regardless of how
    many clients are connected.  Embedded sessions keep the historical
    thread-per-partition behaviour (no pool).

    Tasks never nest (partition bodies do not submit further tasks), so
    a bounded pool cannot deadlock on its own queue.
    """

    def __init__(self, size: int, name: str = "rql-pool") -> None:
        if size < 1:
            raise MechanismError("worker pool size must be >= 1")
        self.size = size
        self._tasks: "queue.SimpleQueue[Optional[Tuple[Callable[[], None], PoolTicket]]]" = (  # noqa: E501
            queue.SimpleQueue()
        )
        self._latch = threading.Lock()
        self._closed = False
        self._threads = [
            threading.Thread(target=self._drain, name=f"{name}-{i + 1}",
                             daemon=True)
            for i in range(size)
        ]
        for thread in self._threads:
            thread.start()

    def submit(self, task: Callable[[], None]) -> PoolTicket:
        """Queue ``task``; it runs as soon as a pool thread frees up."""
        ticket = PoolTicket()
        with self._latch:
            if self._closed:
                raise MechanismError("submit on a closed worker pool")
            self._tasks.put((task, ticket))
        return ticket

    def _drain(self) -> None:
        while True:
            item = self._tasks.get()
            if item is None:
                return
            task, ticket = item
            try:
                task()
            except BaseException as exc:  # replint: taxonomy-exempt -- stored on the ticket; the submitter re-raises it
                # Keep the pool thread alive: the submitter re-raises
                # (or records) the error off the ticket.
                ticket.error = exc
            finally:
                ticket.done.set()

    def close(self) -> None:
        """Idempotent: stop accepting tasks, drain, join every thread."""
        with self._latch:
            if self._closed:
                return
            self._closed = True
            for _ in self._threads:
                self._tasks.put(None)
        for thread in self._threads:
            thread.join()

    @property
    def closed(self) -> bool:
        with self._latch:
            return self._closed


class _CancelScope:
    """The run's internal error-cancel joined with an external event.

    Workers poll ``is_set()`` between iterations; an externally supplied
    event (client disconnect, server shutdown) cancels the run without
    being confused with a worker error.
    """

    __slots__ = ("_local", "_external")

    def __init__(self, external: Optional[threading.Event] = None) -> None:
        self._local = threading.Event()
        self._external = external

    def set(self) -> None:
        self._local.set()

    def is_set(self) -> bool:
        if self._local.is_set():
            return True
        return self._external is not None and self._external.is_set()

    @property
    def cancelled_externally(self) -> bool:
        return self._external is not None and self._external.is_set()


class _ErrorBoard:
    """First-in-partition-order error, shared across worker threads."""

    def __init__(self, partitions: int) -> None:
        self._latch = threading.Lock()
        self._index = partitions
        self._error: Optional[BaseException] = None

    def record(self, index: int, error: BaseException) -> None:
        with self._latch:
            if index < self._index:
                self._index = index
                self._error = error

    def first_error(self) -> Optional[BaseException]:
        with self._latch:
            return self._error


class ParallelExecutor:
    """Runs one RQL mechanism over contiguous snapshot partitions.

    The executor never runs while a write transaction is open: workers
    read through private read contexts (main + aux), which is only safe
    when no writer can move the committed roots underneath them.
    """

    def __init__(self, db: Database, workers: int = 2,
                 charges=None, clock: Optional[Callable[[], float]] = None,
                 pool: Optional[WorkerPool] = None,
                 cancel: Optional[threading.Event] = None,
                 ) -> None:
        if workers < 1:
            raise MechanismError("workers must be >= 1")
        self.db = db
        self.workers = workers
        self._charges = charges
        self._clock = clock if clock is not None else time.perf_counter
        #: shared worker pool (server mode); None = thread per partition
        self._pool = pool
        #: external cancel event (client disconnect / server shutdown)
        self._cancel = cancel
        #: telemetry of the most recent run (also on ``RQLResult.parallel``)
        self.last_run: Optional[ParallelRunInfo] = None

    # -- certification ------------------------------------------------------

    def certify(self, mechanism: str, qs: str, qq: str, arg=None):
        """rqlint certificate for one invocation, against the live catalog.

        Imported lazily: certification is an analysis-layer concern and
        ``import repro.core`` must not drag the lint machinery in.
        """
        from repro.analysis.query.mergeclass import certify_mechanism
        from repro.sql.semantic import CatalogSchema
        return certify_mechanism(mechanism, qs, qq, arg=arg,
                                 schema=CatalogSchema(self.db))

    def _admit(self, mechanism: Mechanism, qs: str, qq: str, arg,
               certificate) -> str:
        """The merge class to fold by, taken from the certificate.

        The fold is keyed off ``certificate.merge_class`` — not the
        mechanism — so a ``serial-only`` verdict (or a forged/mismatched
        certificate) has no fold to reach and is refused with the
        certificate's diagnostics instead of silently merged wrong.
        """
        cert = certificate if certificate is not None \
            else self.certify(mechanism.name, qs, qq, arg)
        expected = mechanism.merge_class
        if cert.merge_class != expected:
            reasons = "; ".join(
                f"{f.rule}: {f.message}" for f in cert.errors
            ) or (f"certified merge class {cert.merge_class!r}, "
                  f"{mechanism.name} merges by {expected!r}")
            raise MechanismError(
                f"rqlint refuses parallel execution of {mechanism.name}: "
                f"{reasons}"
            )
        return cert.merge_class

    # -- mechanism entry points ---------------------------------------------

    def collate_data(self, qs: str, qq: str, table: str,
                     persistent: bool = False,
                     certificate=None) -> RQLResult:
        """Parallel CollateData(Qs, Qq, T)."""
        return self._run_fold(COLLATE_DATA, qs, qq, None, table,
                              persistent, certificate)

    def aggregate_data_in_variable(self, qs: str, qq: str, table: str,
                                   agg_func: str,
                                   persistent: bool = False,
                                   certificate=None) -> RQLResult:
        """Parallel AggregateDataInVariable(Qs, Qq, T, AggFunc)."""
        return self._run_fold(AGGREGATE_DATA_IN_VARIABLE, qs, qq, agg_func,
                              table, persistent, certificate)

    def aggregate_data_in_table(self, qs: str, qq: str, table: str,
                                col_func_pairs,
                                persistent: bool = False,
                                certificate=None) -> RQLResult:
        """Parallel AggregateDataInTable(Qs, Qq, T, ListOfColFuncPairs)."""
        return self._run_fold(AGGREGATE_DATA_IN_TABLE, qs, qq,
                              col_func_pairs, table, persistent, certificate)

    def collate_data_into_intervals(self, qs: str, qq: str, table: str,
                                    persistent: bool = False,
                                    certificate=None) -> RQLResult:
        """Parallel CollateDataIntoIntervals(Qs, Qq, T)."""
        return self._run_fold(COLLATE_DATA_INTO_INTERVALS, qs, qq, None,
                              table, persistent, certificate)

    def _run_fold(self, mechanism: Mechanism, qs: str, qq: str, arg,
                  table: str, persistent: bool, certificate) -> RQLResult:
        """Step one fold per contiguous partition on the workers, then
        merge the folds in partition order and write the result."""
        mechanism.check(arg)  # validate before threading
        self._check_idle()
        merge_class = self._admit(mechanism, qs, qq, arg, certificate)
        snapshot_ids = self._snapshot_ids(qs)
        partitions = partition_snapshots(snapshot_ids, self.workers)

        def eval_partition(index: int, sids: List[int], sink: MetricsSink,
                           cancel: threading.Event) -> Fold:
            # Partition 0 runs the serial first iteration on its first
            # snapshot; every later partition runs probe semantics.
            fold = new_fold(merge_class, arg, first=index == 0)
            for sid in sids:
                if cancel.is_set():
                    break
                current = sink.begin_iteration(sid)
                try:
                    columns, rows = self._eval_qq(sid, sink, qq, current)
                    started = sink.clock()
                    fold.step(sid, columns, rows)
                    current.udf_seconds += sink.clock() - started
                finally:
                    sink.end_iteration()
            return fold

        partials, info = self._run_partitions(partitions, eval_partition)
        merge_started = self._clock()
        emitted = None
        if partials:
            fold = partials[0].payload
            for partial in partials[1:]:
                fold.merge(partial.payload)
            emitted = fold.emit()
        if emitted is not None:
            self._write(emitted, merge_class, table, persistent, info)
        info.merge_seconds = self._clock() - merge_started
        index_name = result_index_name(table) \
            if emitted is not None and emitted.index_columns else None
        # Like the serial run, intervals expose every column (including
        # any ``__``-prefixed Qq output columns).
        return self._build_result(
            snapshot_ids, table, index_name, info,
            hide_helpers=merge_class != INTERVAL_STITCH,
        )

    def _write(self, emitted: Emitted, merge_class: str, table: str,
               persistent: bool, info: ParallelRunInfo) -> None:
        """Create and fill the result table, one transaction per batch.

        Concat emits one batch per snapshot: its transactions mirror the
        serial per-iteration CREATE/INSERT pattern, and each batch's
        inserts are charged to that iteration's UDF time.
        """
        clock = self._clock
        iterations = [it for sink in info.worker_sinks
                      for it in sink.iterations]
        for n, batch in enumerate(emitted.batches):
            with self.db.transaction():
                if n == 0:
                    temp = "" if persistent else "TEMP "
                    cols = ", ".join(_quote(c) for c in emitted.columns)
                    self.db.execute(
                        f"CREATE {temp}TABLE {_quote(table)} ({cols})")
                _, writer = self.db.table_writer(table)
                insert_started = clock()
                for row in batch:
                    writer.insert(row)
                if merge_class == CONCAT:
                    iterations[n].udf_seconds += clock() - insert_started
                if emitted.index_columns:
                    index_cols = ", ".join(
                        _quote(c) for c in emitted.index_columns)
                    self.db.execute(
                        f"CREATE INDEX {_quote(result_index_name(table))} "
                        f"ON {_quote(table)} ({index_cols})"
                    )

    # -- worker machinery ---------------------------------------------------

    def _snapshot_ids(self, qs: str) -> List[int]:
        validate_qs(qs)
        return [int(row[0]) for row in self.db.execute(qs).rows]

    def _check_idle(self) -> None:
        if self.db._in_explicit_txn or self.db._main.txn is not None \
                or self.db._aux.txn is not None:
            raise MechanismError(
                "parallel execution requires no open write transaction"
            )

    def _new_sink(self, worker: int) -> MetricsSink:
        sink = MetricsSink(self._charges, clock=self._clock)
        sink.worker = worker
        return sink

    def _run_partitions(self, partitions: List[List[int]],
                        eval_partition) -> Tuple[List[_Partial],
                                                 ParallelRunInfo]:
        """Run ``eval_partition(index, sids, sink, cancel)`` per partition
        on worker threads; raises the first partition's error (in
        partition order) after every worker has stopped.

        With a shared :class:`WorkerPool` the partitions are submitted as
        pool tasks (server mode); otherwise each partition gets its own
        short-lived thread.  An external cancel event (client disconnect)
        surfaces as :class:`~repro.errors.QueryCancelled` once every
        worker has retired — never while a worker still runs.
        """
        self._check_idle()
        if self._cancel is not None and self._cancel.is_set():
            raise QueryCancelled("query cancelled before admission")
        partials = [
            _Partial(i, sids, self._new_sink(i + 1))
            for i, sids in enumerate(partitions)
        ]
        board = _ErrorBoard(len(partials))
        cancel = _CancelScope(self._cancel)
        retro = self.db.engine.retro

        def body(partial: _Partial) -> None:
            with retro.route_metrics(partial.sink):
                try:
                    partial.payload = eval_partition(
                        partial.index, partial.snapshot_ids, partial.sink,
                        cancel,
                    )
                except BaseException as exc:
                    board.record(partial.index, exc)  # re-raised after join
                    cancel.set()
                    if not isinstance(exc, Exception):
                        raise  # KeyboardInterrupt etc.: also let
                        # threading.excepthook report it immediately

        if self._pool is not None:
            tickets = [
                self._pool.submit(lambda p=partial: body(p))
                for partial in partials
            ]
            for ticket in tickets:
                ticket.done.wait()
            for ticket in tickets:
                # body() only re-raises non-Exception escapees
                # (KeyboardInterrupt etc.); surface those here too.
                error = ticket.error
                if error is not None:
                    raise error
        else:
            threads = [
                threading.Thread(target=body, args=(partial,),
                                 name=f"rql-worker-{partial.index + 1}")
                for partial in partials
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        error = board.first_error()
        if error is not None:
            raise error
        if cancel.cancelled_externally:
            raise QueryCancelled(
                "query cancelled while partitions were running"
            )
        info = ParallelRunInfo(
            workers=self.workers,
            partitions=partitions,
            worker_sinks=[p.sink for p in partials],
            worker_eval_seconds=[
                p.sink.total_seconds() for p in partials
            ],
        )
        self.last_run = info
        return partials, info

    def _eval_qq(self, snapshot_id: int, sink: MetricsSink, qq: str,
                 current) -> Tuple[List[str], List[tuple]]:
        """Evaluate rewritten Qq as of ``snapshot_id`` through a private
        read-only cursor, metering like the serial ``_run_qq``.
        """
        return eval_qq_at(self.db, qq, snapshot_id, sink, current)

    def _build_result(self, snapshot_ids: List[int], table: str,
                      index_name: Optional[str], info: ParallelRunInfo,
                      hide_helpers: bool = True) -> RQLResult:
        merged = self._new_sink(0)
        for sink in info.worker_sinks:
            merged.adopt(sink.iterations)
        result = RQLResult(
            table=table, snapshots=snapshot_ids, metrics=merged,
            parallel=info,
        )
        stats = _result_table_stats(self.db, table, index_name)
        if stats is not None:
            (result.result_rows, result.result_table_bytes,
             result.result_index_bytes, all_columns) = stats
            if hide_helpers:
                result.columns = [c for c in all_columns
                                  if not c.startswith("__")]
            else:
                result.columns = list(all_columns)
        return result


def run_mechanism(db: Database, mechanism: Mechanism, qs: str, qq: str,
                  table: str, arg=None, persistent: bool = False,
                  workers: int = 1, pool: Optional[WorkerPool] = None,
                  cancel: Optional[threading.Event] = None,
                  certificate=None) -> RQLResult:
    """Run one mechanism call: the single dispatch every surface uses.

    The argument is checked before any side effect; then the previous
    result table ``table`` is dropped and the call runs the serial loop
    body (``workers == 1``) or the executor's public mechanism method
    (``workers > 1``, on ``pool`` when given).  ``cancel`` reaches both
    paths.  The serial body meters through a thread-local sink, so
    concurrent calls over shared engines never cross their metrics.
    """
    mechanism.check(arg)
    db.execute(f"DROP TABLE IF EXISTS {_quote(table)}")
    if workers > 1:
        executor = ParallelExecutor(db, workers=workers, pool=pool,
                                    cancel=cancel)
        args = (arg,) if mechanism.takes_arg else ()
        return getattr(executor, mechanism.method)(
            qs, qq, table, *args, persistent, certificate=certificate)
    run = mechanism.serial(db, qq, table, arg, persistent)
    with db.engine.retro.route_metrics(run.sink):
        return run.run(qs, cancel=cancel)


def eval_qq_at(db: Database, qq: str, snapshot_id: int, sink: MetricsSink,
               current) -> Tuple[List[str], List[tuple]]:
    """Evaluate rewritten Qq as of ``snapshot_id``, metering into
    ``current`` (an open :class:`IterationMetrics`) like the serial
    ``_run_qq`` — shared by the executor workers and view refresh.
    """
    clock = sink.clock
    index_before = current.index_creation_seconds
    started = clock()
    columns, rows = db.execute_readonly_cursor(
        rewrite_qq(qq, snapshot_id), metrics=sink,
    )
    out: List[tuple] = []
    try:
        for row in rows:
            current.qq_rows += 1
            out.append(tuple(row))
    finally:
        rows.close()
    total = clock() - started
    index_delta = current.index_creation_seconds - index_before
    current.query_eval_seconds += max(total - index_delta, 0.0)
    return columns, out
