"""Which entry points of which layer the traced run wraps, and the
per-layer metrics computed from what the wrappers recorded.

Every wrapper is installed by :func:`install` from here; no file under
``src/`` knows it is being traced.  Layers are named by their module.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter_ns as time_ns
from typing import Dict, List, Tuple

from spans import Tracer

#: per-layer metric name -> unit, in the order they are reported
PER_LAYER_UNITS: Dict[str, str] = {
    "record.decode_calls": "calls/op",
    "record.decode_ms": "ms/op",
    "record.decoded_per_row": "calls/row",
    "btree.lookup_ms": "ms/op",
    "btree.insert_calls": "calls/op",
    "btree.insert_ms": "ms/op",
    "buffer_pool.hit_ratio": "ratio",
    "buffer_pool.misses": "count",
    "engine.commit_ms": "ms/op",
    "wal.append_ms": "ms/op",
    "wal.bytes_per_commit": "B/commit",
    "retro.capture_calls": "calls/op",
    "retro.capture_ms": "ms/op",
    "retro.spt_ms": "ms/op",
    "maplog.entries_scanned": "entries/op",
    "retro.snapshot_fetch_ms": "ms/op",
    "pagelog.reads": "reads/op",
    "pagelog.read_ms": "ms/op",
    "pagelog.appends": "appends/op",
    "pagelog.bytes_per_commit": "B/commit",
    "snapshot_cache.hit_ratio": "ratio",
    "snapshot_cache.hits": "hits/op",
    "snapshot_cache.misses": "misses/op",
    "views.refresh_ms": "ms/op",
    "views.snapshots_evaluated": "snaps/refresh",
    "views.delta_share": "ratio",
    "sql.parse_ms": "ms/op",
    "sql.plan_ms": "ms/op",
    "sql.run_select_self_ms": "ms/op",
    "sql.qq_eval_ms": "ms/op",
    "rewrite.qq_ms": "ms/op",
    "mechanism.fold_self_ms": "ms/op",
    "mechanism.iterations": "snaps/op",
    "parallel.merge_ms": "ms/op",
    "parallel.imbalance": "ratio",
    "scheduler.queue_wait_ms": "ms/op",
    "gate.wait_ms": "ms/op",
    "gate.acquires": "calls/op",
    "wire.overhead_ms": "ms/request",
    "setup.load_s": "s",
    "setup.history_s": "s",
    "sim.io_s": "sim_s/op",
    "sim.spt_s": "sim_s/op",
    "trace.overhead_ms": "ms/op",
    "trace.overhead_share": "ratio",
}


def _note_result(tracer: Tracer, result) -> None:
    """Fold one mechanism result's own telemetry into the counters."""
    tracer.add("mechanism.iterations", len(result.snapshots))
    tracer.add("qq_rows", sum(it.qq_rows for it in result.metrics))
    info = result.parallel
    if info is not None:
        tracer.add("parallel.runs", 1)
        tracer.add("parallel.merge_s", info.merge_seconds)
        evals = info.worker_eval_seconds
        if evals and statistics.fmean(evals) > 0:
            tracer.add("parallel.imbalance_sum",
                       max(evals) / statistics.fmean(evals))


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every traced layer."""
    from repro.core import mechanisms, parallel, rewrite
    from repro.retro import manager, pagelog, views
    from repro.server import scheduler, store, wire
    from repro.sql import database, parser, planner
    from repro.storage import btree, disk, engine, record, wal

    t = tracer
    span, leaf, iterate = t.span_wrapper, t.leaf_wrapper, t.iter_wrapper

    # storage.record / storage.btree
    t.patch_function(record, "decode_record",
                     leaf("record.decode", record.decode_record))
    t.patch_method(btree.BTree, "get",
                   leaf("btree.lookup", btree.BTree.get))
    # scan_all / scan_prefix / scan_range all iterate through scan_from
    t.patch_method(btree.BTree, "scan_from",
                   iterate("btree.lookup", btree.BTree.scan_from))
    t.patch_method(btree.BTree, "insert",
                   leaf("btree.insert", btree.BTree.insert))

    # storage.engine / storage.wal / bytes appended per file
    t.patch_method(engine.StorageEngine, "commit",
                   span("engine.commit", engine.StorageEngine.commit))
    t.patch_method(wal.WriteAheadLog, "log_commit",
                   leaf("wal.append", wal.WriteAheadLog.log_commit))
    t.patch_method(disk.DiskFile, "append", leaf(
        "disk.append", disk.DiskFile.append,
        on_result=lambda args, _r: t.add(f"bytes.{args[0].name}",
                                         len(args[1]))))

    # retro.manager / retro.maplog / retro.pagelog
    t.patch_method(manager.RetroManager, "capture_if_needed", leaf(
        "retro.capture", manager.RetroManager.capture_if_needed))
    t.patch_method(manager.RetroManager, "snapshot_source", span(
        "retro.spt", manager.RetroManager.snapshot_source))
    t.patch_method(manager.RetroManager, "build_spt", span(
        "retro.spt", manager.RetroManager.build_spt,
        on_result=lambda _a, r: t.add("maplog.entries_scanned",
                                      r.entries_scanned)))
    t.patch_method(manager.SnapshotPageSource, "fetch", leaf(
        "retro.snapshot_fetch", manager.SnapshotPageSource.fetch))
    t.patch_method(pagelog.Pagelog, "read",
                   leaf("pagelog.read", pagelog.Pagelog.read))
    t.patch_method(pagelog.Pagelog, "append",
                   leaf("pagelog.append", pagelog.Pagelog.append))

    # retro.views
    def note_refresh(_args, report) -> None:
        t.add("views.refreshes", 1)
        t.add("views.snapshots_evaluated", report.evaluated_snapshots)
        t.add("views.delta", report.mode in ("delta", "delta-skip"))
        t.add("qq_rows", report.qq_rows)
    t.patch_method(views.ViewManager, "refresh", span(
        "views.refresh", views.ViewManager.refresh, on_result=note_refresh))

    # sql.parser / sql.planner / the Qq row stream of sql.database
    t.patch_function(parser, "parse_sql",
                     span("sql.parse", parser.parse_sql))
    t.patch_function(planner, "plan_from",
                     span("sql.plan", planner.plan_from))
    t.patch_function(planner, "run_select",
                     span("sql.run_select", planner.run_select))
    for name in ("execute_cursor", "execute_readonly_cursor"):
        t.patch_method(database.Database, name, iterate(
            "sql.qq_eval", getattr(database.Database, name),
            pick=lambda r: r[1], rebuild=lambda r, it: (r[0], it)))

    # core.rewrite / core.mechanisms / core.parallel
    t.patch_function(rewrite, "rewrite_qq",
                     leaf("rewrite.qq", rewrite.rewrite_qq))
    t.patch_method(mechanisms._LoopBody, "run", span(
        "mechanism.run", mechanisms._LoopBody.run,
        on_result=lambda _a, r: _note_result(t, r)))
    t.patch_method(mechanisms._LoopBody, "iteration", span(
        "mechanism.iteration", mechanisms._LoopBody.iteration))
    for name in ("collate_data", "aggregate_data_in_variable",
                 "aggregate_data_in_table", "collate_data_into_intervals"):
        t.patch_method(parallel.ParallelExecutor, name, span(
            "mechanism.parallel", getattr(parallel.ParallelExecutor, name),
            on_result=lambda _a, r: _note_result(t, r)))
    submit = parallel.WorkerPool.submit

    def pool_submit(pool, task):
        op = t.op

        def partition():
            t.set_op(op)
            span("mechanism.partition", task)()
        return submit(pool, partition)
    t.patch_method(parallel.WorkerPool, "submit", pool_submit)

    # server.scheduler: queue wait runs from ticket creation (inside
    # submit) to the dispatcher thread starting the mechanism
    ticket_init = scheduler.QueryTicket.__init__

    def stamp_ticket(ticket, *args, **kwargs):
        ticket_init(ticket, *args, **kwargs)
        ticket.perfbench_created = time_ns()
        ticket.perfbench_op = t.op
    t.patch_method(scheduler.QueryTicket, "__init__", stamp_ticket)

    def note_dequeue(args, _kwargs) -> None:
        ticket = args[2]
        t.set_op(getattr(ticket, "perfbench_op", None))
        created = getattr(ticket, "perfbench_created", None)
        if created is not None:
            t.add("scheduler.queue_wait_ns", time_ns() - created)
    t.patch_method(scheduler.QueryScheduler, "_execute", span(
        "scheduler.execute", scheduler.QueryScheduler._execute,
        on_enter=note_dequeue))

    # server.store
    t.patch_method(store.WriteGate, "acquire",
                   leaf("gate.acquire", store.WriteGate.acquire))

    # server.wire: the client round trip and the server-side handler.
    # The request line carries the client's op id (and whether the
    # request is an untimed answer check) to the connection thread.
    t.patch_method(wire.WireClient, "request", span(
        "wire.request", wire.WireClient.request))
    dispatch = span("wire.dispatch", wire.WireServer._dispatch)
    raw_dispatch = wire.WireServer._dispatch

    def traced_dispatch(server, handle, line):
        try:
            request = json.loads(line)
        except ValueError:
            request = {}
        if not isinstance(request, dict):
            request = {}
        t.set_op(request.get("trace_op"))
        if request.get("trace_check"):
            previous = t.pause(True)
            try:
                return raw_dispatch(server, handle, line)
            finally:
                t.pause(previous)
        return dispatch(server, handle, line)
    t.patch_method(wire.WireServer, "_dispatch", traced_dispatch)


class CounterDelta:
    """Program-kept counters read before and after the traced window."""

    def __init__(self, engines) -> None:
        self._engines = list(engines)
        self._start = self._read()

    def _read(self) -> Tuple[int, int, int, int]:
        pool_hits = pool_misses = cache_hits = cache_misses = 0
        for eng in self._engines:
            stats = eng.pager.pool.stats
            pool_hits += stats.hits
            pool_misses += stats.misses
            cache_hits += eng.retro.cache.hits
            cache_misses += eng.retro.cache.misses
        return pool_hits, pool_misses, cache_hits, cache_misses

    def delta(self) -> Tuple[int, int, int, int]:
        now = self._read()
        return tuple(b - a for a, b in zip(self._start, now))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, counters: Tuple[int, int, int, int],
              ops: int, setup: Dict[str, float],
              overhead: Tuple[float, float]) -> Dict[str, float]:
    """Every per-layer metric, normalised per timed op where the unit
    says so.  A layer the workload never enters reads 0."""
    c, calls = tracer.counts, tracer.leaf_calls
    pool_hits, pool_misses, cache_hits, cache_misses = counters
    commits = len(tracer.spans_named("engine.commit"))
    refreshes = c.get("views.refreshes", 0)
    rows = c.get("qq_rows", 0)
    requests = len(tracer.spans_named("wire.request"))
    runs = c.get("parallel.runs", 0)

    def per_op(value: float) -> float:
        return _ratio(value, ops)

    # The program's simulated device model applied to the exact counts.
    from repro.bench.harness import BENCH_CHARGES
    from repro.retro.metrics import IterationMetrics

    fetches = calls.get("retro.snapshot_fetch", 0)
    pagelog_reads = calls.get("pagelog.read", 0)
    device = IterationMetrics(
        pagelog_reads=pagelog_reads, cache_hits=cache_hits,
        db_reads=max(fetches - pagelog_reads - cache_hits, 0),
        spt_entries_scanned=int(c.get("maplog.entries_scanned", 0)))

    values = {
        "record.decode_calls": per_op(calls.get("record.decode", 0)),
        "record.decode_ms": per_op(tracer.leaf_ms("record.decode")),
        "record.decoded_per_row": _ratio(calls.get("record.decode", 0),
                                         rows),
        "btree.lookup_ms": per_op(tracer.leaf_ms("btree.lookup")),
        "btree.insert_calls": per_op(calls.get("btree.insert", 0)),
        "btree.insert_ms": per_op(tracer.leaf_ms("btree.insert")),
        "buffer_pool.hit_ratio": _ratio(pool_hits, pool_hits + pool_misses),
        "buffer_pool.misses": float(pool_misses),
        "engine.commit_ms": per_op(tracer.outermost_ms("engine.commit")),
        "wal.append_ms": per_op(tracer.leaf_ms("wal.append")),
        "wal.bytes_per_commit": _ratio(c.get("bytes.wal", 0), commits),
        "retro.capture_calls": per_op(calls.get("retro.capture", 0)),
        "retro.capture_ms": per_op(tracer.leaf_ms("retro.capture")),
        "retro.spt_ms": per_op(tracer.outermost_ms("retro.spt")),
        "maplog.entries_scanned": per_op(
            c.get("maplog.entries_scanned", 0)),
        "retro.snapshot_fetch_ms": per_op(
            tracer.leaf_ms("retro.snapshot_fetch")),
        "pagelog.reads": per_op(calls.get("pagelog.read", 0)),
        "pagelog.read_ms": per_op(tracer.leaf_ms("pagelog.read")),
        "pagelog.appends": per_op(calls.get("pagelog.append", 0)),
        "pagelog.bytes_per_commit": _ratio(c.get("bytes.pagelog", 0),
                                           commits),
        "snapshot_cache.hit_ratio": _ratio(cache_hits,
                                           cache_hits + cache_misses),
        "snapshot_cache.hits": per_op(cache_hits),
        "snapshot_cache.misses": per_op(cache_misses),
        "views.refresh_ms": per_op(tracer.outermost_ms("views.refresh")),
        "views.snapshots_evaluated": _ratio(
            c.get("views.snapshots_evaluated", 0), refreshes),
        "views.delta_share": _ratio(c.get("views.delta", 0), refreshes),
        "sql.parse_ms": per_op(tracer.outermost_ms("sql.parse")),
        "sql.plan_ms": per_op(tracer.outermost_ms("sql.plan")),
        "sql.run_select_self_ms": per_op(tracer.self_ms("sql.run_select")),
        "sql.qq_eval_ms": per_op(tracer.leaf_ms("sql.qq_eval")),
        "rewrite.qq_ms": per_op(tracer.leaf_ms("rewrite.qq")),
        # A parallel run's own span mostly waits for its partitions, so
        # its fold is the partitions' self time plus the merge.
        "mechanism.fold_self_ms": per_op(tracer.self_ms(
            "mechanism.run", "mechanism.iteration", "mechanism.partition")
            + c.get("parallel.merge_s", 0) * 1e3),
        "mechanism.iterations": per_op(c.get("mechanism.iterations", 0)),
        "parallel.merge_ms": per_op(c.get("parallel.merge_s", 0) * 1e3),
        "parallel.imbalance": _ratio(c.get("parallel.imbalance_sum", 0),
                                     runs),
        "scheduler.queue_wait_ms": per_op(
            c.get("scheduler.queue_wait_ns", 0) / 1e6),
        "gate.wait_ms": per_op(tracer.leaf_ms("gate.acquire")),
        "gate.acquires": per_op(calls.get("gate.acquire", 0)),
        "wire.overhead_ms": _ratio(
            tracer.outermost_ms("wire.request")
            - tracer.outermost_ms("wire.dispatch"), requests),
        "setup.load_s": setup["load_s"],
        "setup.history_s": setup["history_s"],
        "sim.io_s": per_op(device.io_seconds(BENCH_CHARGES)),
        "sim.spt_s": per_op(device.spt_seconds(BENCH_CHARGES)),
        "trace.overhead_ms": overhead[0],
        "trace.overhead_share": overhead[1],
    }
    assert list(values) == list(PER_LAYER_UNITS)
    return values


def layer_lines(values: Dict[str, float]) -> List[dict]:
    """One JSON-able record per layer (module prefix)."""
    layers: Dict[str, dict] = {}
    for name, value in values.items():
        layer = name.split(".", 1)[0]
        layers.setdefault(layer, {})[name] = {
            "value": value, "unit": PER_LAYER_UNITS[name]}
    notes = {"sim": "simulated device seconds (BENCH_CHARGES), not wall "
                    "time; pagelog.reads and snapshot_cache.* are the "
                    "exact counts behind them"}
    return [{"layer": layer, "metrics": metrics,
             **({"note": notes[layer]} if layer in notes else {})}
            for layer, metrics in layers.items()]
