"""Wall-clock benchmark of the RQL reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps each
layer's entry points (see ``layers.py``), prints the per-layer metrics
and the tracing overhead, and writes every span to
``.perfbench/spans-<workload>-seed<seed>.jsonl``.  Earlier lines of
standard output are JSON reports (provenance, every metric with its
unit and sample count, one line per layer); the last line is the result
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: end-to-end metric -> unit, as declared in BENCHMARK.json.  Throughput
#: is in host-probe units (see workloads.HostProbe); the raw wall-clock
#: figures and the per-kind latencies are in the report line.
END_TO_END = {
    "setup_s": "s",
    "store_mb": "MB",
    "peak_rss_mb": "MB",
    "throughput_norm": "ops/probe",
}


def _import_program():
    """Put ``src/`` on the path; exit non-zero if the program is absent."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git (a
    checkout may not be a repository at all)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(workload: str, seed: int, size, state) -> dict:
    from repro.server.store import DEFAULT_POOL_WORKERS

    engine = state.engines[0]
    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "python": f"{platform.python_implementation()} "
                  f"{platform.python_version()} "
                  f"({' '.join(platform.python_build())})",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "scale": size.scale,
        "seed": seed,
        "data_seed": seed,
        "snapshots": state.history.snapshots,
        "orders": len(state.history.live[0]),
        "pagelog_slots": engine.retro.pagelog.total_slots,
        "db_pages": engine.database_pages(),
        "snapshot_cache_pages": engine.retro.cache.capacity,
        "buffer_pool_pages": engine.pager.pool.capacity,
        "windows": {"aggv": size.aggv_window, "aggt": size.aggt_window,
                    "intervals": size.intervals_window},
        "clients": state.clients,
        "client_threads": state.clients,
        "workers_per_query": state.workers,
        **({"server_pool_workers": DEFAULT_POOL_WORKERS}
           if workload == "mixed_server" else {}),
        "loop": "closed (each client waits for its reply)",
        "cache_rule": "snapshot page cache cleared before every "
                      "retrospective call",
    }


def store_bytes(engines) -> Dict[str, int]:
    """Bytes per file on the simulated disks of both engines."""
    from repro.errors import StorageError

    sizes: Dict[str, int] = {}
    for engine, tag in zip(engines, ("main", "aux")):
        for name in engine.disk.file_names():
            try:
                handle = engine.disk.open_file(name)
            except StorageError:  # a log file: reopen it as one
                handle = engine.disk.open_file(name, append_only=True)
            sizes[f"{tag}.{name}"] = handle.size_bytes
    return sizes


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values: List[float], q: float) -> Optional[float]:
    """The q-th percentile (nearest rank), or None when fewer than ten
    samples lie beyond it.  The median is always reported."""
    if not values:
        return None
    ordered = sorted(values)
    if q == 50:
        return statistics.median(ordered)
    beyond = len(ordered) * (100 - q) / 100
    if beyond < 10:
        return None
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


#: named latency metric -> (op kind, percentile)
KIND_METRICS = {
    "aggv_p50_ms": ("aggv", 50), "aggt_p50_ms": ("aggt", 50),
    "intervals_p50_ms": ("intervals", 50),
    "asof_p50_ms": ("asof", 50), "asof_p99_ms": ("asof", 99),
    "commit_p50_ms": ("commit", 50), "commit_p90_ms": ("commit", 90),
    "refresh_p50_ms": ("refresh", 50),
}


def kind_report(clients) -> Dict[str, dict]:
    latencies: Dict[str, List[float]] = {}
    for client in clients:
        for kind, values in client.latencies.items():
            latencies.setdefault(kind, []).extend(values)
    report = {}
    for name, (kind, q) in KIND_METRICS.items():
        values = latencies.get(kind)
        if not values:
            continue
        value = percentile(values, q)
        entry = {"unit": "ms", "n": len(values)}
        if value is None:
            entry["value"] = None
            entry["note"] = (f"fewer than ten samples beyond p{q}; "
                             "not reported")
        else:
            entry["value"] = value * 1e3
        report[name] = entry
    return report


def op_p50(clients, kinds, attr: str = "latencies") -> float:
    """Geometric mean over the workload's op kinds of each kind's median
    latency: one figure every workload has, that any kind can move."""
    medians = []
    for kind in kinds:
        values = [v for c in clients for v in getattr(c, attr).get(kind, [])]
        if not values:  # every op of the kind failed: no latency exists
            return 0.0
        medians.append(statistics.median(values))
    return statistics.geometric_mean(medians)


def throughput(clients, attr: str = "latencies") -> float:
    """Ops completed per unit of time, summed over clients; each client's
    rate counts only its time inside ops (answer checks run between)."""
    rate = 0.0
    for client in clients:
        busy = sum(sum(v) for v in getattr(client, attr).values())
        if busy > 0:
            rate += client.ops / busy
    return rate


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# The two run modes
# ---------------------------------------------------------------------------

def setup(workload: str, size, seed: int, repeats: int):
    """Build the workload's state ``repeats`` times; keep the last."""
    from workloads import STATES

    times: List[float] = []
    state = None
    for _ in range(repeats):
        if state is not None:
            state.close()
        started = time.perf_counter()
        state = STATES[workload](size, seed)
        times.append(time.perf_counter() - started)
    return state, times


def run_untraced(workload: str, seed: int, seconds: float,
                 size) -> Tuple[dict, List[dict]]:
    from workloads import KINDS, RUNNERS, Loop, OpTags

    state, setup_times = setup(workload, size, seed, size.setup_repeats)
    store = store_bytes(state.engines)
    prov = provenance(workload, seed, size, state)
    try:
        clients = RUNNERS[workload](state, size, seed, Loop(seconds),
                                    OpTags())
    finally:
        state.close()
    attempted = sum(c.attempted for c in clients)
    failed = sum(c.failed for c in clients)
    correct = failed == 0
    leaks = getattr(state, "leaks", {})
    if any(leaks.values()):
        correct = False
    kinds = KINDS[workload]
    ops = sum(c.ops for c in clients)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "store_mb": sum(store.values()) / 1e6,
        "peak_rss_mb": peak_rss_mb(),
        "throughput_norm": throughput(clients, "normalized"),
    }
    report = {
        "perfbench": "report", "workload": workload, "mode": "untraced",
        "provenance": prov,
        "metrics": {
            **{name: {"value": metrics[name], "unit": END_TO_END[name]}
               for name in END_TO_END},
            "ops_per_s": {"value": throughput(clients), "unit": "ops/s",
                          "n": ops},
            "op_p50_ms": {"value": op_p50(clients, kinds) * 1e3,
                          "unit": "ms", "n": ops},
            "op_p50_norm": {"value": op_p50(clients, kinds, "normalized"),
                            "unit": "probes", "n": ops},
            "failed_frac": {"value": failed / attempted if attempted
                            else 1.0, "unit": "ratio", "n": attempted},
            **kind_report(clients),
        },
        "host_probe_ms": statistics.median(
            v / n * 1e3 for c in clients for k in c.latencies
            for v, n in zip(c.latencies[k], c.normalized[k])),
        "setup_s_each": setup_times,
        "store_bytes": store,
        "ops": {c.name: c.ops for c in clients},
        "errors": [e for c in clients for e in c.errors],
        **({"leak_report": leaks} if leaks else {}),
    }
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name],
                           "unit": END_TO_END[name]}
                    for name in END_TO_END},
    }
    return result, [report]


def run_traced(workload: str, seed: int, seconds: float,
               size) -> Tuple[dict, List[dict]]:
    import layers
    from spans import Tracer
    from workloads import RUNNERS, Loop, OpTags

    state, _ = setup(workload, size, seed, 1)
    prov = provenance(workload, seed, size, state)
    tracer = Tracer()
    try:
        layers.install(tracer)
        try:
            counters = layers.CounterDelta(state.engines)
            traced = RUNNERS[workload](state, size, seed, Loop(seconds),
                                       OpTags(tracer))
            delta = counters.delta()
        finally:
            tracer.remove()
        # Replay the same seeded ops untraced: the difference is the
        # cost of tracing.
        limits = {c.name: c.attempted for c in traced}
        untraced = RUNNERS[workload](state, size, seed,
                                     Loop(seconds, limits), OpTags())
    finally:
        state.close()
    clients = traced + untraced
    attempted = sum(c.attempted for c in clients)
    failed = sum(c.failed for c in clients)
    leaks = getattr(state, "leaks", {})
    correct = failed == 0 and not any(leaks.values())

    ops = sum(c.ops for c in traced)
    traced_s = sum(c.busy_s for c in traced)
    untraced_s = sum(c.busy_s for c in untraced)
    overhead = ((traced_s - untraced_s) * 1e3 / ops if ops else 0.0,
                (traced_s - untraced_s) / untraced_s if untraced_s else 0.0)
    values = layers.per_layer(
        tracer, delta, ops,
        {"load_s": state.history.load_s,
         "history_s": state.history.history_s}, overhead)

    out_dir = Path.cwd() / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    span_count = tracer.dump(str(spans_path))

    reports = [{
        "perfbench": "report", "workload": workload, "mode": "traced",
        "provenance": prov,
        "tracing_overhead": {"traced_s": traced_s,
                             "untraced_s": untraced_s, "ops": ops},
        "spans": span_count, "spans_file": str(spans_path.relative_to(
            Path.cwd())),
    }]
    reports += [{"perfbench": "layer", "workload": workload, **line}
                for line in layers.layer_lines(values)]
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value,
                           "unit": layers.PER_LAYER_UNITS[name]}
                    for name, value in values.items()},
    }
    return result, reports


def main(argv: Optional[List[str]] = None) -> int:
    _import_program()
    from workloads import FULL, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run = run_traced if args.trace else run_untraced
    result, reports = run(args.workload, args.seed, args.seconds, FULL)
    for report in reports:
        print(json.dumps(report, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
