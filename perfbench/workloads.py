"""The three closed-loop workloads, their set-up, and the answer oracle.

Every workload runs on a TPC-H database at scale 0.001 with a UW30
snapshot history of 64 snapshots (paper Table 1 notation).  Each client
is a closed loop: it sends its next operation only after the previous
one returned.  The snapshot page cache is cleared before every
retrospective call (the paper's rule that an RQL query starts with an
empty cache); everything else fits the program's caches.

* ``sweep`` -- one embedded client, workers=1, rotating
  AggregateDataInVariable(Qq_io, AVG), AggregateDataInTable(Qq_agg) and
  CollateDataIntoIntervals(Qq_int) over contiguous windows starting at
  seeded-random old snapshots.  Consecutive snapshots share most pages,
  so time goes to record decoding, executor scans and the folds.
* ``asof_point`` -- one embedded client issuing one query shape: an
  order joined to its lineitems AS OF a seeded-random snapshot, two
  primary-key probes on cold pages.  Front end, B-tree and SPT work
  dominate; decoding and folds are trivial.  One shape keeps the
  latency distribution unimodal.
* ``mixed_server`` -- an RQLServer behind the newline-JSON wire with two
  clients on two threads: a writer committing UW30-sized refresh
  transactions as SQL plus a snapshot, and a reader alternating
  AggregateDataInVariable over a pinned 16-snapshot window (workers=2)
  with REFRESH MATERIALIZED VIEW of an AggregateDataInVariable view.
  The only workload that writes; the pinned window fixes the work per
  read.

Answers are checked away from the timed path against an oracle built
from the rows the TPC-H generator produced, replayed through the UW30
delete-oldest / insert-new rule -- never from the program's own reads.
"""

from __future__ import annotations

import itertools
import math
import random
import statistics
import struct
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.bench.harness import QQ_AGG, QQ_INT, QQ_IO
from repro.core import RQLSession
from repro.errors import ReproError
from repro.server import RQLServer
from repro.server.wire import WireClient, WireServer
from repro.workloads import UW30, SnapshotHistoryBuilder

WORKLOADS = ("sweep", "asof_point", "mixed_server")

AGGT_ARG = "(cn,sum):(av,max)"
ASOF_SQL = ("SELECT AS OF {sid} o.o_orderkey, o.o_custkey, o.o_totalprice, "
            "l.l_linenumber, l.l_extendedprice FROM orders o, lineitem l "
            "WHERE o.o_orderkey = {key} AND l.l_orderkey = {key}")
VIEW = "v_open_orders"
#: relative tolerance for floating-point answers (sums may run in
#: another order than the oracle's)
REL_TOL = 1e-9


@dataclass(frozen=True)
class Size:
    """Workload dimensions; the benchmark uses :data:`FULL`."""

    scale: float = 0.001
    snapshots: int = 64
    aggv_window: int = 16
    aggt_window: int = 4
    intervals_window: int = 2
    #: set-ups per untraced run; setup_s is their median
    setup_repeats: int = 3


FULL = Size()


# ---------------------------------------------------------------------------
# Set-up: TPC-H load + UW30 history, recording what the generator made
# ---------------------------------------------------------------------------

@dataclass
class History:
    """The generated rows and which orders are live at each snapshot."""

    #: orderkey -> (orders row, lineitem rows), every order ever generated
    orders: Dict[int, Tuple[tuple, List[tuple]]]
    #: live[s] = orderkeys live at snapshot s (live[0] = after the load)
    live: List[FrozenSet[int]]
    orders_per_snapshot: int
    load_s: float
    history_s: float

    @property
    def snapshots(self) -> int:
        return len(self.live) - 1


def build_history(session: RQLSession, size: Size,
                  data_seed: int) -> History:
    """Load TPC-H and declare ``size.snapshots`` UW30 snapshots."""
    builder = SnapshotHistoryBuilder(session, scale_factor=size.scale,
                                     seed=data_seed)
    generated: Dict[int, Tuple[tuple, List[tuple]]] = {}
    generate = builder.generator.order_with_lines

    def recording(orderkey: int):
        order, lines = generate(orderkey)
        generated[orderkey] = (order, list(lines))
        return order, lines
    builder.generator.order_with_lines = recording

    started = time.perf_counter()
    builder.load_initial()
    load_s = time.perf_counter() - started

    per_snapshot = UW30.orders_per_snapshot(builder.generator.orders_count)
    live = set(generated)
    lives = [frozenset(live)]
    history_s = 0.0
    for _ in range(size.snapshots):
        known = len(generated)
        started = time.perf_counter()
        builder.build_history(UW30, 1)
        history_s += time.perf_counter() - started
        # UW30 deletes the oldest live orders and inserts new ones.
        doomed = sorted(live)[:per_snapshot]
        live.difference_update(doomed)
        live.update(list(generated)[known:])
        lives.append(frozenset(live))
    if set(builder.refresh.live_orderkeys()) != live:
        raise RuntimeError("oracle model of the UW30 history diverged "
                           "from SnapshotHistoryBuilder's live orders")
    return History(generated, lives, per_snapshot, load_s, history_s)


class Oracle:
    """Expected answers, computed from :class:`History` alone."""

    def __init__(self, history: History) -> None:
        self.history = history
        self._io: Dict[int, int] = {}
        self._agg: Dict[int, Dict[int, Tuple[int, float]]] = {}
        self._sorted_live: Dict[int, List[int]] = {}

    def live_keys(self, sid: int) -> List[int]:
        keys = self._sorted_live.get(sid)
        if keys is None:
            keys = self._sorted_live[sid] = sorted(self.history.live[sid])
        return keys

    def io(self, sid: int) -> int:
        """Qq_io at ``sid``: open orders."""
        if sid not in self._io:
            orders = self.history.orders
            self._io[sid] = sum(1 for k in self.history.live[sid]
                                if orders[k][0][2] == "O")
        return self._io[sid]

    def agg(self, sid: int) -> Dict[int, Tuple[int, float]]:
        """Qq_agg at ``sid``: custkey -> (COUNT(*), AVG(o_totalprice))."""
        if sid not in self._agg:
            groups: Dict[int, List[float]] = {}
            for key in self.live_keys(sid):
                order = self.history.orders[key][0]
                groups.setdefault(order[1], []).append(order[3])
            self._agg[sid] = {c: (len(p), math.fsum(p) / len(p))
                              for c, p in groups.items()}
        return self._agg[sid]

    def aggv(self, sids: Sequence[int]) -> float:
        return statistics.fmean(self.io(s) for s in sids)

    def aggt(self, sids: Sequence[int]) -> Dict[int, Tuple[int, float]]:
        out: Dict[int, Tuple[int, float]] = {}
        for sid in sids:
            for cust, (count, avg) in self.agg(sid).items():
                if cust in out:
                    total, best = out[cust]
                    out[cust] = (total + count, max(best, avg))
                else:
                    out[cust] = (count, avg)
        return out

    def intervals(self, sids: Sequence[int]) -> set:
        """Qq_int rows compressed into lifetimes over ``sids``."""
        orders = self.history.orders
        open_: Dict[int, List[int]] = {}
        done = set()
        previous = None
        for sid in sids:
            for key in self.history.live[sid]:
                interval = open_.get(key)
                if interval is not None and interval[1] == previous:
                    interval[1] = sid
                    continue
                if interval is not None:
                    done.add((key, orders[key][0][1], *interval))
                open_[key] = [sid, sid]
            previous = sid
        done.update((k, orders[k][0][1], *iv) for k, iv in open_.items())
        return done

    def asof(self, sid: int, key: int) -> List[tuple]:
        order, lines = self.history.orders[key]
        return sorted((key, order[1], order[3], line[3], line[5])
                      for line in lines)

    def view_value(self, target: int) -> float:
        """AVG over snapshots 1..target of Qq_io; snapshots past the
        history repeat the head state (the writer re-inserts what it
        deletes)."""
        head = self.history.snapshots
        total = sum(self.io(s) for s in range(1, head + 1))
        total += (target - head) * self.io(head)
        return total / target


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def qs_window(start: int, length: int) -> str:
    return (f"SELECT snap_id FROM SnapIds WHERE snap_id BETWEEN {start} "
            f"AND {start + length - 1} ORDER BY snap_id")


def old_start(rng: random.Random, history: History, window: int) -> int:
    """A seeded window start among the old snapshots: those at least one
    UW30 overwrite cycle behind the head, whose pages the current state
    no longer shares (or snapshot 1 when the history is shorter)."""
    last = history.snapshots - window + 1
    old = history.snapshots - UW30.overwrite_cycle
    return rng.randint(1, max(1, min(last, old)))


# ---------------------------------------------------------------------------
# Measurement bookkeeping
# ---------------------------------------------------------------------------

_PROBE_FIELDS = struct.Struct("<8q")


class HostProbe:
    """How fast the host runs right now, measured by a fixed task.

    On a shared host the same Python work takes 20-40% longer in some
    minutes than in others, so raw wall times of one run do not compare
    with another's.  The probe is a fixed pure-Python task shaped like
    the program's hot path -- unpacking fields from 1 MiB of page images
    into a dict -- timed in thread CPU time so waiting for the
    interpreter lock does not count.  Dividing an op's wall time by the
    probe time taken just before it cancels the host's speed, not the
    program's: the probe never calls the program.
    """

    PAGES = 256
    PAGE = 4096
    #: the probe re-runs once this much time has passed since the last
    MIN_GAP_S = 0.05
    #: probe times the median is taken over
    WINDOW = 5

    def __init__(self) -> None:
        # One buffer, not one object per page: its layout, and so its
        # cache behaviour, is the same in every process.
        self._buffer = random.Random(0).randbytes(self.PAGES * self.PAGE)
        self._recent: List[float] = []
        self._last = -math.inf

    def _task(self) -> int:
        fields: Dict[int, tuple] = {}
        unpack = _PROBE_FIELDS.unpack_from
        for n in range(0, self.PAGES * 7, 7):
            base = (n % self.PAGES) * self.PAGE
            for offset in range(base, base + self.PAGE, 512):
                row = unpack(self._buffer, offset)
                fields[row[0] & 1023] = row
        return len(fields)

    def before_op(self) -> None:
        """Re-measure the host if the last probe is stale."""
        if time.perf_counter() - self._last < self.MIN_GAP_S:
            return
        started = time.thread_time_ns()
        self._task()
        elapsed = (time.thread_time_ns() - started) / 1e9
        self._recent = (self._recent + [elapsed])[-self.WINDOW:]
        self._last = time.perf_counter()

    @property
    def seconds(self) -> float:
        """Median of the latest probe times."""
        return statistics.median(self._recent)


@dataclass
class Client:
    """One closed-loop client's latencies by op kind: wall seconds, and
    the same divided by the host probe (see :class:`HostProbe`)."""

    name: str
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    normalized: Dict[str, List[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    probe: HostProbe = field(default_factory=HostProbe)

    @property
    def ops(self) -> int:
        return sum(len(v) for v in self.latencies.values())

    @property
    def busy_s(self) -> float:
        return sum(sum(v) for v in self.latencies.values())

    def record(self, kind: str, seconds: float, ok: bool,
               why: str = "") -> None:
        """A completed op; ``ok`` is whether its answer checked out."""
        self.latencies.setdefault(kind, []).append(seconds)
        self.normalized.setdefault(kind, []).append(
            seconds / self.probe.seconds)
        if ok:
            self.attempted += 1
        else:
            self.fail(kind, why)

    def fail(self, kind: str, why: str) -> None:
        """An op that errored or answered wrongly."""
        self.attempted += 1
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{kind}: {why}")


class Loop:
    """Stops a client by deadline, or after a fixed op count (replay).

    A client always gets :data:`MIN_OPS` ops, enough for one of each of
    its op kinds, however short the deadline.
    """

    MIN_OPS = 3

    def __init__(self, seconds: float,
                 limits: Optional[Dict[str, int]] = None) -> None:
        self.deadline = time.perf_counter() + seconds
        self.limits = limits

    def more(self, client: Client) -> bool:
        if self.limits is not None:
            return client.attempted < self.limits[client.name]
        return (client.attempted < self.MIN_OPS
                or time.perf_counter() < self.deadline)


class OpTags:
    """Op ids and answer-check pauses for the traced run (no-ops when
    the run is untraced)."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self._ids = itertools.count(1)
        self._latch = threading.Lock()

    def next_op(self) -> Optional[int]:
        if self.tracer is None:
            return None
        with self._latch:
            op = next(self._ids)
        self.tracer.set_op(op)
        return op

    @contextmanager
    def checking(self):
        if self.tracer is None:
            yield
            return
        previous = self.tracer.pause(True)
        try:
            yield
        finally:
            self.tracer.pause(previous)

    def count(self, name: str, value: float) -> None:
        if self.tracer is not None:
            self.tracer.add(name, value)

    def payload(self, request: dict, op: Optional[int],
                check: bool = False) -> dict:
        if self.tracer is not None:
            request["trace_op"] = op
            if check:
                request["trace_check"] = True
        return request


# ---------------------------------------------------------------------------
# Workload state (what set-up builds) and the three loops
# ---------------------------------------------------------------------------

class EmbeddedState:
    """An embedded session over the history (sweep, asof_point)."""

    clients = 1
    #: per-query worker count (1 = the serial loop, as in the paper)
    workers = 1

    def __init__(self, size: Size, data_seed: int) -> None:
        self.session = RQLSession(workers=self.workers)
        self.history = build_history(self.session, size, data_seed)
        self.oracle = Oracle(self.history)
        self.engines = [self.session.db.engine, self.session.db.aux_engine]

    def clear_cache(self) -> None:
        self.session.db.engine.retro.cache.clear()

    def close(self) -> None:
        self.session.close()


class ServerState:
    """An RQLServer, its view and two wire clients (mixed_server)."""

    clients = 2
    #: the reader's per-query worker count
    workers = 2

    def __init__(self, size: Size, data_seed: int) -> None:
        self.server = RQLServer(gate_timeout=60.0)
        handle = self.server.connect("setup")
        try:
            self.history = build_history(handle.session, size, data_seed)
            handle.execute(
                f"CREATE MATERIALIZED VIEW {VIEW} AS AggregateDataInVariable"
                f"('{QQ_IO.replace(chr(39), chr(39) * 2)}', 'avg')")
        finally:
            handle.close()
        self.oracle = Oracle(self.history)
        self.engines = [self.server.store.engine,
                        self.server.store.aux_engine]
        self.wire = WireServer(self.server).start()
        host, port = self.wire.address
        self.writer = WireClient(host, port, timeout=120.0)
        self.reader = WireClient(host, port, timeout=120.0)
        self.leaks: Dict[str, object] = {}

    def clear_cache(self) -> None:
        self.server.store.engine.retro.cache.clear()

    def close(self) -> None:
        self.writer.close()
        self.reader.close()
        self.wire.close()
        self.leaks = self.server.leak_report()
        self.server.close()


def run_sweep(state: EmbeddedState, size: Size, seed: int, loop: Loop,
              tags: OpTags) -> List[Client]:
    session, oracle = state.session, state.oracle
    rng = random.Random(f"sweep/{seed}")
    client = Client("sweep")
    calls: List[Tuple[str, int, Callable]] = [
        ("aggv", size.aggv_window, lambda qs: session
         .aggregate_data_in_variable(qs, QQ_IO, "r_aggv", "avg")),
        ("aggt", size.aggt_window, lambda qs: session
         .aggregate_data_in_table(qs, QQ_AGG, "r_aggt", AGGT_ARG)),
        ("intervals", size.intervals_window, lambda qs: session
         .collate_data_into_intervals(qs, QQ_INT, "r_int")),
    ]
    turn = 0
    while loop.more(client):
        kind, window, call = calls[turn % len(calls)]
        turn += 1
        start = old_start(rng, state.history, window)
        sids = list(range(start, start + window))
        client.probe.before_op()
        tags.next_op()
        state.clear_cache()
        try:
            began = time.perf_counter()
            result = call(qs_window(start, window))
            elapsed = time.perf_counter() - began
        except ReproError as exc:
            client.fail(kind, repr(exc))
            continue
        with tags.checking():
            ok, why = check_sweep(session, oracle, kind, sids, result)
        client.record(kind, elapsed, ok, why)
    return [client]


def check_sweep(session: RQLSession, oracle: Oracle, kind: str,
                sids: List[int], result) -> Tuple[bool, str]:
    if list(result.snapshots) != sids:
        return False, f"iterated {result.snapshots}, expected {sids}"
    cols = ", ".join(f'"{c}"' for c in result.columns)
    rows = session.execute(f'SELECT {cols} FROM "{result.table}"').rows
    if kind == "aggv":
        want = oracle.aggv(sids)
        got = rows[0][0] if len(rows) == 1 else None
        return (got is not None and _close(got, want),
                f"AVG {got} != {want}")
    if kind == "aggt":
        want = oracle.aggt(sids)
        got = {r[0]: (r[1], r[2]) for r in rows}
        ok = (len(rows) == len(want) and got.keys() == want.keys()
              and all(got[c][0] == want[c][0]
                      and _close(got[c][1], want[c][1]) for c in want))
        return ok, f"{len(rows)} groups vs {len(want)} expected"
    want = oracle.intervals(sids)
    got = {tuple(r) for r in rows}
    return (len(rows) == len(want) and got == want,
            f"{len(rows)} intervals vs {len(want)} expected")


def run_asof(state: EmbeddedState, size: Size, seed: int, loop: Loop,
             tags: OpTags) -> List[Client]:
    session, oracle = state.session, state.oracle
    rng = random.Random(f"asof_point/{seed}")
    client = Client("asof")
    while loop.more(client):
        sid = rng.randint(1, state.history.snapshots)
        key = rng.choice(oracle.live_keys(sid))
        sql = ASOF_SQL.format(sid=sid, key=key)
        client.probe.before_op()
        tags.next_op()
        state.clear_cache()
        try:
            began = time.perf_counter()
            rows = session.execute(sql).rows
            elapsed = time.perf_counter() - began
        except ReproError as exc:
            client.fail("asof", repr(exc))
            continue
        tags.count("qq_rows", len(rows))
        with tags.checking():
            got = sorted(tuple(r) for r in rows)
            want = oracle.asof(sid, key)
        client.record("asof", elapsed, got == want,
                      f"AS OF {sid} key {key}: {got} != {want}")
    return [client]


def _literal(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def _row_sql(table: str, row: Sequence) -> str:
    return (f"INSERT INTO {table} VALUES "
            f"({', '.join(_literal(v) for v in row)})")


def run_mixed(state: ServerState, size: Size, seed: int, loop: Loop,
              tags: OpTags) -> List[Client]:
    oracle, history = state.oracle, state.history
    writer, reader = Client("writer"), Client("reader")
    head_keys = oracle.live_keys(history.snapshots)
    pinned = old_start(random.Random(f"mixed_server/pin/{seed}"), history,
                       size.aggv_window)
    pinned_sids = list(range(pinned, pinned + size.aggv_window))
    pinned_qs = qs_window(pinned, size.aggv_window)
    next_sid = [state.engines[0].retro.latest_snapshot_id + 1]

    def request(conn: WireClient, payload: dict, op, check=False) -> dict:
        response = conn.request(tags.payload(payload, op, check))
        if not response.get("ok"):
            raise ReproError(f"{response.get('error')}: "
                             f"{response.get('message')}")
        return response

    def write_loop() -> None:
        rng = random.Random(f"mixed_server/writer/{seed}")
        while loop.more(writer):
            keys = sorted(rng.sample(head_keys, history.orders_per_snapshot))
            statements = ["BEGIN"]
            for key in keys:
                statements.append(
                    f"DELETE FROM lineitem WHERE l_orderkey = {key}")
                statements.append(
                    f"DELETE FROM orders WHERE o_orderkey = {key}")
            for key in keys:
                order, lines = history.orders[key]
                statements.append(_row_sql("orders", order))
                statements.extend(_row_sql("lineitem", ln) for ln in lines)
            statements.append("COMMIT")
            script = "; ".join(statements)
            writer.probe.before_op()
            op = tags.next_op()
            try:
                began = time.perf_counter()
                request(state.writer, {"op": "script", "sql": script}, op)
                sid = request(state.writer, {"op": "snapshot"},
                              op)["snapshot_id"]
                elapsed = time.perf_counter() - began
                with tags.checking():
                    ok, why = check_write(keys, sid)
            except ReproError as exc:
                writer.fail("commit", repr(exc))
                # A statement that failed mid-script leaves its
                # transaction open; end it so the next op starts clean.
                state.writer.request({"op": "execute", "sql": "ROLLBACK"})
                continue
            writer.record("commit", elapsed, ok, why)

    def check_write(keys: List[int], sid: int) -> Tuple[bool, str]:
        expected, next_sid[0] = next_sid[0], sid + 1
        if sid != expected:
            return False, f"snapshot {sid}, expected {expected}"
        in_list = ", ".join(map(str, keys))
        got_o = request(state.writer, {"op": "execute", "sql": (
            "SELECT COUNT(*), SUM(o_totalprice) FROM orders "
            f"WHERE o_orderkey IN ({in_list})")}, None, True)["rows"][0]
        got_l = request(state.writer, {"op": "execute", "sql": (
            "SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem "
            f"WHERE l_orderkey IN ({in_list})")}, None, True)["rows"][0]
        lines = [ln for k in keys for ln in history.orders[k][1]]
        ok = (got_o[0] == len(keys)
              and _close(got_o[1], math.fsum(history.orders[k][0][3]
                                             for k in keys))
              and got_l[0] == len(lines)
              and _close(got_l[1], math.fsum(ln[5] for ln in lines)))
        return ok, f"re-inserted rows read back as {got_o} / {got_l}"

    def read_loop() -> None:
        turn = 0
        while loop.more(reader):
            kind = "aggv" if turn % 2 == 0 else "refresh"
            turn += 1
            reader.probe.before_op()
            op = tags.next_op()
            state.clear_cache()
            try:
                began = time.perf_counter()
                if kind == "aggv":
                    request(state.reader, {
                        "op": "mechanism",
                        "mechanism": "aggregate_data_in_variable",
                        "qs": pinned_qs, "qq": QQ_IO, "table": "r_aggv",
                        "arg": "avg", "workers": state.workers}, op)
                    target = None
                else:
                    target = request(state.reader, {
                        "op": "execute",
                        "sql": f"REFRESH MATERIALIZED VIEW {VIEW}"},
                        op)["rows"][0][3]
                elapsed = time.perf_counter() - began
                with tags.checking():
                    table = "r_aggv" if target is None else VIEW
                    rows = request(state.reader, {
                        "op": "execute", "sql": f"SELECT * FROM {table}"},
                        None, True)["rows"]
                    want = (oracle.aggv(pinned_sids) if target is None
                            else oracle.view_value(target))
                    got = rows[0][0] if len(rows) == 1 else None
            except ReproError as exc:
                reader.fail(kind, repr(exc))
                continue
            reader.record(kind, elapsed,
                          got is not None and _close(got, want),
                          f"{kind} read {got}, expected {want}")

    threads = [threading.Thread(target=_guard(write_loop, writer),
                                name="perfbench-writer"),
               threading.Thread(target=_guard(read_loop, reader),
                                name="perfbench-reader")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [writer, reader]


def _guard(body: Callable[[], None], client: Client) -> Callable[[], None]:
    """A lost connection ends the client's loop as one failed op."""
    def run() -> None:
        try:
            body()
        except (OSError, ValueError) as exc:
            client.fail("connection", repr(exc))
    return run


RUNNERS = {"sweep": run_sweep, "asof_point": run_asof,
           "mixed_server": run_mixed}
STATES = {"sweep": EmbeddedState, "asof_point": EmbeddedState,
          "mixed_server": ServerState}
#: op kinds each workload times, in report order
KINDS = {"sweep": ("aggv", "aggt", "intervals"), "asof_point": ("asof",),
         "mixed_server": ("commit", "aggv", "refresh")}
