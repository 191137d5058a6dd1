"""Interactive shell (``python -m repro``) — a sqlite3-CLI lookalike
with Retro snapshots and RQL built in.

Supports plain SQL (including ``SELECT AS OF`` and
``COMMIT WITH SNAPSHOT``), the RQL mechanism UDFs, materialized
retrospective views (``CREATE MATERIALIZED VIEW v AS
CollateData('<Qq>')``, ``REFRESH MATERIALIZED VIEW v [FULL]``,
``DROP MATERIALIZED VIEW [IF EXISTS] v``, ``EXPLAIN REFRESH
MATERIALIZED VIEW v``), and dot-commands:

.help                       this text
.tables                     list tables (main + aux/temp)
.schema [table]             show column definitions
.indexes [table]            list indexes
.snapshots                  list declared snapshots (SnapIds)
.snapshot [name]            declare a snapshot now
.views [name]               list materialized views, or one view's
                            refresh plan (EXPLAIN REFRESH)
.checkpoint                 flush everything durably
.stats                      storage / Retro statistics
.workers [n]                show or set the RQL worker count
.rqlint <Mechanism> [arg] <Qq SQL>
                            merge-class certificate for a mechanism
                            call (Qs defaults to all of SnapIds);
                            e.g. .rqlint AggregateDataInVariable sum
                            SELECT COUNT(*) FROM LoggedIn
.chaos                      fault-injection status + last recovery report
.chaos crash N [tear]       schedule a crash at the N-th write from now
.chaos scrub                verify archived pre-state checksums
.quit                       exit

Run with ``--chaos-seed N`` to back the session with fault-injecting
ChaosDisks (deterministic in the seed); ``.chaos crash`` requires it.

``python -m repro.cli serve`` starts the multi-session socket server
instead (newline-delimited JSON over localhost TCP; see
:mod:`repro.server.wire` for the protocol and ``serve --selftest`` for
a one-shot liveness check).
"""

from __future__ import annotations

import sys
import time
from typing import IO, List, Optional

from repro.core import RQLSession
from repro.core.mechanisms import resolve
from repro.errors import ReproError
from repro.sql.executor import ResultSet
from repro.sql.types import value_repr


def format_table(result: ResultSet, max_width: int = 40) -> str:
    """Render a ResultSet as an aligned text table."""
    if not result.columns:
        rowcount = getattr(result, "rowcount", None)
        return f"ok ({rowcount} rows affected)" if rowcount else "ok"
    rendered = [
        [_clip(value_repr(v), max_width) for v in row]
        for row in result.rows
    ]
    headers = [str(c) for c in result.columns]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rendered:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    lines.append(f"({len(result.rows)} row"
                 f"{'s' if len(result.rows) != 1 else ''})")
    return "\n".join(lines)


def _clip(text: str, max_width: int) -> str:
    return text if len(text) <= max_width else text[:max_width - 1] + "…"


class Shell:
    """Reads statements, dispatches SQL and dot-commands."""

    def __init__(self, session: Optional[RQLSession] = None,
                 out: Optional[IO[str]] = None) -> None:
        self.session = session or RQLSession()
        # Resolve stdout at call time (it may be redirected by then).
        self.out = out if out is not None else sys.stdout
        self.running = True

    # -- I/O ------------------------------------------------------------

    def write(self, text: str = "") -> None:
        print(text, file=self.out)

    # -- main loop ---------------------------------------------------------

    def run(self, stream: IO[str], interactive: bool = False) -> int:
        buffer: List[str] = []
        while self.running:
            if interactive:
                prompt = "rql> " if not buffer else "...> "
                self.out.write(prompt)
                self.out.flush()
            line = stream.readline()
            if not line:
                break
            stripped = line.strip()
            if not buffer and stripped.startswith("."):
                self.dispatch_dot(stripped)
                continue
            if not stripped and not buffer:
                continue
            buffer.append(line)
            if stripped.endswith(";"):
                statement = "".join(buffer)
                buffer = []
                self.execute(statement)
        if buffer:
            self.execute("".join(buffer))
        return 0

    def execute(self, sql: str) -> None:
        sql = sql.strip().rstrip(";").strip()
        if not sql:
            return
        try:
            result = self.session.db.executescript(sql + ";")
        except ReproError as exc:
            self.write(f"error: {exc}")
            return
        if result is not None:
            self.write(format_table(result))

    # -- dot commands ------------------------------------------------------

    def dispatch_dot(self, line: str) -> None:
        parts = line.split()
        command, args = parts[0].lower(), parts[1:]
        handler = getattr(self, "cmd_" + command[1:], None)
        if handler is None:
            self.write(f"unknown command {command}; try .help")
            return
        try:
            handler(args)
        except ReproError as exc:
            self.write(f"error: {exc}")

    def cmd_help(self, args: List[str]) -> None:
        self.write(__doc__.split("Supports", 1)[-1]
                   if args else __doc__ or "")

    def cmd_quit(self, args: List[str]) -> None:
        self.running = False

    def cmd_exit(self, args: List[str]) -> None:
        self.running = False

    def _catalogs(self):
        from repro.sql.catalog import Catalog

        for engine, kind in ((self.session.db.engine, "main"),
                             (self.session.db.aux_engine, "temp")):
            ctx = engine.begin_read()
            try:
                source = engine.read_source(ctx)
                yield Catalog(source, engine.pager.get_root("catalog")), kind
            finally:
                ctx.close()

    def cmd_tables(self, args: List[str]) -> None:
        for catalog, kind in self._catalogs():
            for table in catalog.list_tables():
                self.write(f"{table.name}  [{kind}]")

    def cmd_schema(self, args: List[str]) -> None:
        wanted = args[0].lower() if args else None
        for catalog, kind in self._catalogs():
            for table in catalog.list_tables():
                if wanted and table.name.lower() != wanted:
                    continue
                columns = ", ".join(
                    f"{c.name} {c.type_name}".strip()
                    for c in table.columns
                )
                pk = (f", PRIMARY KEY ({', '.join(table.primary_key)})"
                      if table.primary_key else "")
                self.write(f"CREATE TABLE {table.name} ({columns}{pk});"
                           f"  -- [{kind}]")

    def cmd_indexes(self, args: List[str]) -> None:
        wanted = args[0].lower() if args else None
        for catalog, kind in self._catalogs():
            for index in catalog.list_indexes():
                if wanted and index.table.lower() != wanted:
                    continue
                unique = "UNIQUE " if index.unique else ""
                self.write(
                    f"{unique}INDEX {index.name} ON {index.table} "
                    f"({', '.join(index.columns)})  [{kind}]"
                )

    def cmd_snapshots(self, args: List[str]) -> None:
        result = self.session.execute(
            "SELECT snap_id, snap_ts, snap_name FROM SnapIds "
            "ORDER BY snap_id"
        )
        self.write(format_table(result))

    def cmd_snapshot(self, args: List[str]) -> None:
        name = args[0] if args else None
        sid = self.session.declare_snapshot(name=name)
        self.write(f"declared snapshot {sid}"
                   + (f" ({name})" if name else ""))

    def cmd_views(self, args: List[str]) -> None:
        if args:
            for line in self.session.views.explain_refresh(args[0]):
                self.write(line)
            return
        views = self.session.views.list_views()
        if not views:
            self.write("(no materialized views)")
            return
        result = ResultSet(
            ["name", "mechanism", "merge_class", "built_from"],
            [(v.name, v.mechanism, v.merge_class, v.built_from)
             for v in views],
        )
        self.write(format_table(result))

    def cmd_checkpoint(self, args: List[str]) -> None:
        self.session.checkpoint()
        self.write("checkpointed")

    def cmd_workers(self, args: List[str]) -> None:
        if args:
            try:
                count = int(args[0])
            except ValueError:
                self.write(f"error: not a worker count: {args[0]!r}")
                return
            self.session.workers = \
                self.session._validate_workers(count)
        self.write(f"workers: {self.session.workers}")

    def cmd_rqlint(self, args: List[str]) -> None:
        """Certify one mechanism invocation against the live catalog."""
        usage = "usage: .rqlint <Mechanism> [agg-arg] <Qq SQL>"
        if not args:
            self.write(usage)
            return
        mechanism, rest = args[0], list(args[1:])
        arg = None
        if resolve(mechanism).takes_arg and rest \
                and rest[0].upper() != "SELECT":
            arg = rest.pop(0)
        qq = " ".join(rest).rstrip(";")
        if not qq:
            self.write(usage)
            return
        qs = "SELECT snap_id FROM SnapIds ORDER BY snap_id"
        certificate = self.session.certify(mechanism, qs, qq, arg=arg)
        for line in certificate.summary_lines():
            self.write(line)

    def cmd_chaos(self, args: List[str]) -> None:
        engine = self.session.db.engine
        controller = getattr(engine.disk, "chaos", None)
        sub = args[0].lower() if args else "status"
        if sub == "crash":
            if controller is None:
                self.write("error: fault injection needs --chaos-seed")
                return
            if len(args) < 2:
                self.write("usage: .chaos crash N [tear]")
                return
            try:
                ordinal = int(args[1])
            except ValueError:
                self.write(f"error: not a write ordinal: {args[1]!r}")
                return
            tear = len(args) > 2 and args[2].lower() == "tear"
            controller.schedule_crash(at_write=ordinal, tear=tear)
            self.write(f"crash scheduled at write "
                       f"#{controller.crash_at}"
                       + (" (torn)" if tear else ""))
        elif sub == "scrub":
            bad = engine.retro.scrub()
            if bad:
                self.write(f"scrub: {len(bad)} corrupt pre-state(s); "
                           f"affected snapshots marked unavailable")
            else:
                self.write("scrub: all archived pre-states verify")
        elif sub == "status":
            if controller is None:
                self.write("injection:    off (run with --chaos-seed)")
            else:
                armed = (f"crash at write #{controller.crash_at}"
                         + (" torn" if controller.tear else "")
                         if controller.armed else "disarmed")
                self.write(f"injection:    seed {controller.seed}, "
                           f"{armed}")
                self.write(f"writes:       {controller.write_count} "
                           f"durable, {controller.dropped_writes} "
                           f"dropped")
                if controller.last_event:
                    self.write(f"last event:   {controller.last_event}")
            report = engine.last_recovery
            if report is None:
                self.write("recovery:     clean open (nothing replayed)")
            else:
                self.write(f"recovery:     {report.replayed_txns} txn(s) "
                           f"replayed, "
                           f"{'DEGRADED' if report.degraded else 'intact'}")
                for name, status in (("wal", report.wal_status),
                                     ("maplog", report.maplog_status)):
                    if status is not None and status.torn:
                        self.write(
                            f"  {name}: torn tail — "
                            f"{status.truncated_blocks} block(s) "
                            f"truncated, partial record dropped: "
                            f"{status.dropped_partial_record}")
            unavailable = engine.retro.unavailable_snapshots()
            if unavailable:
                self.write(f"unavailable:  snapshots {unavailable}")
        else:
            self.write(f"unknown subcommand {sub!r}; "
                       f"try .chaos / .chaos crash N [tear] / .chaos scrub")

    def cmd_stats(self, args: List[str]) -> None:
        engine = self.session.db.engine
        retro = engine.retro
        self.write(f"database pages:      {engine.database_pages()}")
        self.write(f"declared snapshots:  {retro.latest_snapshot_id}")
        self.write(f"pagelog pre-states:  {retro.pagelog.total_slots} "
                   f"({retro.pagelog.size_bytes} bytes)")
        self.write(f"maplog entries:      {retro.maplog.entries_recorded}")
        cache = retro.cache
        self.write(f"snapshot cache:      {len(cache)} pages, "
                   f"hit rate {cache.hit_rate():.1%}")
        pool = engine.pager.pool.stats
        self.write(f"buffer pool:         hit rate {pool.hit_rate():.1%}")


def serve_main(argv: List[str],
               out: Optional[IO[str]] = None) -> int:
    """``python -m repro.cli serve``: the socket front-end.

    Flags: ``--host H`` (default 127.0.0.1), ``--port N`` (default 0 =
    ephemeral), ``--pool-workers N`` (partition worker pool size),
    ``--workers N`` (default per-query worker count), ``--selftest``
    (spin up, run a smoke round-trip over the wire, shut down — used by
    the test suite and by CI as a liveness check).
    """
    from repro.server import RQLServer, WireClient, WireServer

    stream = out if out is not None else sys.stdout
    host, port = "127.0.0.1", 0
    pool_workers, workers = 4, None
    selftest = False
    flags = {"--host": str, "--port": int, "--pool-workers": int,
             "--workers": int}
    while argv:
        flag = argv.pop(0)
        if flag == "--selftest":
            selftest = True
            continue
        name = flag.split("=", 1)[0]
        if name not in flags:
            print(f"error: unknown serve flag {name}", file=sys.stderr)
            return 2
        if "=" in flag:
            raw = flag.split("=", 1)[1]
        elif argv:
            raw = argv.pop(0)
        else:
            print(f"error: {name} needs a value", file=sys.stderr)
            return 2
        try:
            value = flags[name](raw)
        except ValueError:
            print(f"error: bad value for {name}: {raw!r}",
                  file=sys.stderr)
            return 2
        if name == "--host":
            host = str(value)
        elif name == "--port":
            port = int(value)
        elif name == "--pool-workers":
            pool_workers = int(value)
        else:
            workers = int(value)
    server = RQLServer(pool_workers=pool_workers, workers=workers)
    wire = WireServer(server, host=host, port=port).start()
    bound_host, bound_port = wire.address
    print(f"rql server listening on {bound_host}:{bound_port}",
          file=stream)
    try:
        if selftest:
            with WireClient(bound_host, bound_port) as client:
                client.execute("CREATE TABLE t (a INTEGER)")
                client.execute("INSERT INTO t VALUES (1)")
                client.request({"op": "snapshot", "name": "smoke"})
                reply = client.request({
                    "op": "mechanism", "mechanism": "collate_data",
                    "qs": "SELECT snap_id FROM SnapIds",
                    "qq": "SELECT a, current_snapshot() FROM t",
                    "table": "Result",
                })
            if not reply.get("ok"):
                print(f"selftest failed: {reply}", file=sys.stderr)
                return 1
            print(f"selftest ok: {reply['rows']} row(s) over "
                  f"snapshots {reply['snapshots']}", file=stream)
            return 0
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            print("shutting down", file=stream)
            return 0
    finally:
        wire.close()
        server.close()


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "lint":
        # Static analysis entry point: `python -m repro.cli lint [...]`
        # is equivalent to `python -m repro.analysis [...]`.
        from repro.analysis import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    workers = 1
    chaos_seed: Optional[int] = None
    while argv and (argv[0].startswith("--workers")
                    or argv[0].startswith("--chaos-seed")):
        flag = argv.pop(0)
        name = flag.split("=", 1)[0]
        if "=" in flag:
            value = flag.split("=", 1)[1]
        elif argv:
            value = argv.pop(0)
        else:
            print(f"error: {name} needs a value", file=sys.stderr)
            return 2
        try:
            number = int(value)
        except ValueError:
            print(f"error: not a number: {value!r}", file=sys.stderr)
            return 2
        if name == "--workers":
            if number < 1:
                print("error: --workers must be >= 1", file=sys.stderr)
                return 2
            workers = number
        else:
            chaos_seed = number
    if chaos_seed is not None:
        from repro.sql.database import Database
        from repro.storage.chaosdisk import ChaosDisk

        disk = ChaosDisk(4096, seed=chaos_seed)
        aux_disk = ChaosDisk(4096, controller=disk.chaos)
        session = RQLSession(db=Database(disk=disk, aux_disk=aux_disk),
                             workers=workers)
    else:
        session = RQLSession(workers=workers)
    shell = Shell(session=session)
    if argv:
        for path in argv:
            with open(path, "r", encoding="utf-8") as handle:
                code = shell.run(handle)
                if code:
                    return code
        return 0
    interactive = sys.stdin.isatty()
    if interactive:
        shell.write("RQL shell — retrospective computations over "
                    "snapshot sets (.help for commands)")
    return shell.run(sys.stdin, interactive=interactive)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
