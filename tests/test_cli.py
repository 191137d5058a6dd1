"""CLI shell tests (driven through in-memory streams)."""

import io

from repro.cli import Shell, format_table, main
from repro.sql.executor import ResultSet


def run_shell(script: str) -> str:
    out = io.StringIO()
    shell = Shell(out=out)
    shell.run(io.StringIO(script))
    return out.getvalue()


class TestFormatTable:
    def test_alignment_and_count(self):
        result = ResultSet(["a", "long_column"], [(1, "x"), (22, None)])
        text = format_table(result)
        assert "a   long_column" in text
        assert "22  NULL" in text
        assert "(2 rows)" in text

    def test_single_row(self):
        text = format_table(ResultSet(["n"], [(5,)]))
        assert "(1 row)" in text

    def test_status_result(self):
        result = ResultSet([], [])
        result.rowcount = 3
        assert "3 rows affected" in format_table(result)

    def test_clipping(self):
        result = ResultSet(["t"], [("x" * 100,)])
        text = format_table(result, max_width=10)
        assert "…" in text


class TestShell:
    def test_sql_round_trip(self):
        output = run_shell(
            "CREATE TABLE t (a INTEGER);\n"
            "INSERT INTO t VALUES (1), (2);\n"
            "SELECT SUM(a) AS total FROM t;\n"
        )
        assert "total" in output
        assert "3" in output

    def test_multiline_statement(self):
        output = run_shell(
            "CREATE TABLE t (a INTEGER);\n"
            "SELECT a\n"
            "FROM t;\n"
        )
        assert "(0 rows)" in output

    def test_error_reported_not_fatal(self):
        output = run_shell(
            "SELECT * FROM missing;\n"
            "SELECT 1 AS ok;\n"
        )
        assert "error:" in output
        assert "ok" in output

    def test_dot_snapshot_and_snapshots(self):
        output = run_shell(
            "CREATE TABLE t (a INTEGER);\n"
            ".snapshot tagged\n"
            ".snapshots\n"
        )
        assert "declared snapshot 1 (tagged)" in output
        assert "tagged" in output

    def test_dot_tables_and_schema(self):
        output = run_shell(
            "CREATE TABLE people (name TEXT, age INTEGER PRIMARY KEY);\n"
            ".tables\n"
            ".schema people\n"
        )
        assert "people  [main]" in output
        assert "PRIMARY KEY (age)" in output

    def test_dot_indexes(self):
        output = run_shell(
            "CREATE TABLE t (a INTEGER);\n"
            "CREATE INDEX t_a ON t (a);\n"
            ".indexes t\n"
        )
        assert "INDEX t_a ON t (a)" in output

    def test_dot_stats_and_checkpoint(self):
        output = run_shell(
            "CREATE TABLE t (a INTEGER);\n"
            ".checkpoint\n"
            ".stats\n"
        )
        assert "checkpointed" in output
        assert "database pages:" in output

    def test_dot_views_lists_and_explains(self):
        output = run_shell(
            "CREATE TABLE t (a INTEGER);\n"
            "INSERT INTO t VALUES (1);\n"
            ".snapshot\n"
            ".views\n"
            "CREATE MATERIALIZED VIEW v AS "
            "CollateData('SELECT a FROM t');\n"
            ".views\n"
            ".views v\n"
            "REFRESH MATERIALIZED VIEW v;\n"
            "DROP MATERIALIZED VIEW v;\n"
        )
        assert "(no materialized views)" in output
        assert "concat" in output
        assert "decision:" in output
        assert "noop" in output

    def test_unknown_dot_command(self):
        output = run_shell(".nope\n")
        assert "unknown command" in output

    def test_quit_stops(self):
        output = run_shell(".quit\nSELECT 1;\n")
        assert "(1 row)" not in output

    def test_as_of_through_shell(self):
        output = run_shell(
            "CREATE TABLE t (a INTEGER);\n"
            "INSERT INTO t VALUES (1);\n"
            ".snapshot\n"
            "DELETE FROM t;\n"
            "SELECT AS OF 1 COUNT(*) AS was FROM t;\n"
            "SELECT COUNT(*) AS now FROM t;\n"
        )
        assert "was" in output and "now" in output

    def test_dot_workers_shows_and_sets(self):
        output = run_shell(
            ".workers\n"
            ".workers 4\n"
            ".workers zero\n"
        )
        assert "workers: 1" in output
        assert "workers: 4" in output
        assert "error: not a worker count: 'zero'" in output

    def test_parallel_mechanism_through_shell(self):
        output = run_shell(
            "CREATE TABLE t (a INTEGER);\n"
            "INSERT INTO t VALUES (1);\n"
            ".snapshot\n"
            "INSERT INTO t VALUES (2);\n"
            ".snapshot\n"
            ".workers 2\n"
            "SELECT rql_workers() AS w;\n"
        )
        assert "workers: 2" in output
        # the SQL knob reads back the shell-set default
        assert "w" in output and "(1 row)" in output

    def test_rql_udf_through_shell(self):
        output = run_shell(
            "CREATE TABLE t (a INTEGER);\n"
            "INSERT INTO t VALUES (7);\n"
            ".snapshot\n"
            "SELECT AggregateDataInVariable(snap_id, "
            "'SELECT COUNT(*) FROM t', 'R', 'sum') FROM SnapIds;\n"
            'SELECT * FROM "R";\n'
        )
        assert "(1 row)" in output


class TestRqlintCommand:
    def test_mergeable_verdict(self):
        output = run_shell(
            "CREATE TABLE t (a INTEGER);\n"
            ".rqlint AggregateDataInVariable sum "
            "SELECT COUNT(*) AS n FROM t;\n"
        )
        assert "merge class monoid" in output
        assert "Qs range" in output

    def test_serial_only_verdict_with_rule(self):
        output = run_shell(
            "CREATE TABLE t (a INTEGER);\n"
            ".rqlint CollateData SELECT a, rql_workers() FROM t;\n"
        )
        assert "merge class serial-only" in output
        assert "RQL106" in output

    def test_pushdown_hint(self):
        output = run_shell(
            "CREATE TABLE t (a INTEGER, b INTEGER);\n"
            ".rqlint CollateData SELECT a FROM t WHERE b = 5;\n"
        )
        assert "RQL104" in output

    def test_pair_arg_parses(self):
        output = run_shell(
            "CREATE TABLE t (g TEXT, v INTEGER);\n"
            ".rqlint AggregateDataInTable n:sum "
            "SELECT g, COUNT(*) AS n FROM t GROUP BY g;\n"
        )
        assert "merge class stored-row" in output

    def test_pair_arg_paper_form_parses(self):
        output = run_shell(
            "CREATE TABLE t (g TEXT, cn INTEGER, av INTEGER);\n"
            ".rqlint AggregateDataInTable (cn,sum):(av,max) "
            "SELECT g, cn, av FROM t;\n"
            ".rqlint aggregate_data_in_table (cn,median) "
            "SELECT g, cn FROM t;\n"
        )
        assert "merge class stored-row" in output
        assert "merge class serial-only" in output
        assert "RQL102" in output

    def test_unknown_mechanism_is_an_error(self):
        output = run_shell(".rqlint Bogus SELECT 1;\n")
        assert "error:" in output

    def test_usage_message(self):
        output = run_shell(".rqlint\n")
        assert "usage: .rqlint" in output

    def test_help_mentions_rqlint(self):
        assert ".rqlint" in run_shell(".help\n")

    def test_explain_shows_semantic_summary(self):
        output = run_shell(
            "CREATE TABLE t (a INTEGER);\n"
            "EXPLAIN SELECT COUNT(*) AS n FROM t WHERE a > 1;\n",
        )
        assert "SCAN t" in output
        assert "SEMANTIC: reads t(a)" in output
        assert "SEMANTIC: merge class monoid" in output


class TestMainScriptMode:
    def test_script_file(self, tmp_path):
        script = tmp_path / "run.sql"
        script.write_text(
            "CREATE TABLE t (a INTEGER);\n"
            "INSERT INTO t VALUES (42);\n"
            "SELECT a FROM t;\n"
        )
        import contextlib
        import io as _io

        buffer = _io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main([str(script)])
        assert code == 0
        assert "42" in buffer.getvalue()

    def test_workers_flag(self, tmp_path):
        script = tmp_path / "run.sql"
        script.write_text("SELECT rql_workers() AS w;\n")
        import contextlib
        import io as _io

        buffer = _io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert main(["--workers", "4", str(script)]) == 0
        assert "4" in buffer.getvalue()
        buffer = _io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert main(["--workers=3", str(script)]) == 0
        assert "3" in buffer.getvalue()

    def test_workers_flag_rejects_bad_counts(self, capsys):
        assert main(["--workers", "0"]) == 2
        assert main(["--workers", "many"]) == 2
        assert main(["--workers"]) == 2
        err = capsys.readouterr().err
        assert "must be >= 1" in err
        assert "not a number" in err
        assert "needs a value" in err

    def test_chaos_seed_flag_enables_injection(self, tmp_path):
        script = tmp_path / "run.sql"
        script.write_text(
            "CREATE TABLE t (a INTEGER);\n"
            ".chaos\n"
            ".chaos scrub\n"
        )
        import contextlib
        import io as _io

        buffer = _io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert main(["--chaos-seed", "7", str(script)]) == 0
        out = buffer.getvalue()
        assert "seed 7" in out
        assert "scrub: all archived pre-states verify" in out
        # Without the flag, injection is reported off.
        buffer = _io.StringIO()
        script.write_text(".chaos\n")
        with contextlib.redirect_stdout(buffer):
            assert main([str(script)]) == 0
        assert "off (run with --chaos-seed)" in buffer.getvalue()

    def test_dot_chaos_crash_then_recovery_report(self):
        from repro.core import RQLSession
        from repro.sql.database import Database
        from repro.storage.chaosdisk import ChaosDisk

        disk = ChaosDisk(4096, seed=3)
        aux = ChaosDisk(4096, controller=disk.chaos)
        out = io.StringIO()
        shell = Shell(session=RQLSession(
            db=Database(disk=disk, aux_disk=aux)), out=out)
        shell.run(io.StringIO(
            "CREATE TABLE t (a INTEGER);\n"
            ".chaos crash 2 tear\n"
            ".chaos\n"
            "INSERT INTO t VALUES (1);\n"
            "INSERT INTO t VALUES (2);\n"
        ))
        crashed = out.getvalue()
        assert "crash scheduled at write" in crashed
        assert "torn" in crashed
        assert "simulated power loss" in crashed  # surfaced as an error

        disk.power_on()
        out = io.StringIO()
        shell = Shell(session=RQLSession(
            db=Database(disk=disk, aux_disk=aux)), out=out)
        shell.run(io.StringIO(
            ".chaos\n"
            "SELECT COUNT(*) AS n FROM t;\n"
        ))
        recovered = out.getvalue()
        assert "injection:" in recovered
        assert "recovery:" in recovered
        assert "n" in recovered  # the store is queryable after recovery

    def test_dot_chaos_crash_requires_injection(self):
        output = run_shell(".chaos crash 5\n")
        assert "needs --chaos-seed" in output
        output = run_shell(".chaos bogus\n")
        assert "unknown subcommand" in output
