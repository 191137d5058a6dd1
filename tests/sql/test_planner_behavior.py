"""Planner behaviour: pushdown, join ordering, auto-index correctness."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LexerError, ParseError, SqlError
from repro.sql.database import Database
from repro.sql.parser import parse_sql


@pytest.fixture
def joined(db):
    db.execute("CREATE TABLE big (k INTEGER PRIMARY KEY, fk INTEGER, "
               "payload TEXT)")
    db.execute("CREATE TABLE small (id INTEGER, tag TEXT)")
    db.execute("INSERT INTO big VALUES " + ", ".join(
        f"({i}, {i % 10}, 'p{i}')" for i in range(200)
    ))
    db.execute("INSERT INTO small VALUES " + ", ".join(
        f"({i}, 't{i}')" for i in range(10)
    ))
    return db


class TestJoinCorrectness:
    def test_join_result_invariant_to_table_order(self, joined):
        left = joined.execute(
            "SELECT COUNT(*) FROM big b, small s WHERE b.fk = s.id"
        ).scalar()
        right = joined.execute(
            "SELECT COUNT(*) FROM small s, big b WHERE s.id = b.fk"
        ).scalar()
        assert left == right == 200

    def test_pushdown_filters_before_join(self, joined):
        result = joined.execute(
            "SELECT COUNT(*) FROM big b, small s "
            "WHERE b.fk = s.id AND s.tag = 't3'"
        )
        assert result.scalar() == 20

    def test_filter_on_both_sides(self, joined):
        result = joined.execute(
            "SELECT COUNT(*) FROM big b, small s "
            "WHERE b.fk = s.id AND s.tag = 't3' AND b.k < 100"
        )
        assert result.scalar() == 10

    def test_join_condition_in_on_vs_where(self, joined):
        on_form = joined.execute(
            "SELECT COUNT(*) FROM big JOIN small ON big.fk = small.id"
        ).scalar()
        where_form = joined.execute(
            "SELECT COUNT(*) FROM big, small WHERE big.fk = small.id"
        ).scalar()
        assert on_form == where_form

    def test_non_equi_join_falls_back_to_filter(self, joined):
        result = joined.execute(
            "SELECT COUNT(*) FROM small a, small b WHERE a.id < b.id"
        )
        assert result.scalar() == 45

    def test_join_with_expression_key(self, joined):
        result = joined.execute(
            "SELECT COUNT(*) FROM big b, small s WHERE b.fk + 0 = s.id"
        )
        assert result.scalar() == 200

    def test_self_join_with_aliases(self, joined):
        result = joined.execute(
            "SELECT COUNT(*) FROM small a, small b WHERE a.id = b.id"
        )
        assert result.scalar() == 10


class TestIndexVsScanEquivalence:
    """Every predicate must return identical rows with and without an
    index — the index path is an optimization, never a semantic change."""

    @pytest.mark.parametrize("predicate", [
        "k = 42", "k < 10", "k >= 190", "k BETWEEN 50 AND 60",
        "k = -1", "k > 1000",
    ])
    def test_pk_paths(self, joined, predicate):
        with_index = joined.execute(
            f"SELECT k FROM big WHERE {predicate} ORDER BY k").rows
        # Same predicate forced through a scan by wrapping the column.
        forced_scan = joined.execute(
            f"SELECT k FROM big WHERE (k + 0) "
            f"{predicate[1:] if predicate.startswith('k') else predicate}"
            " ORDER BY k"
        ).rows
        assert with_index == forced_scan


class TestParserRobustness:
    printable = st.text(
        alphabet=st.characters(min_codepoint=32, max_codepoint=126),
        max_size=60,
    )

    @settings(max_examples=200, deadline=None)
    @given(printable)
    def test_parser_never_crashes(self, text):
        """Arbitrary input either parses or raises a SQL error — never
        an unexpected exception type."""
        try:
            parse_sql(text)
        except (ParseError, LexerError):
            pass

    @settings(max_examples=100, deadline=None)
    @given(printable)
    def test_execute_never_corrupts(self, text):
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        try:
            db.execute(text)
        except SqlError:
            pass
        except Exception as exc:  # engine errors are fine; crashes not
            from repro.errors import ReproError

            assert isinstance(exc, ReproError), type(exc)
        # The database stays usable regardless.
        assert db.execute("SELECT COUNT(*) FROM t").scalar() >= 0


class TestConstantFoldingSeesFunctions:
    """Constants compared against a column fold with the statement's
    function registry, so a function call on the constant side plans
    (through an index when one leads with the column) and returns the
    rows stdlib sqlite3 returns on the same data."""

    ROWS = [(i, i % 3, f"t{i}") for i in range(1, 9)]

    @pytest.fixture
    def pair(self):
        import sqlite3

        ours = Database()
        oracle = sqlite3.connect(":memory:")
        ddl = "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER, tag TEXT)"
        ours.execute(ddl)
        oracle.execute(ddl)
        for row in self.ROWS:
            insert = f"INSERT INTO t VALUES ({row[0]}, {row[1]}, '{row[2]}')"
            ours.execute(insert)
            oracle.execute(insert)
        yield ours, oracle
        oracle.close()

    @pytest.mark.parametrize("analyze", [False, True],
                             ids=["heuristic", "costed"])
    @pytest.mark.parametrize("where", [
        "v = abs(-2)",
        "id >= length('ab')",
        "abs(-3) = id",
        "id BETWEEN length('ab') AND abs(-5)",
        "id < length(NULL)",
        "id IN (abs(-1), length('abc'))",
    ])
    def test_select_matches_sqlite(self, pair, where, analyze):
        ours, oracle = pair
        if analyze:
            ours.execute("ANALYZE t")
        sql = f"SELECT * FROM t WHERE {where} ORDER BY id"
        assert ours.execute(sql).rows == oracle.execute(sql).fetchall()

    def test_delete_matches_sqlite(self, pair):
        ours, oracle = pair
        ours.execute("DELETE FROM t WHERE id = abs(-3)")
        oracle.execute("DELETE FROM t WHERE id = abs(-3)")
        sql = "SELECT * FROM t ORDER BY id"
        assert ours.execute(sql).rows == oracle.execute(sql).fetchall()
        assert len(ours.execute(sql).rows) == len(self.ROWS) - 1

    def test_folded_range_still_uses_the_index(self, pair):
        ours, _ = pair
        plan = [row[0] for row in ours.execute(
            "EXPLAIN SELECT * FROM t WHERE id >= length('ab')").rows]
        assert any("USING INDEX" in line and "(range)" in line
                   for line in plan), plan

    @pytest.mark.parametrize("workers", [1, 2])
    def test_named_snapshot_qs_runs_a_mechanism(self, workers):
        from repro.core import RQLSession

        session = RQLSession()
        session.execute("CREATE TABLE t (a INTEGER)")
        for n in range(4):
            session.execute(f"INSERT INTO t VALUES ({n})")
            session.declare_snapshot(name=f"s{n + 1}")
        qs = ("SELECT snap_id FROM SnapIds "
              "WHERE snap_id >= snapshot_id('s2') ORDER BY snap_id")
        assert [r[0] for r in session.execute(qs).rows] == [2, 3, 4]
        plan = [row[0] for row in session.execute("EXPLAIN " + qs).rows]
        assert any("USING INDEX" in line for line in plan), plan
        result = session.collate_data(
            qs, "SELECT a, current_snapshot() FROM t", "R", workers=workers)
        assert result.snapshots == [2, 3, 4]
        assert session.execute("SELECT COUNT(*) FROM R").scalar() == 2 + 3 + 4
