"""Golden rqlint corpus: mechanism invocations with certified verdicts.

Every entry pairs one RQL mechanism invocation (Qs, Qq, argument) with
the merge class and RQL1NN rules rqlint must assign it.  The corpus
serves three consumers:

* the golden-verdict tests (``tests/analysis/test_rqlint_corpus.py``)
  certify each entry against :data:`CORPUS_SCHEMA` and compare;
* the differential gate (``tests/core/test_parallel_certificates.py``)
  *runs* every ``runnable`` entry serially and at ``workers=4`` and
  asserts byte-identical results for mergeable verdicts — a false
  "mergeable" verdict fails there, not in review;
* ``repro.cli lint --queries`` includes the corpus in every run, so a
  rule regression shows up in CI output immediately.

Entries deliberately reuse the paper's workloads: TPC-H Q1/Q3/Q6 shapes
(:mod:`repro.workloads.tpch.queries`) and the LoggedIn running example
(:mod:`repro.workloads.loggedin`).  Aggregated values are integer-valued
on purpose — float addition is non-associative, and the differential
gate demands *byte* equality between serial and partitioned merges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.mechanisms import resolve
from repro.workloads.loggedin import LOGGEDIN_DDL
from repro.workloads.tpch.schema import ALL_DDL

#: SnapIds lives in the aux engine at runtime; the static corpus schema
#: only needs its shape (see :mod:`repro.core.snapids`).
SNAPIDS_DDL = ("CREATE TABLE SnapIds (snap_id INTEGER PRIMARY KEY, "
               "snap_ts TEXT, snap_name TEXT)")

#: Qs over the first 8 snapshots of the TPC-H history fixture.
QS_TPCH = ("SELECT snap_id FROM SnapIds "
           "WHERE snap_id BETWEEN 1 AND 8 ORDER BY snap_id")
#: Qs over the paper's three LoggedIn snapshots.
QS_PAPER = ("SELECT snap_id FROM SnapIds "
            "WHERE snap_id >= 1 AND snap_id <= 3 ORDER BY snap_id")


@dataclass(frozen=True)
class CorpusEntry:
    """One mechanism invocation with its certified golden verdict."""

    name: str
    workload: str        #: "tpch" or "loggedin" (which fixture runs it)
    mechanism: str
    qs: str
    qq: str
    expected_class: str
    expected_rules: Tuple[str, ...] = ()
    arg: object = None   #: agg_func string or col/func pair list
    runnable: bool = True  #: include in the differential gate


CORPUS: Tuple[CorpusEntry, ...] = (
    # -- TPC-H: mergeable ---------------------------------------------------
    CorpusEntry(
        name="tpch-q6-revenue-history",
        workload="tpch",
        mechanism="CollateData",
        qs=QS_TPCH,
        qq="SELECT current_snapshot() AS sid, "
           "SUM(l_extendedprice * l_discount) AS revenue "
           "FROM lineitem WHERE l_quantity < 24",
        expected_class="concat",
        expected_rules=("RQL104",),  # no index leads with l_quantity
    ),
    CorpusEntry(
        name="tpch-q6-quantity-total",
        workload="tpch",
        mechanism="AggregateDataInVariable",
        qs=QS_TPCH,
        qq="SELECT SUM(l_quantity) AS qty FROM lineitem "
           "WHERE l_quantity < 24",
        arg="sum",
        expected_class="monoid",
        expected_rules=("RQL104",),
    ),
    CorpusEntry(
        name="tpch-q1-pricing-summary",
        workload="tpch",
        mechanism="AggregateDataInTable",
        qs=QS_TPCH,
        qq="SELECT l_returnflag, l_linestatus, "
           "SUM(l_quantity) AS sum_qty, COUNT(*) AS count_order "
           "FROM lineitem GROUP BY l_returnflag, l_linestatus",
        arg=[("sum_qty", "sum"), ("count_order", "count")],
        expected_class="stored-row",
    ),
    CorpusEntry(
        name="tpch-q3-shipping-priority",
        workload="tpch",
        mechanism="CollateData",
        qs=QS_TPCH,
        qq="SELECT o.o_orderkey, "
           "SUM(l.l_extendedprice * (1 - l.l_discount)) AS revenue "
           "FROM customer c, orders o, lineitem l "
           "WHERE c.c_mktsegment = 'BUILDING' "
           "AND c.c_custkey = o.o_custkey "
           "AND l.l_orderkey = o.o_orderkey "
           "GROUP BY o.o_orderkey ORDER BY revenue DESC LIMIT 10",
        expected_class="concat",
        # c_mktsegment has no leading index; ORDER BY/LIMIT are
        # per-snapshot inside a concat merge.
        expected_rules=("RQL104", "RQL105"),
    ),
    # -- TPC-H: serial-only -------------------------------------------------
    CorpusEntry(
        name="tpch-serial-median",
        workload="tpch",
        mechanism="AggregateDataInVariable",
        qs=QS_TPCH,
        qq="SELECT COUNT(*) AS n FROM orders",
        arg="median",
        expected_class="serial-only",
        expected_rules=("RQL101",),
    ),
    CorpusEntry(
        name="tpch-serial-group-concat-pairs",
        workload="tpch",
        mechanism="AggregateDataInTable",
        qs=QS_TPCH,
        qq="SELECT l_linestatus, GROUP_CONCAT(l_returnflag) AS flags "
           "FROM lineitem GROUP BY l_linestatus",
        arg=[("flags", "group_concat")],
        expected_class="serial-only",
        expected_rules=("RQL102",),
    ),
    # -- LoggedIn (paper Figures 1-3): mergeable ----------------------------
    CorpusEntry(
        name="loggedin-user-history",
        workload="loggedin",
        mechanism="CollateData",
        qs=QS_PAPER,
        qq="SELECT DISTINCT l_userid, current_snapshot() FROM LoggedIn",
        expected_class="concat",
    ),
    CorpusEntry(
        name="loggedin-session-intervals",
        workload="loggedin",
        mechanism="CollateDataIntoIntervals",
        qs=QS_PAPER,
        qq="SELECT DISTINCT l_userid FROM LoggedIn",
        expected_class="interval-stitch",
    ),
    CorpusEntry(
        name="loggedin-peak-users",
        workload="loggedin",
        mechanism="AggregateDataInVariable",
        qs=QS_PAPER,
        qq="SELECT COUNT(*) AS online FROM LoggedIn",
        arg="max",
        expected_class="monoid",
    ),
    CorpusEntry(
        name="loggedin-avg-online",
        workload="loggedin",
        mechanism="AggregateDataInVariable",
        qs=QS_PAPER,
        qq="SELECT COUNT(*) AS online FROM LoggedIn",
        arg="avg",
        expected_class="monoid",
    ),
    CorpusEntry(
        name="loggedin-country-counts",
        workload="loggedin",
        mechanism="AggregateDataInTable",
        qs=QS_PAPER,
        qq="SELECT l_country, COUNT(*) AS online FROM LoggedIn "
           "GROUP BY l_country",
        arg=[("online", "sum")],
        expected_class="stored-row",
    ),
    # -- LoggedIn: warnings that stay mergeable -----------------------------
    CorpusEntry(
        name="loggedin-unbounded-history",
        workload="loggedin",
        mechanism="CollateData",
        qs="SELECT snap_id FROM SnapIds ORDER BY snap_id",
        qq="SELECT DISTINCT l_userid, current_snapshot() FROM LoggedIn",
        expected_class="concat",
        expected_rules=("RQL103",),
    ),
    CorpusEntry(
        name="loggedin-empty-range",
        workload="loggedin",
        mechanism="CollateData",
        qs="SELECT snap_id FROM SnapIds "
           "WHERE snap_id > 3 AND snap_id < 2",
        qq="SELECT l_userid FROM LoggedIn",
        expected_class="concat",
        expected_rules=("RQL103",),
    ),
    CorpusEntry(
        name="loggedin-ordered-roster",
        workload="loggedin",
        mechanism="CollateData",
        qs=QS_PAPER,
        qq="SELECT l_userid FROM LoggedIn ORDER BY l_userid",
        expected_class="concat",
        expected_rules=("RQL105",),
    ),
    # -- LoggedIn: serial-only / hygiene ------------------------------------
    CorpusEntry(
        name="loggedin-workers-knob",
        workload="loggedin",
        mechanism="CollateData",
        qs=QS_PAPER,
        qq="SELECT l_userid, rql_workers() FROM LoggedIn",
        expected_class="serial-only",
        expected_rules=("RQL106",),
    ),
    CorpusEntry(
        name="loggedin-asof-qq",
        workload="loggedin",
        mechanism="CollateData",
        qs=QS_PAPER,
        qq="SELECT AS OF 2 l_userid FROM LoggedIn",
        expected_class="concat",
        expected_rules=("RQL100",),
        runnable=False,  # the rewriter owns AS OF; hygiene error only
    ),
)


def corpus_schema():
    """A :class:`~repro.sql.semantic.StaticSchema` covering the corpus.

    TPC-H + LoggedIn + SnapIds DDL, plus the session-registered
    functions a live :class:`~repro.sql.semantic.CatalogSchema` would
    know about.
    """
    from repro.sql.semantic import StaticSchema

    schema = StaticSchema()
    for _name, ddl in ALL_DDL:
        schema.add_ddl(ddl)
    schema.add_ddl(LOGGEDIN_DDL)
    schema.add_ddl(SNAPIDS_DDL)
    for name in ("current_snapshot", "snapshot_id", "rql_workers"):
        schema.add_function(name)
    return schema


def certify_entry(entry: CorpusEntry, schema=None):
    """Certify one corpus entry (against :func:`corpus_schema` by default)."""
    from repro.analysis.query.mergeclass import certify_mechanism

    return certify_mechanism(
        entry.mechanism, entry.qs, entry.qq, arg=entry.arg,
        schema=schema if schema is not None else corpus_schema(),
        file=f"<corpus:{entry.name}>", symbol=entry.name,
    )


def run_entry(session, entry: CorpusEntry, table: str,
              workers: Optional[int] = None):
    """Execute one corpus entry through the session mechanism API."""
    mechanism = resolve(entry.mechanism)
    args = (entry.arg,) if mechanism.takes_arg else ()
    return getattr(session, mechanism.method)(
        entry.qs, entry.qq, table, *args, workers=workers)
