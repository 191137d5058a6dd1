"""Query planning and SELECT execution.

Planning is split into a **pure planner** and an **executor**:

* :func:`plan_from` turns catalog facts (:class:`TableDesc`), the WHERE
  conjuncts and a statistics lookup into an explicit :class:`SelectPlan`
  tree of :class:`PlanNode` steps.  With no statistics it reproduces the
  original fixed heuristics exactly (first matching equality index, then
  range index, then scan; first equi-joinable table, native index
  preferred).  Once ``ANALYZE`` has gathered statistics the planner
  costs every candidate access path — sequential page fetches vs index
  probe plus matched-row fetches — and keeps the cheapest, picking the
  outer table and join side by estimated filtered cardinality.
* ``_SelectPlanner`` executes a plan: single-table access picks the
  planned native index or a sequential scan; joins are left-deep nested
  loops where the inner side uses the planned native index or an
  **automatic covering index** (an ephemeral hash index) — SQLite's
  "automatic index" that Figure 9 of the paper shows dominating ad-hoc
  snapshot query cost.  Its build time is metered as
  ``index_creation_seconds``.  Predicate pushdown recorded in the plan
  filters each join prefix as early as possible, so per-snapshot ``Qs``
  iteration over a cold snapshot fetches only matching Pagelog pages.
* GROUP BY is a hash aggregate; DISTINCT a hash dedupe; ORDER BY a sort
  on mixed-type-safe keys.

The same pure planner serves three consumers: execution, ``EXPLAIN``
(:func:`explain_select` renders access, COST and SEMANTIC lines without
executing anything), and the static certification path
(:func:`plan_select_static` / :func:`render_plan`) that planlint and the
golden-plan corpus drive from catalog metadata alone.

The executor is source-agnostic: the execution context supplies page
sources, so the same plan runs on the current state, inside a write
transaction, or ``AS OF`` a Retro snapshot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import PlanError, ReproError
from repro.sql import ast
from repro.sql.executor import IndexAccess, ResultSet, Row, TableAccess
from repro.sql.expressions import (
    ExpressionCompiler,
    PostAggRef,
    Scope,
    conjuncts,
    contains_aggregate,
    walk,
)
from repro.sql.functions import BUILTIN_SCALARS, is_aggregate, make_aggregate
from repro.sql.stats import StatsProvider, TableStats
from repro.sql.types import SqlValue, is_true

# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------

#: fetching one Pagelog page during a sequential scan
SEQ_PAGE_COST = 1.0
#: descending an index to its first matching entry
INDEX_PROBE_COST = 1.0
#: fetching one matched row's page through an index
ROW_FETCH_COST = 1.0
#: evaluating predicates against one row
CPU_ROW_COST = 0.01


def _clamp01(value: float) -> float:
    return min(1.0, max(0.0, value))


def _fmt_num(value: Optional[float]) -> str:
    if value is None:
        return "?"
    return f"{value:g}"


@dataclass
class BoundTable:
    binding: str
    access: TableAccess
    indexes: List[IndexAccess]

    @property
    def column_names(self) -> List[str]:
        return self.access.info.column_names()


# ---------------------------------------------------------------------------
# Plan tree
# ---------------------------------------------------------------------------


@dataclass
class TableDesc:
    """Catalog facts the pure planner needs about one FROM table."""

    binding: str                               #: alias or table name
    table: str                                 #: underlying table name
    columns: List[str]
    indexes: List[Tuple[str, Tuple[str, ...]]]  #: (index name, columns)
    ordinal: int = 0                           #: position in the FROM list

    def scope(self) -> Scope:
        return Scope([(self.binding, c) for c in self.columns])


@dataclass
class AccessSpec:
    """How the outer table is read: scan, index equality or index range."""

    kind: str                        #: 'scan' | 'eq' | 'range'
    index: Optional[str] = None      #: index name for 'eq'/'range'
    column: Optional[str] = None     #: indexed column (lowered)
    pred: Optional[ast.Expr] = None  #: conjunct consumed by the index
    value: object = None             #: equality key
    lo: object = None                #: range bounds ([value] or None)
    hi: object = None
    lo_inc: bool = True
    hi_inc: bool = True


@dataclass
class JoinSpec:
    """How one more table joins onto the prefix rows."""

    kind: str                                  #: 'native' | 'auto' | 'cross'
    index: Optional[str] = None                #: native index name
    pred: Optional[ast.Expr] = None            #: equi-join conjunct consumed
    inner_col: Optional[ast.ColumnRef] = None  #: join column on this table
    outer_expr: Optional[ast.Expr] = None      #: key expr over the prefix


@dataclass
class PlanNode:
    """One step of a left-deep plan: access the outer table or join one
    more table, then apply the predicates pushed down to this prefix."""

    desc: TableDesc
    note: str                                   #: EXPLAIN access line
    access: Optional[AccessSpec] = None         #: set on the first step
    join: Optional[JoinSpec] = None             #: set on later steps
    pushed: List[ast.Expr] = field(default_factory=list)
    #: estimates are *raw* (unclamped): corrupt statistics surface as
    #: est_rows above the table cardinality, which RQL114 flags.
    est_rows: Optional[float] = None
    est_pages: Optional[int] = None
    selectivity: Optional[float] = None
    cost: Optional[float] = None
    seq_cost: Optional[float] = None
    costed: bool = False                        #: statistics were available
    chosen_by: str = "heuristic"                #: 'heuristic' | 'cost'
    path_desc: str = ""                         #: human access-path label


@dataclass
class SelectPlan:
    """An ordered plan tree plus the conjuncts no prefix could absorb."""

    steps: List[PlanNode]
    residual: List[ast.Expr] = field(default_factory=list)

    def access_notes(self) -> List[str]:
        return [step.note for step in self.steps]

    def cost_notes(self) -> List[str]:
        lines: List[str] = []
        for node in self.steps:
            binding = node.desc.binding
            if not node.costed:
                lines.append(
                    f"COST: {binding} no statistics "
                    f"(heuristic access path)"
                )
                continue
            lines.append(
                f"COST: {binding} est. rows {_fmt_num(node.est_rows)} "
                f"est. pages {node.est_pages} "
                f"cost {_fmt_num(node.cost)} via {node.path_desc}"
            )
        return lines


# ---------------------------------------------------------------------------
# The pure planner
# ---------------------------------------------------------------------------

StatsLookup = Callable[[str], Optional[TableStats]]
Functions = Dict[str, Callable[..., SqlValue]]


def plan_from(descs: List[TableDesc], predicates: List[ast.Expr],
              stats_for: StatsLookup, functions: Functions) -> SelectPlan:
    """Choose join order and access paths from catalog facts alone.

    ``functions`` is the statement's function registry: constants such
    as ``abs(-2)`` or ``snapshot_id('s1')`` are folded with it wherever
    an index key or a selectivity needs their value.

    Deterministic and side-effect free: the same descs, predicates and
    statistics always yield the same plan, which is what makes plans
    certifiable artifacts (the golden-plan corpus pins this function's
    output).  Without statistics the choices replicate the historical
    heuristics exactly, so un-ANALYZEd databases plan as before.
    """
    if not descs:
        return SelectPlan(steps=[], residual=list(predicates))
    seen: Dict[str, bool] = {}
    for desc in descs:
        key = desc.binding.lower()
        if key in seen:
            raise PlanError(f"duplicate table binding: {desc.binding}")
        seen[key] = True

    # Ambiguity must not depend on join order: an unqualified ref that
    # matches two FROM tables would silently bind to whichever table the
    # plan visits first (pushdown resolves against prefix scopes), so a
    # cost-driven reorder could change what the query *means*.  Reject
    # against the full scope before any ordering decision.
    full_scope = _desc_scope(descs)
    for pred in predicates:
        for node in walk(pred):
            if isinstance(node, ast.ColumnRef) \
                    and full_scope.is_ambiguous(node):
                raise PlanError(f"ambiguous column name: {node.name}")

    stats_by: Dict[int, Optional[TableStats]] = {
        desc.ordinal: stats_for(desc.table) for desc in descs
    }
    fully_costed = all(stats_by[d.ordinal] is not None for d in descs)
    remaining = list(predicates)
    pending = list(descs)

    def single_preds(desc: TableDesc) -> List[ast.Expr]:
        scope = desc.scope()
        return [p for p in remaining if _predicate_uses_only(p, scope)]

    # Outer table: with full statistics, the table with the smallest
    # estimated filtered cardinality (filter the selective side first);
    # otherwise the historical heuristic — the first table constrained
    # by a single-table predicate, else the first listed.
    if fully_costed and len(descs) > 1:
        outer = None
        outer_rows = 0.0
        for desc in pending:
            est = _filtered_row_estimate(
                stats_by[desc.ordinal], single_preds(desc), desc, functions,
            )
            if outer is None or est < outer_rows:
                outer, outer_rows = desc, est
    else:
        outer = next((d for d in pending if single_preds(d)), pending[0])
    pending.remove(outer)

    node, remaining = _plan_single_access(
        outer, remaining, stats_by[outer.ordinal], functions,
    )
    steps = [node]
    remaining = _settle_pushdown(steps, remaining, stats_by, functions)

    while pending:
        chosen = None
        chosen_join = None
        chosen_native: Optional[str] = None
        if fully_costed:
            best_cost = 0.0
            for desc in pending:
                join = _find_equi_join_desc(
                    [s.desc for s in steps], desc, remaining,
                )
                if join is None:
                    continue
                native = _desc_leading_index(desc, join[1].name)
                probe = _join_probe_cost(
                    stats_by[desc.ordinal], join[1].name, native is not None,
                )
                if chosen is None or probe < best_cost:
                    chosen, chosen_join = desc, join
                    chosen_native, best_cost = native, probe
        else:
            for desc in pending:
                join = _find_equi_join_desc(
                    [s.desc for s in steps], desc, remaining,
                )
                if join is not None:
                    native = _desc_leading_index(desc, join[1].name)
                    if chosen is None or (native is not None
                                          and chosen_native is None):
                        chosen, chosen_join = desc, join
                        chosen_native = native
        if chosen is None:
            chosen, chosen_join, chosen_native = pending[0], None, None
        pending.remove(chosen)
        node = _plan_join_node(
            chosen, chosen_join, chosen_native,
            stats_by[chosen.ordinal], fully_costed,
        )
        if chosen_join is not None:
            consumed = chosen_join[0]
            remaining = [p for p in remaining if p is not consumed]
        steps.append(node)
        remaining = _settle_pushdown(steps, remaining, stats_by, functions)

    return SelectPlan(steps=steps, residual=remaining)


def _settle_pushdown(steps: List[PlanNode], remaining: List[ast.Expr],
                     stats_by: Dict[int, Optional[TableStats]],
                     functions: Functions) -> List[ast.Expr]:
    """Assign every conjunct resolvable over the current prefix to the
    newest step (classic pushdown: filter before joining further), and
    refine that step's row estimate with the pushed selectivities."""
    scope = _desc_scope([step.desc for step in steps])
    applicable = [p for p in remaining if _predicate_uses_only(p, scope)]
    if not applicable:
        return remaining
    applicable_ids = {id(p) for p in applicable}
    node = steps[-1]
    node.pushed.extend(applicable)
    stats = stats_by.get(node.desc.ordinal)
    if stats is not None and node.est_rows is not None:
        own_scope = node.desc.scope()
        for pred in applicable:
            if _predicate_uses_only(pred, own_scope):
                node.est_rows *= _clamp01(
                    _pred_selectivity(stats, pred, node.desc, functions)
                )
    return [p for p in remaining if id(p) not in applicable_ids]


def _plan_single_access(desc: TableDesc, predicates: List[ast.Expr],
                        stats: Optional[TableStats], functions: Functions,
                        ) -> Tuple[PlanNode, List[ast.Expr]]:
    """Access path for the outer table: heuristic first-match without
    statistics, cheapest costed candidate with them."""
    scope = desc.scope()
    if stats is None:
        for pred in predicates:
            match = _desc_match_eq(pred, desc, scope, functions)
            if match is not None:
                spec = AccessSpec(kind="eq", index=match[0],
                                  column=match[1], pred=pred,
                                  value=match[2])
                node = _access_node(desc, spec, None)
                return node, [p for p in predicates if p is not pred]
        for pred in predicates:
            match = _desc_match_range(pred, desc, scope, functions)
            if match is not None:
                index, column, lo, hi, lo_inc, hi_inc = match
                spec = AccessSpec(kind="range", index=index, column=column,
                                  pred=pred, lo=lo, hi=hi,
                                  lo_inc=lo_inc, hi_inc=hi_inc)
                node = _access_node(desc, spec, None)
                return node, [p for p in predicates if p is not pred]
        node = _access_node(desc, AccessSpec(kind="scan"), None)
        return node, list(predicates)

    # Costed: enumerate every index candidate plus the sequential scan.
    best_spec = AccessSpec(kind="scan")
    best_cost, best_sel = _access_cost(best_spec, stats)
    for pred in predicates:
        match = _desc_match_eq(pred, desc, scope, functions)
        if match is None:
            continue
        spec = AccessSpec(kind="eq", index=match[0], column=match[1],
                          pred=pred, value=match[2])
        cost, sel = _access_cost(spec, stats)
        if cost < best_cost:
            best_spec, best_cost, best_sel = spec, cost, sel
    for pred in predicates:
        match = _desc_match_range(pred, desc, scope, functions)
        if match is None:
            continue
        index, column, lo, hi, lo_inc, hi_inc = match
        spec = AccessSpec(kind="range", index=index, column=column,
                          pred=pred, lo=lo, hi=hi,
                          lo_inc=lo_inc, hi_inc=hi_inc)
        cost, sel = _access_cost(spec, stats)
        if cost < best_cost:
            best_spec, best_cost, best_sel = spec, cost, sel
    node = _access_node(desc, best_spec, stats,
                        cost=best_cost, selectivity=best_sel)
    if best_spec.pred is not None:
        return node, [p for p in predicates if p is not best_spec.pred]
    return node, list(predicates)


def _access_node(desc: TableDesc, spec: AccessSpec,
                 stats: Optional[TableStats],
                 cost: Optional[float] = None,
                 selectivity: Optional[float] = None) -> PlanNode:
    if spec.kind == "eq":
        note = (f"SEARCH {desc.binding} USING INDEX "
                f"{spec.index} (=)")
        path = f"index {spec.index} (=)"
    elif spec.kind == "range":
        note = (f"SEARCH {desc.binding} USING INDEX "
                f"{spec.index} (range)")
        path = f"index {spec.index} (range)"
    else:
        note = f"SCAN {desc.binding}"
        path = "seq scan"
    node = PlanNode(desc=desc, note=note, access=spec, path_desc=path)
    if stats is None:
        return node
    node.costed = True
    node.chosen_by = "cost"
    node.selectivity = selectivity if selectivity is not None else 1.0
    node.est_rows = node.selectivity * stats.row_count
    pages = max(1, stats.page_count)
    node.seq_cost = pages * SEQ_PAGE_COST + stats.row_count * CPU_ROW_COST
    node.cost = cost if cost is not None else node.seq_cost
    if spec.kind == "scan":
        node.est_pages = pages
    else:
        node.est_pages = max(
            1, min(pages, round(_clamp01(node.selectivity) * pages)),
        )
    return node


def _access_cost(spec: AccessSpec,
                 stats: TableStats) -> Tuple[float, float]:
    """(cost, raw selectivity) of one access path under the model."""
    rows = stats.row_count
    pages = max(1, stats.page_count)
    if spec.kind == "scan":
        return pages * SEQ_PAGE_COST + rows * CPU_ROW_COST, 1.0
    if spec.kind == "eq":
        sel = stats.eq_selectivity(spec.column or "")
    else:
        lo = spec.lo[0] if spec.lo else None
        hi = spec.hi[0] if spec.hi else None
        sel = stats.range_selectivity(spec.column or "", lo, hi)
    matched = _clamp01(sel) * rows
    return (INDEX_PROBE_COST
            + matched * (ROW_FETCH_COST + CPU_ROW_COST)), sel


def _plan_join_node(desc: TableDesc, join, native: Optional[str],
                    stats: Optional[TableStats],
                    fully_costed: bool) -> PlanNode:
    if join is None:
        note = f"CROSS JOIN {desc.binding}"
        spec = JoinSpec(kind="cross")
        path = "cross join"
    else:
        pred, inner_col, outer_expr = join
        if native is not None:
            note = (f"SEARCH {desc.binding} USING INDEX "
                    f"{native} ({inner_col.name}=?)")
            spec = JoinSpec(kind="native", index=native, pred=pred,
                            inner_col=inner_col, outer_expr=outer_expr)
            path = f"index {native} join"
        else:
            note = (f"SEARCH {desc.binding} USING AUTOMATIC COVERING "
                    f"INDEX ({inner_col.name}=?)")
            spec = JoinSpec(kind="auto", pred=pred,
                            inner_col=inner_col, outer_expr=outer_expr)
            path = "automatic index join"
    node = PlanNode(desc=desc, note=note, join=spec, path_desc=path)
    if stats is None:
        return node
    node.costed = True
    node.chosen_by = "cost" if fully_costed else "heuristic"
    pages = max(1, stats.page_count)
    node.seq_cost = pages * SEQ_PAGE_COST + stats.row_count * CPU_ROW_COST
    if spec.kind == "cross":
        node.selectivity = 1.0
        node.est_rows = float(stats.row_count)
        node.est_pages = pages
        node.cost = node.seq_cost
    else:
        sel = stats.eq_selectivity(spec.inner_col.name)
        node.selectivity = sel
        node.est_rows = sel * stats.row_count
        node.est_pages = max(1, min(pages, round(_clamp01(sel) * pages)))
        node.cost = _join_probe_cost(stats, spec.inner_col.name,
                                     spec.kind == "native")
    return node


def _join_probe_cost(stats: Optional[TableStats], inner_col: str,
                     native: bool) -> float:
    """Per-probe cost of an inner join access, plus the one-off build
    cost of the automatic covering index when no native index fits."""
    if stats is None:
        return 0.0
    matched = _clamp01(stats.eq_selectivity(inner_col)) * stats.row_count
    cost = INDEX_PROBE_COST + matched * (ROW_FETCH_COST + CPU_ROW_COST)
    if not native:
        cost += (max(1, stats.page_count) * SEQ_PAGE_COST
                 + stats.row_count * CPU_ROW_COST)
    return cost


def _filtered_row_estimate(stats: Optional[TableStats],
                           preds: List[ast.Expr],
                           desc: TableDesc, functions: Functions) -> float:
    if stats is None:
        return 0.0
    estimate = float(stats.row_count)
    for pred in preds:
        estimate *= _clamp01(_pred_selectivity(stats, pred, desc, functions))
    return estimate


def _pred_selectivity(stats: TableStats, pred: ast.Expr,
                      desc: TableDesc, functions: Functions) -> float:
    """Raw selectivity estimate of one single-table conjunct."""
    if isinstance(pred, ast.BinaryOp) and pred.op == "=":
        for col_side, val_side in ((pred.left, pred.right),
                                   (pred.right, pred.left)):
            if isinstance(col_side, ast.ColumnRef) \
                    and _is_constant(val_side):
                return stats.eq_selectivity(col_side.name)
    if isinstance(pred, ast.BinaryOp) \
            and pred.op in ("<", "<=", ">", ">="):
        for col_side, val_side, op in (
                (pred.left, pred.right, pred.op),
                (pred.right, pred.left, _flip(pred.op))):
            if isinstance(col_side, ast.ColumnRef) \
                    and _is_constant(val_side):
                value = _constant_value(val_side, functions)
                if op in ("<", "<="):
                    return stats.range_selectivity(col_side.name,
                                                   None, value)
                return stats.range_selectivity(col_side.name, value, None)
    if isinstance(pred, ast.Between) and not pred.negated \
            and isinstance(pred.operand, ast.ColumnRef) \
            and _is_constant(pred.low) and _is_constant(pred.high):
        return stats.range_selectivity(
            pred.operand.name,
            _constant_value(pred.low, functions),
            _constant_value(pred.high, functions),
        )
    if isinstance(pred, ast.InList) and not pred.negated \
            and isinstance(pred.operand, ast.ColumnRef) \
            and all(_is_constant(item) for item in pred.items):
        values = {_constant_value(item, functions) for item in pred.items}
        return min(1.0, len(values)
                   * stats.eq_selectivity(pred.operand.name))
    return 0.5


def _desc_scope(descs: List[TableDesc]) -> Scope:
    bindings: List[Tuple[str, str]] = []
    for desc in descs:
        for column in desc.columns:
            bindings.append((desc.binding, column))
    return Scope(bindings)


def _desc_leading_index(desc: TableDesc, column: str) -> Optional[str]:
    lowered = column.lower()
    for name, cols in desc.indexes:
        if cols and cols[0].lower() == lowered:
            return name
    return None


def _desc_match_eq(pred: ast.Expr, desc: TableDesc, scope: Scope,
                   functions: Functions):
    """(index name, column, constant) for ``col = <constant>`` preds.

    The leading index is looked up before the constant is folded, so an
    unindexed column never evaluates its constant at plan time.  A NULL
    constant is no index key (a comparison against NULL is never true):
    it falls through to the scan filter, which evaluates it to empty.
    """
    if not (isinstance(pred, ast.BinaryOp) and pred.op == "="):
        return None
    for col_side, val_side in ((pred.left, pred.right),
                               (pred.right, pred.left)):
        if isinstance(col_side, ast.ColumnRef) \
                and scope.try_resolve(col_side) is not None \
                and _is_constant(val_side):
            index = _desc_leading_index(desc, col_side.name)
            if index is None:
                continue
            value = _constant_value(val_side, functions)
            if value is not None:
                return index, col_side.name.lower(), value
    return None


def _desc_match_range(pred: ast.Expr, desc: TableDesc, scope: Scope,
                      functions: Functions):
    """(index, column, lo, hi, lo_inc, hi_inc) for range predicates.

    Mirrors the historical matcher exactly, including the subtlety that
    a comparison whose column resolves but has no leading index rejects
    the *predicate* outright rather than trying the flipped side.  As in
    :func:`_desc_match_eq`, constants fold only once an index is found.
    """
    ops = ("<", "<=", ">", ">=")
    if isinstance(pred, ast.Between) and not pred.negated:
        col = pred.operand
        if isinstance(col, ast.ColumnRef) \
                and scope.try_resolve(col) is not None \
                and _is_constant(pred.low) and _is_constant(pred.high):
            index = _desc_leading_index(desc, col.name)
            if index is not None:
                low = _constant_value(pred.low, functions)
                high = _constant_value(pred.high, functions)
                if low is not None and high is not None:
                    return (index, col.name.lower(), [low], [high],
                            True, True)
        return None
    if not (isinstance(pred, ast.BinaryOp) and pred.op in ops):
        return None
    for col_side, val_side, op in (
            (pred.left, pred.right, pred.op),
            (pred.right, pred.left, _flip(pred.op))):
        if isinstance(col_side, ast.ColumnRef) \
                and scope.try_resolve(col_side) is not None \
                and _is_constant(val_side):
            index = _desc_leading_index(desc, col_side.name)
            if index is None:
                return None
            folded = _constant_value(val_side, functions)
            if folded is None:
                continue
            column = col_side.name.lower()
            value = [folded]
            if op == "<":
                return index, column, None, value, True, False
            if op == "<=":
                return index, column, None, value, True, True
            if op == ">":
                return index, column, value, None, False, True
            return index, column, value, None, True, True
    return None


def _find_equi_join_desc(prefix: List[TableDesc], desc: TableDesc,
                         predicates: List[ast.Expr]):
    """An equi-conjunct linking ``desc`` to the joined prefix.

    Returns (predicate, inner_column_ref, outer_expr) or None.
    """
    prefix_scope = _desc_scope(prefix)
    table_scope = desc.scope()
    for pred in predicates:
        if not (isinstance(pred, ast.BinaryOp) and pred.op == "="):
            continue
        for inner_side, outer_side in ((pred.left, pred.right),
                                       (pred.right, pred.left)):
            if not isinstance(inner_side, ast.ColumnRef):
                continue
            if table_scope.try_resolve(inner_side) is None:
                continue
            if not _predicate_uses_only(outer_side, prefix_scope):
                continue
            return pred, inner_side, outer_side
    return None


# ---------------------------------------------------------------------------
# Static planning (planlint / golden-plan corpus)
# ---------------------------------------------------------------------------

def plan_select_static(select: ast.Select, schema,
                       stats: StatsProvider) -> SelectPlan:
    """Plan a SELECT from catalog metadata alone — nothing executes.

    ``schema`` is a :class:`repro.sql.semantic.SchemaProvider`; ``stats``
    a :class:`StatsProvider` (:class:`repro.sql.stats.DeclaredStats` for
    planlint and the golden-plan corpus).
    """
    descs, predicates = _descs_from_schema(select, schema)
    return plan_from(descs, predicates, stats.table_stats, BUILTIN_SCALARS)


def render_plan(select: ast.Select, schema,
                stats: StatsProvider) -> List[str]:
    """The certifiable plan rendering: access + stage + COST lines.

    This is the text the golden-plan corpus pins and RQL110 diffs; it
    matches ``EXPLAIN SELECT`` output minus the SEMANTIC lines.
    """
    plan = plan_select_static(select, schema, stats)
    lines = plan.access_notes()
    if select.as_of is not None:
        lines.insert(0, "AS OF snapshot (Retro SPT + snapshot cache)")
    lines.extend(_stage_notes(select))
    lines.extend(plan.cost_notes())
    return lines


def _descs_from_schema(select: ast.Select, schema,
                       ) -> Tuple[List[TableDesc], List[ast.Expr]]:
    descs: List[TableDesc] = []
    filters: List[ast.Expr] = []

    def flatten(node) -> None:
        if node is None:
            return
        if isinstance(node, ast.Join):
            flatten(node.left)
            flatten(node.right)
            if node.condition is not None:
                filters.extend(conjuncts(node.condition))
            return
        if isinstance(node, ast.TableRef):
            columns = schema.table_columns(node.name)
            if columns is None:
                raise PlanError(f"no such table: {node.name}")
            descs.append(TableDesc(
                binding=node.binding,
                table=node.name,
                columns=[name for name, _type in columns],
                indexes=[(name, tuple(cols))
                         for name, cols in schema.table_indexes(node.name)],
                ordinal=len(descs),
            ))
            return
        raise PlanError(f"unsupported FROM node {type(node).__name__}")

    flatten(select.source)
    predicates = conjuncts(select.where) + filters
    return descs, predicates


# ---------------------------------------------------------------------------
# Execution context
# ---------------------------------------------------------------------------

class ExecutionContext:
    """What the planner needs from the database layer, per statement."""

    def open_table(self, name: str) -> TableAccess:
        raise NotImplementedError

    def open_indexes(self, table: TableAccess) -> List[IndexAccess]:
        raise NotImplementedError

    @property
    def functions(self) -> Dict[str, Callable[..., SqlValue]]:
        raise NotImplementedError

    def table_stats(self, name: str) -> Optional[TableStats]:
        """ANALYZE statistics for ``name``, or None (heuristic plans).

        The database context reads ``__rql_stats`` honoring the
        statement's ``AS OF`` pin; bare contexts plan heuristically.
        """
        return None

    def note_index_creation(self, seconds: float) -> None:
        """Report ephemeral (automatic) index build time."""

    def note_query_eval(self, seconds: float) -> None:
        """Report query evaluation time (excl. auto-index builds)."""

    @property
    def clock(self) -> Callable[[], float]:
        """Monotonic clock for planner timings.

        Contexts carrying a metrics sink return the sink's injectable
        clock, so every duration a query produces is deterministic
        under test.
        """
        return time.perf_counter


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run_select(select: ast.Select, ctx: ExecutionContext) -> ResultSet:
    """Plan and execute a SELECT, returning a materialized result."""
    clock = ctx.clock
    started = clock()
    planner = _SelectPlanner(select, ctx)
    result = planner.run()
    ctx.note_query_eval(clock() - started
                        - planner.index_build_seconds)
    return result


def explain_select(select: ast.Select, ctx: ExecutionContext) -> List[str]:
    """Access-path, COST and SEMANTIC lines for a SELECT, without
    executing it.

    Mirrors SQLite's EXPLAIN QUERY PLAN at a coarse grain: one line per
    table access (scan / index search / automatic covering index),
    pipeline stages (aggregate, distinct, sort, limit), then one COST
    line per plan step and the rqlint semantic summary.
    """
    planner = _SelectPlanner(select, ctx)
    # Building the pipeline records the notes; the generators are never
    # consumed, so nothing executes (auto-index builds happen lazily).
    planner.columns_and_rows()
    notes = list(planner.plan_notes)
    if select.as_of is not None:
        notes.insert(0, "AS OF snapshot (Retro SPT + snapshot cache)")
    notes.extend(_stage_notes(select))
    if planner.plan is not None:
        notes.extend(planner.plan.cost_notes())
    notes.extend(_semantic_notes(select, ctx))
    return notes


def _stage_notes(select: ast.Select) -> List[str]:
    """Pipeline-stage lines shared by EXPLAIN and the static rendering."""
    notes: List[str] = []
    if select.group_by or any(
            item.expr is not None and contains_aggregate(item.expr)
            for item in select.items if not item.is_star):
        notes.append("AGGREGATE (hash group-by)")
    if select.distinct:
        notes.append("DISTINCT (hash)")
    if select.order_by:
        notes.append("ORDER BY (sort)")
    if select.limit is not None or select.offset is not None:
        notes.append("LIMIT/OFFSET")
    return notes


def _semantic_notes(select: ast.Select, ctx: ExecutionContext) -> List[str]:
    """rqlint semantic summary lines appended to EXPLAIN output.

    Resolution is static (catalog metadata only, nothing executes).  A
    query the planner accepts but the resolver cannot summarize is not
    an EXPLAIN failure — the summary is simply omitted.
    """
    from repro.analysis.query.mergeclass import classify_select
    from repro.sql.semantic import ContextSchema, resolve_select
    try:
        summary = resolve_select(select, ContextSchema(ctx))
        merge_class, reason = classify_select(summary)
    except ReproError:
        return []
    notes: List[str] = []
    for table in summary.tables:
        columns = ", ".join(summary.read_columns.get(table, ()))
        notes.append(f"SEMANTIC: reads {table}({columns})")
    for predicate in summary.predicates:
        if not predicate.pushable:
            notes.append(f"SEMANTIC: join predicate {predicate.text}")
        elif predicate.indexed_by is not None:
            notes.append(f"SEMANTIC: pushdown {predicate.text} "
                         f"[index {predicate.indexed_by}]")
        elif predicate.index_candidate is not None:
            table, column = predicate.index_candidate
            notes.append(f"SEMANTIC: pushdown {predicate.text} "
                         f"[full scan; index candidate "
                         f"{table}({column})]")
        else:
            notes.append(f"SEMANTIC: pushdown {predicate.text}")
    notes.append(f"SEMANTIC: merge class {merge_class} ({reason})")
    return notes


def run_select_streaming(select: ast.Select, ctx: ExecutionContext,
                         on_row: Callable[[Sequence[SqlValue]], None]) -> List[str]:
    """Execute a SELECT, invoking ``on_row`` per row (UDF callback path).

    Returns the output column names.  This mirrors ``sqlite3_exec``'s
    row-callback protocol the RQL implementation builds on.
    """
    planner = _SelectPlanner(select, ctx)
    columns, rows = planner.columns_and_rows()
    for row in rows:
        on_row(row)
    return columns


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------

class _SelectPlanner:
    def __init__(self, select: ast.Select, ctx: ExecutionContext) -> None:
        self.select = select
        self.ctx = ctx
        #: the statement's function registry, for planning and compiling
        self.functions = ctx.functions
        self.index_build_seconds = 0.0
        #: human-readable access-path decisions (EXPLAIN output)
        self.plan_notes: List[str] = []
        #: the plan tree (None until FROM is planned; SELECT 1 has none)
        self.plan: Optional[SelectPlan] = None

    # -- public -----------------------------------------------------------

    def run(self) -> ResultSet:
        columns, rows = self.columns_and_rows()
        return ResultSet(columns, list(rows))

    def columns_and_rows(self) -> Tuple[List[str], Iterator[Row]]:
        select = self.select
        tables, join_filters = self._resolve_from(select.source)
        predicates = conjuncts(select.where) + join_filters

        if tables:
            ordered, source_rows, remaining = self._plan_access(
                tables, predicates,
            )
            scope = _scope_for(ordered)
        else:
            ordered = []
            source_rows = iter([()])
            remaining = predicates
            scope = Scope([])

        compiler = ExpressionCompiler(scope, self.functions)

        if remaining:
            filters = [compiler.compile(p) for p in remaining]
            source_rows = _filtered(source_rows, filters)

        items = self._expand_stars(select.items, scope)
        aggregated = bool(select.group_by) or any(
            item.expr is not None and contains_aggregate(item.expr)
            for item in items
        ) or (select.having is not None
              and contains_aggregate(select.having))

        if aggregated:
            columns, rows = self._run_aggregate(items, source_rows,
                                                scope, compiler)
        else:
            columns, rows = self._run_plain(items, source_rows, compiler)

        rows = self._apply_limit(rows)
        return columns, rows

    # -- FROM resolution -----------------------------------------------------------

    def _resolve_from(self, source) -> Tuple[List[BoundTable], List[ast.Expr]]:
        tables: List[BoundTable] = []
        filters: List[ast.Expr] = []
        self._flatten_from(source, tables, filters)
        seen: Dict[str, bool] = {}
        for table in tables:
            key = table.binding.lower()
            if key in seen:
                raise PlanError(f"duplicate table binding: {table.binding}")
            seen[key] = True
        return tables, filters

    def _flatten_from(self, node, tables: List[BoundTable],
                      filters: List[ast.Expr]) -> None:
        if node is None:
            return
        if isinstance(node, ast.Join):
            self._flatten_from(node.left, tables, filters)
            self._flatten_from(node.right, tables, filters)
            if node.condition is not None:
                filters.extend(conjuncts(node.condition))
            return
        if isinstance(node, ast.TableRef):
            access = self.ctx.open_table(node.name)
            indexes = self.ctx.open_indexes(access)
            tables.append(BoundTable(
                binding=node.binding, access=access, indexes=indexes,
            ))
            return
        raise PlanError(f"unsupported FROM node {type(node).__name__}")

    # -- plan execution -----------------------------------------------------------

    def _plan_access(self, tables: List[BoundTable],
                     predicates: List[ast.Expr]):
        """Plan the FROM clause, then execute the plan steps.

        Returns (ordered_tables, row_iterator, residual_predicates);
        rows are concatenations of the ordered tables' columns.
        """
        descs = [
            TableDesc(
                binding=table.binding,
                table=table.access.info.name,
                columns=list(table.column_names),
                indexes=[(ix.info.name, tuple(ix.info.columns))
                         for ix in table.indexes],
                ordinal=position,
            )
            for position, table in enumerate(tables)
        ]
        plan = plan_from(descs, predicates, self.ctx.table_stats,
                         self.functions)
        self.plan = plan

        ordered: List[BoundTable] = []
        first_step = plan.steps[0]
        bound = tables[first_step.desc.ordinal]
        self.plan_notes.append(first_step.note)
        rows = self._exec_access(bound, first_step.access)
        ordered.append(bound)
        rows = self._apply_pushed(ordered, rows, first_step.pushed)

        for step in plan.steps[1:]:
            bound = tables[step.desc.ordinal]
            self.plan_notes.append(step.note)
            rows = self._exec_join(ordered, bound, step.join, rows)
            ordered.append(bound)
            rows = self._apply_pushed(ordered, rows, step.pushed)
        return ordered, rows, list(plan.residual)

    def _apply_pushed(self, ordered: List[BoundTable], rows,
                      pushed: List[ast.Expr]):
        """Filter with the predicates the plan pushed down to this
        prefix (filter before joining further)."""
        if not pushed:
            return rows
        scope = _scope_for(ordered)
        compiler = ExpressionCompiler(scope, self.functions)
        filters = [compiler.compile(p) for p in pushed]
        return _filtered(rows, filters)

    def _index_named(self, table: BoundTable, name: str) -> IndexAccess:
        for index in table.indexes:
            if index.info.name == name:
                return index
        raise PlanError(f"planned index vanished: {name}")

    def _exec_access(self, table: BoundTable, spec: Optional[AccessSpec]):
        """Row generator for the planned outer-table access path."""
        if spec is None or spec.kind == "scan":
            return (row for _, row in table.access.scan())
        if spec.kind == "eq":
            index = self._index_named(table, spec.index)

            def rows_eq(index=index, value=spec.value):
                for rowid in index.lookup_equal([value]):
                    row = table.access.get(rowid)
                    if row is not None:
                        yield row
            return rows_eq()
        index = self._index_named(table, spec.index)

        def rows_range(index=index, lo=spec.lo, hi=spec.hi,
                       lo_inc=spec.lo_inc, hi_inc=spec.hi_inc):
            for rowid in index.lookup_range(
                    lo, hi, lo_inclusive=lo_inc,
                    hi_inclusive=hi_inc):
                row = table.access.get(rowid)
                if row is not None:
                    yield row
        return rows_range()

    def _exec_join(self, prefix: List[BoundTable], table: BoundTable,
                   spec: Optional[JoinSpec], prefix_rows):
        """Join one more table onto the prefix rows per the plan."""
        if spec is None or spec.kind == "cross":
            # Cross join; predicates filter afterwards.
            def cross():
                inner_rows = [row for _, row in table.access.scan()]
                for left in prefix_rows:
                    for right in inner_rows:
                        yield left + right
            return cross()

        prefix_scope = _scope_for(prefix)
        outer_eval = ExpressionCompiler(
            prefix_scope, self.functions,
        ).compile(spec.outer_expr)

        if spec.kind == "native":
            native = self._index_named(table, spec.index)

            def indexed():
                for left in prefix_rows:
                    key = outer_eval(left)
                    if key is None:
                        continue
                    for rowid in native.lookup_equal([key]):
                        row = table.access.get(rowid)
                        if row is not None:
                            yield left + row
            return indexed()

        # Automatic (ephemeral covering) index on the inner join column —
        # a real B+tree, as SQLite builds, so its creation cost carries
        # the realistic serialization work (Figure 9's dominant cost).
        from repro.sql.executor import EphemeralIndex

        column_pos = table.access.info.column_index(spec.inner_col.name)

        def auto_indexed():
            clock = self.ctx.clock
            started = clock()
            auto_index = EphemeralIndex()
            for _, row in table.access.scan():
                auto_index.add(row[column_pos], row)
            elapsed = clock() - started
            self.index_build_seconds += elapsed
            self.ctx.note_index_creation(elapsed)
            for left in prefix_rows:
                key = outer_eval(left)
                if key is None:
                    continue
                for row in auto_index.lookup(key):
                    yield left + row
        return auto_indexed()

    # -- star expansion ------------------------------------------------------------

    def _expand_stars(self, items: List[ast.SelectItem],
                      scope: Scope) -> List[ast.SelectItem]:
        out: List[ast.SelectItem] = []
        for item in items:
            if not item.is_star:
                out.append(item)
                continue
            if item.star_table is not None:
                positions = scope.positions_for_binding(item.star_table)
                if not positions:
                    raise PlanError(f"no such table: {item.star_table}")
            else:
                positions = list(range(len(scope)))
            for pos in positions:
                binding, column = scope.bindings[pos]
                out.append(ast.SelectItem(
                    expr=ast.ColumnRef(table=binding, name=column),
                    alias=column,
                ))
        if not out:
            raise PlanError("SELECT list is empty after star expansion")
        return out

    # -- plain (non-aggregate) pipeline ------------------------------------------------

    def _run_plain(self, items: List[ast.SelectItem], source_rows,
                   compiler: ExpressionCompiler):
        select = self.select
        evaluators = [compiler.compile(item.expr) for item in items]
        columns = [_column_name(item, i) for i, item in enumerate(items)]

        order_evals = self._order_evaluators(items, compiler)

        def produce() -> Iterator[Row]:
            if order_evals is None:
                if select.distinct:
                    seen = set()
                    for src in source_rows:
                        row = tuple(e(src) for e in evaluators)
                        if row in seen:
                            continue
                        seen.add(row)
                        yield row
                else:
                    for src in source_rows:
                        yield tuple(e(src) for e in evaluators)
                return
            keyed: List[Tuple[tuple, Row]] = []
            seen = set()
            for src in source_rows:
                row = tuple(e(src) for e in evaluators)
                if select.distinct:
                    if row in seen:
                        continue
                    seen.add(row)
                keys = tuple(e(src) for e, _ in order_evals)
                keyed.append((keys, row))
            yield from _sorted_rows(keyed, order_evals)
        return columns, produce()

    def _order_evaluators(self, items: List[ast.SelectItem],
                          compiler: ExpressionCompiler):
        """Compile ORDER BY items (against the same scope as ``compiler``).

        Returns a list of (evaluator, descending) or None when no ORDER
        BY.  Aliases and 1-based positions resolve to select item exprs.
        """
        select = self.select
        if not select.order_by:
            return None
        out = []
        for order in select.order_by:
            expr = self._resolve_order_expr(order.expr, items)
            out.append((compiler.compile(expr), order.descending))
        return out

    def _resolve_order_expr(self, expr: ast.Expr,
                            items: List[ast.SelectItem]) -> ast.Expr:
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            position = expr.value
            if not 1 <= position <= len(items):
                raise PlanError(f"ORDER BY position {position} out of range")
            return items[position - 1].expr  # type: ignore[return-value]
        if isinstance(expr, ast.ColumnRef) and expr.table is None:
            for item in items:
                if item.alias and item.alias.lower() == expr.name.lower():
                    return item.expr  # type: ignore[return-value]
        return expr

    # -- aggregate pipeline -----------------------------------------------------------

    def _run_aggregate(self, items: List[ast.SelectItem], source_rows,
                       scope: Scope, compiler: ExpressionCompiler):
        select = self.select
        group_exprs = list(select.group_by)
        # Collect aggregate calls from every post-aggregation expression.
        agg_calls: List[ast.FunctionCall] = []

        def collect(expr: Optional[ast.Expr]) -> None:
            if expr is None:
                return
            for node in walk(expr):
                if isinstance(node, ast.FunctionCall) \
                        and node.is_aggregate_name() \
                        and node not in agg_calls:
                    agg_calls.append(node)

        having = select.having
        if having is not None:
            # HAVING may reference select-list aliases (SQLite allows it).
            having = _resolve_alias_refs(having, items)

        for item in items:
            collect(item.expr)
        collect(having)
        for order in select.order_by:
            collect(_resolve_alias_refs(order.expr, items))

        for call in agg_calls:
            if not is_aggregate(call.name):
                raise PlanError(f"no such aggregate: {call.name}")

        group_evals = [compiler.compile(g) for g in group_exprs]
        agg_arg_evals = []
        for call in agg_calls:
            if call.star:
                agg_arg_evals.append(lambda row: 1)
            elif len(call.args) == 1:
                agg_arg_evals.append(compiler.compile(call.args[0]))
            else:
                raise PlanError(
                    f"aggregate {call.name}() takes exactly one argument"
                )

        # Substitution mapping into the aggregated row:
        # positions [0, len(group)) are group keys, then aggregates.
        mapping: List[Tuple[ast.Expr, PostAggRef]] = []
        for i, g in enumerate(group_exprs):
            display = g.name if isinstance(g, ast.ColumnRef) else ""
            mapping.append((g, PostAggRef(i, display)))
        for j, call in enumerate(agg_calls):
            display = f"{call.name.upper()}(*)" if call.star \
                else f"{call.name.upper()}()"
            mapping.append((call, PostAggRef(len(group_exprs) + j, display)))

        post_items = [
            ast.SelectItem(expr=_substitute(item.expr, mapping),
                           alias=item.alias)
            for item in items
        ]
        post_scope = Scope([("", f"#{i}") for i in range(len(mapping))])
        post_compiler = ExpressionCompiler(post_scope, self.functions)
        self._check_grouped(post_items, group_exprs)

        evaluators = [post_compiler.compile(item.expr)
                      for item in post_items]
        columns = [_column_name(item, i)
                   for i, item in enumerate(post_items)]

        having_eval = None
        if having is not None:
            having_eval = post_compiler.compile(
                _substitute(having, mapping)
            )
        order_evals = None
        if select.order_by:
            order_evals = []
            for order in select.order_by:
                expr = self._resolve_order_expr(order.expr, post_items)
                expr = _substitute(expr, mapping)
                order_evals.append(
                    (post_compiler.compile(expr), order.descending)
                )

        def produce() -> Iterator[Row]:
            groups: Dict[tuple, list] = {}
            for src in source_rows:
                key = tuple(g(src) for g in group_evals)
                aggs = groups.get(key)
                if aggs is None:
                    aggs = [make_aggregate(c.name, c.distinct)
                            for c in agg_calls]
                    groups[key] = aggs
                for agg, arg in zip(aggs, agg_arg_evals):
                    agg.step(arg(src))
            if not groups and not group_exprs:
                groups[()] = [make_aggregate(c.name, c.distinct)
                              for c in agg_calls]
            out: List[Tuple[tuple, Row]] = []
            seen = set()
            for key, aggs in groups.items():
                agg_row = tuple(key) + tuple(a.result() for a in aggs)
                if having_eval is not None and \
                        not is_true(having_eval(agg_row)):
                    continue
                row = tuple(e(agg_row) for e in evaluators)
                if select.distinct:
                    if row in seen:
                        continue
                    seen.add(row)
                if order_evals is None:
                    out.append(((), row))
                else:
                    keys = tuple(e(agg_row) for e, _ in order_evals)
                    out.append((keys, row))
            if order_evals is None:
                for _, row in out:
                    yield row
            else:
                yield from _sorted_rows(out, order_evals)
        return columns, produce()

    def _check_grouped(self, post_items: List[ast.SelectItem],
                       group_exprs: List[ast.Expr]) -> None:
        for item in post_items:
            for node in walk(item.expr):
                if isinstance(node, ast.ColumnRef):
                    raise PlanError(
                        f"column {node.display()} is neither grouped "
                        f"nor aggregated"
                    )

    # -- limit --------------------------------------------------------------------

    def _apply_limit(self, rows: Iterator[Row]) -> Iterator[Row]:
        select = self.select
        if select.limit is None and select.offset is None:
            return rows
        limit = _constant_int(select.limit, "LIMIT")
        offset = _constant_int(select.offset, "OFFSET") or 0

        def limited() -> Iterator[Row]:
            skipped = 0
            produced = 0
            for row in rows:
                if skipped < offset:
                    skipped += 1
                    continue
                if limit is not None and produced >= limit:
                    return
                produced += 1
                yield row
        return limited()


# ---------------------------------------------------------------------------
# DML access planning (index-assisted row location for DELETE/UPDATE)
# ---------------------------------------------------------------------------

def scan_for_modify(table: TableAccess, indexes: List[IndexAccess],
                    where: Optional[ast.Expr],
                    functions: Dict[str, Callable[..., SqlValue]]):
    """Yield (rowid, row) pairs matching ``where``, through the access
    path the planner picks for a single table without statistics (its
    first-match heuristic, so ANALYZE never changes a DML path).  Used
    by DELETE and UPDATE, which must not mutate mid-scan — callers
    materialize before writing."""
    desc = TableDesc(
        binding=table.info.name, table=table.info.name,
        columns=table.info.column_names(),
        indexes=[(ix.info.name, tuple(ix.info.columns)) for ix in indexes],
    )
    node, rest = _plan_single_access(desc, conjuncts(where), None, functions)
    filters = []
    if rest:
        compiler = ExpressionCompiler(desc.scope(), functions)
        filters = [compiler.compile(p) for p in rest]
    spec = node.access
    if spec.kind == "scan":
        pairs = table.scan()
    else:
        index = next(ix for ix in indexes if ix.info.name == spec.index)
        if spec.kind == "eq":
            rowids = index.lookup_equal([spec.value])
        else:
            rowids = index.lookup_range(spec.lo, spec.hi,
                                        lo_inclusive=spec.lo_inc,
                                        hi_inclusive=spec.hi_inc)
        pairs = ((rowid, table.get(rowid)) for rowid in rowids)
    return ((rowid, row) for rowid, row in pairs
            if row is not None and all(is_true(f(row)) for f in filters))


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _scope_for(tables: List[BoundTable]) -> Scope:
    bindings: List[Tuple[str, str]] = []
    for table in tables:
        for column in table.column_names:
            bindings.append((table.binding, column))
    return Scope(bindings)


def _predicate_uses_only(expr: ast.Expr, scope: Scope) -> bool:
    for node in walk(expr):
        if isinstance(node, ast.ColumnRef):
            if scope.try_resolve(node) is None:
                return False
    return True


def _is_constant(expr: ast.Expr) -> bool:
    return not any(isinstance(node, (ast.ColumnRef, PostAggRef))
                   for node in walk(expr))


def _constant_value(expr: ast.Expr,
                    functions: Optional[Functions] = None) -> SqlValue:
    compiler = ExpressionCompiler(Scope([]), functions or {})
    return compiler.compile(expr)(())


def _constant_int(expr: Optional[ast.Expr], label: str) -> Optional[int]:
    if expr is None:
        return None
    if not _is_constant(expr):
        raise PlanError(f"{label} must be a constant")
    value = _constant_value(expr)
    if value is None:
        return None
    return int(value)


def _flip(op: str) -> str:
    return {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]


def _filtered(rows: Iterator[Row], filters) -> Iterator[Row]:
    for row in rows:
        if all(is_true(f(row)) for f in filters):
            yield row


def _sorted_rows(keyed: List[Tuple[tuple, Row]], order_evals) -> Iterator[Row]:
    descending = [d for _, d in order_evals]

    def sort_key(entry: Tuple[tuple, Row]):
        keys = entry[0]
        out = []
        for value, desc in zip(keys, descending):
            rank, val = _negatable_key(value)
            if desc:
                out.append((-rank, _Reversed(val)))
            else:
                out.append((rank, val))
        return tuple(out)

    keyed.sort(key=sort_key)
    for _, row in keyed:
        yield row


def _negatable_key(value: SqlValue):
    from repro.sql.types import sort_key as base_key

    rank, val = base_key(value)
    return rank, val


class _Reversed:
    """Wrapper inverting comparisons, for DESC sort of mixed types."""

    __slots__ = ("value",)

    def __init__(self, value: SqlValue) -> None:
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        if self.value == other.value:
            return False
        try:
            return other.value < self.value
        except TypeError:
            return False

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and self.value == other.value


def _resolve_alias_refs(expr: ast.Expr,
                        items: List[ast.SelectItem]) -> ast.Expr:
    """Replace bare column refs matching select aliases with their expr
    (SQLite allows aliases in HAVING and ORDER BY)."""
    aliases = {
        item.alias.lower(): item.expr
        for item in items
        if item.alias and item.expr is not None
    }
    if not aliases:
        return expr

    def mapper(node: ast.Expr) -> ast.Expr:
        if isinstance(node, ast.ColumnRef) and node.table is None:
            replacement = aliases.get(node.name.lower())
            if replacement is not None:
                return replacement
        return node

    return _rewrite(expr, mapper)


def _rewrite(expr: ast.Expr, mapper) -> ast.Expr:
    """Bottom-up rewrite: apply ``mapper`` to every node."""
    replaced = mapper(expr)
    if replaced is not expr:
        return replaced
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, _rewrite(expr.operand, mapper))
    if isinstance(expr, ast.BinaryOp):
        return ast.BinaryOp(expr.op, _rewrite(expr.left, mapper),
                            _rewrite(expr.right, mapper))
    if isinstance(expr, ast.IsNull):
        return ast.IsNull(_rewrite(expr.operand, mapper), expr.negated)
    if isinstance(expr, ast.InList):
        return ast.InList(_rewrite(expr.operand, mapper),
                          [_rewrite(i, mapper) for i in expr.items],
                          expr.negated)
    if isinstance(expr, ast.Between):
        return ast.Between(_rewrite(expr.operand, mapper),
                           _rewrite(expr.low, mapper),
                           _rewrite(expr.high, mapper), expr.negated)
    if isinstance(expr, ast.Like):
        return ast.Like(_rewrite(expr.operand, mapper),
                        _rewrite(expr.pattern, mapper), expr.negated)
    if isinstance(expr, ast.FunctionCall):
        return ast.FunctionCall(expr.name,
                                [_rewrite(a, mapper) for a in expr.args],
                                expr.distinct, expr.star)
    if isinstance(expr, ast.CaseExpr):
        return ast.CaseExpr(
            _rewrite(expr.operand, mapper) if expr.operand else None,
            [(_rewrite(c, mapper), _rewrite(r, mapper))
             for c, r in expr.branches],
            _rewrite(expr.else_result, mapper)
            if expr.else_result else None,
        )
    return expr


def _substitute(expr: ast.Expr, mapping) -> ast.Expr:
    """Replace any node equal to a mapping key with its PostAggRef."""
    for original, replacement in mapping:
        if expr == original:
            return replacement
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, _substitute(expr.operand, mapping))
    if isinstance(expr, ast.BinaryOp):
        return ast.BinaryOp(expr.op, _substitute(expr.left, mapping),
                            _substitute(expr.right, mapping))
    if isinstance(expr, ast.IsNull):
        return ast.IsNull(_substitute(expr.operand, mapping), expr.negated)
    if isinstance(expr, ast.InList):
        return ast.InList(_substitute(expr.operand, mapping),
                          [_substitute(i, mapping) for i in expr.items],
                          expr.negated)
    if isinstance(expr, ast.Between):
        return ast.Between(_substitute(expr.operand, mapping),
                           _substitute(expr.low, mapping),
                           _substitute(expr.high, mapping), expr.negated)
    if isinstance(expr, ast.Like):
        return ast.Like(_substitute(expr.operand, mapping),
                        _substitute(expr.pattern, mapping), expr.negated)
    if isinstance(expr, ast.FunctionCall):
        return ast.FunctionCall(expr.name,
                                [_substitute(a, mapping) for a in expr.args],
                                expr.distinct, expr.star)
    if isinstance(expr, ast.CaseExpr):
        return ast.CaseExpr(
            _substitute(expr.operand, mapping) if expr.operand else None,
            [(_substitute(c, mapping), _substitute(r, mapping))
             for c, r in expr.branches],
            _substitute(expr.else_result, mapping)
            if expr.else_result else None,
        )
    return expr


def _column_name(item: ast.SelectItem, position: int) -> str:
    if item.alias:
        return item.alias
    expr = item.expr
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, PostAggRef) and expr.display:
        return expr.display
    if isinstance(expr, ast.FunctionCall):
        return f"{expr.name.upper()}(*)" if expr.star \
            else f"{expr.name.upper()}()"
    return f"column{position + 1}"
