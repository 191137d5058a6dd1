"""Monoid / merge properties for every registered aggregate.

The parallel executor's correctness rests on ``merge(fold(A), fold(B))
== fold(A + B)`` for each aggregate (paper Section 2.3's abelian-monoid
requirement), plus the stored-row merge helpers mirroring exactly what
the serial probe pass (``TableAggregateSchema.apply``) would have
produced. Hypothesis drives every registered factory — including AVG's
hidden ``(__avg_sum, __avg_cnt)`` helper pair.

Generated numbers are dyadic rationals (ints and halves) well below
2^53 so float arithmetic is exact and equality can be checked
bit-for-bit, matching the differential harness's reasoning.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.aggregates import (
    _FACTORIES,
    MONOID_AGGREGATES,
    binary_op,
    identity_element,
    make_cross_snapshot_aggregate,
    merge_avg_stored,
    merge_stored_value,
)
from repro.core.mechanisms import TableAggregateSchema

values = st.one_of(
    st.none(),
    st.integers(min_value=-100, max_value=100),
    st.integers(min_value=-200, max_value=200).map(lambda x: x / 2),
)
value_lists = st.lists(values, max_size=12)

SETTINGS = settings(max_examples=200, deadline=None)


def _eq(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a == b and type(a) is type(b)


def _fold(name, items):
    state = make_cross_snapshot_aggregate(name)
    for item in items:
        state.absorb(item)
    return state


@pytest.mark.parametrize("name", sorted(_FACTORIES))
@SETTINGS
@given(left=value_lists, right=value_lists)
def test_merge_of_partial_folds_equals_single_fold(name, left, right):
    merged = _fold(name, left)
    merged.merge(_fold(name, right))
    whole = _fold(name, left + right)
    assert _eq(merged.result(), whole.result())


@pytest.mark.parametrize("name", sorted(_FACTORIES))
@SETTINGS
@given(left=value_lists, right=value_lists)
def test_restored_dump_then_fold_equals_single_fold(name, left, right):
    # A view persists dump() as JSON and resumes folding from it.
    payload = json.loads(json.dumps(_fold(name, left).dump()))
    resumed = make_cross_snapshot_aggregate(name)
    resumed.restore(payload)
    for item in right:
        resumed.absorb(item)
    assert _eq(resumed.result(), _fold(name, left + right).result())


@pytest.mark.parametrize("name", ("min", "max"))
def test_dump_refuses_values_json_cannot_round_trip(name):
    assert _fold(name, [b"\x00blob"]).dump() is None


@pytest.mark.parametrize("name", MONOID_AGGREGATES)
@SETTINGS
@given(a=values, b=values, c=values)
def test_binary_op_is_associative(name, a, b, c):
    if name == "count":
        a, b, c = (x is not None and 1 or 0 for x in (a, b, c))
    op = binary_op(name)
    assert _eq(op(op(a, b), c), op(a, op(b, c)))


@pytest.mark.parametrize("name", MONOID_AGGREGATES)
@SETTINGS
@given(a=values)
def test_identity_element_is_neutral(name, a):
    if name == "count":
        a = 1 if a is not None else 0
    op = binary_op(name)
    e = identity_element(name)
    assert _eq(op(e, a), a)
    assert _eq(op(a, e), a)


def _schema(func):
    schema = TableAggregateSchema([("v", func)])
    schema.bind(["g", "v"])
    return schema


def _serial_stored(schema, items):
    """Stored group row after the serial first-insert + probe passes."""
    stored = schema.widen(("k", items[0]))
    for item in items[1:]:
        updated = schema.apply(stored, ("k", item))
        if updated is not None:
            stored = updated
    return stored


@pytest.mark.parametrize("func", MONOID_AGGREGATES)
@SETTINGS
@given(left=st.lists(values, min_size=1, max_size=10),
       right=st.lists(values, min_size=1, max_size=10))
def test_merge_stored_value_matches_serial_probe_fold(func, left, right):
    schema = _schema(func)
    position = schema.agg_specs[0][0]
    earlier = _serial_stored(schema, left)[position]
    later = _serial_stored(schema, right)[position]
    serial = _serial_stored(schema, left + right)[position]
    assert _eq(merge_stored_value(func, earlier, later), serial)


@SETTINGS
@given(left=st.lists(values, min_size=1, max_size=10),
       right=st.lists(values, min_size=1, max_size=10))
def test_merge_avg_stored_matches_serial_probe_fold(left, right):
    schema = _schema("avg")
    position, _, sum_pos, cnt_pos = schema.agg_specs[0]
    a = _serial_stored(schema, left)
    b = _serial_stored(schema, right)
    serial = _serial_stored(schema, left + right)
    merged = merge_avg_stored(a[position], a[sum_pos], a[cnt_pos],
                              b[position], b[sum_pos], b[cnt_pos])
    assert _eq(merged[0], serial[position])
    assert _eq(merged[1], serial[sum_pos])
    assert _eq(merged[2], serial[cnt_pos])


def test_merge_stored_value_rejects_avg():
    with pytest.raises(Exception, match="stored-value merge"):
        merge_stored_value("avg", 1, 2)
