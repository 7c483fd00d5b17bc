"""Unit tests for the Demand class (Definition 2.2 / 5.5)."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.demands.demand import Demand
from repro.exceptions import DemandError
from repro.graphs import topologies
from repro.graphs.cuts import CutCache


def test_basic_access():
    demand = Demand({(0, 1): 2.0, (1, 2): 1.0})
    assert demand.value(0, 1) == 2.0
    assert demand[(1, 2)] == 1.0
    assert demand.value(2, 0) == 0.0
    assert demand.size() == 3.0
    assert demand.support_size() == 2
    assert demand.max_value() == 2.0
    assert not demand.is_empty()
    assert len(demand) == 2
    assert set(demand) == {(0, 1), (1, 2)}


def test_zero_entries_dropped_and_duplicates_merged():
    demand = Demand([((0, 1), 1.0), ((0, 1), 2.0), ((1, 2), 0.0)])
    assert demand.value(0, 1) == 3.0
    assert demand.support_size() == 1


def test_negative_and_diagonal_rejected():
    with pytest.raises(DemandError):
        Demand({(0, 1): -1.0})
    with pytest.raises(DemandError):
        Demand({(0, 0): 1.0})
    # Zero diagonal entries are tolerated (the definition forces d(v, v) = 0).
    assert Demand({(0, 0): 0.0}).is_empty()


def test_network_validation():
    net = topologies.path_graph(3)
    with pytest.raises(DemandError):
        Demand({(0, 99): 1.0}, network=net)
    Demand({(0, 2): 1.0}, network=net)  # fine


def test_classification_integral_zero_one_permutation():
    integral = Demand({(0, 1): 2.0, (1, 2): 3.0})
    assert integral.is_integral()
    assert not integral.is_zero_one()

    zero_one = Demand({(0, 1): 1.0, (2, 3): 1.0})
    assert zero_one.is_zero_one()
    assert zero_one.is_permutation()

    not_perm = Demand({(0, 1): 1.0, (0, 2): 1.0})
    assert not_perm.is_zero_one()
    assert not not_perm.is_permutation()

    fractional = Demand({(0, 1): 0.5})
    assert not fractional.is_integral()


def test_is_special():
    net = topologies.cycle_graph(5)
    cuts = CutCache(net)
    alpha = 2
    special = Demand({(0, 2): alpha + cuts(0, 2)})
    assert special.is_special(alpha, cuts)
    assert not Demand({(0, 2): 1.0}).is_special(alpha, cuts)


def test_scaling_and_addition_subtraction():
    a = Demand({(0, 1): 1.0})
    b = Demand({(0, 1): 2.0, (1, 2): 1.0})
    total = a + b
    assert total.value(0, 1) == 3.0
    assert (total - a).value(0, 1) == 2.0
    assert a.scaled(2.5).value(0, 1) == 2.5
    with pytest.raises(DemandError):
        a.scaled(-1.0)
    with pytest.raises(DemandError):
        a - b  # would go negative


def test_restriction_and_filtering():
    demand = Demand({(0, 1): 1.0, (1, 2): 2.0, (2, 3): 3.0})
    restricted = demand.restricted([(0, 1), (2, 3)])
    assert restricted.support_size() == 2
    filtered = demand.filtered(lambda pair, value: value >= 2.0)
    assert set(filtered.pairs()) == {(1, 2), (2, 3)}


def test_split_and_buckets():
    demand = Demand({(0, 1): 0.5, (1, 2): 2.0, (2, 3): 8.0})
    high, low = demand.split_by_threshold(1.0)
    assert set(high.pairs()) == {(1, 2), (2, 3)}
    assert set(low.pairs()) == {(0, 1)}

    buckets = demand.buckets_by_ratio(lambda pair: 1.0)
    # ratios 0.5, 2, 8 -> bucket indices -1, 1, 3
    assert set(buckets.keys()) == {-1, 1, 3}
    combined = Demand.empty()
    for bucket in buckets.values():
        combined = combined + bucket
    assert combined == demand


def test_special_cover():
    net = topologies.cycle_graph(4)
    cuts = CutCache(net)
    demand = Demand({(0, 2): 0.3, (1, 3): 5.0})
    cover = demand.special_cover(2, cuts)
    assert cover.is_special(2, cuts)
    assert set(cover.pairs()) == set(demand.pairs())


def test_rounded_up():
    demand = Demand({(0, 1): 1.2, (1, 2): 2.0})
    rounded = demand.rounded_up()
    assert rounded.value(0, 1) == 2.0
    assert rounded.value(1, 2) == 2.0
    assert rounded.is_integral()


def test_equality_and_hash():
    a = Demand({(0, 1): 1.0})
    b = Demand({(0, 1): 1.0})
    assert a == b
    assert hash(a) == hash(b)
    assert a != Demand({(0, 1): 2.0})


def test_hash_is_stable_across_calls_orders_and_pickles():
    values = {(0, 1): 1.0, ("a", "b"): 2.5, (3, 2): 1e-3}
    demand = Demand(values)
    first = hash(demand)
    assert hash(demand) == first  # the cached value
    reordered = Demand(dict(reversed(list(values.items()))))
    assert reordered == demand and hash(reordered) == first
    # String hashes differ between processes, so the cached hash never travels.
    assert "_hash" not in demand.__getstate__()
    restored = pickle.loads(pickle.dumps(demand))
    assert restored == demand and hash(restored) == first
    assert hash(Demand({(0, 1): 1.0})) != hash(Demand({(0, 1): 2.0}))


def test_from_pairs_and_empty():
    demand = Demand.from_pairs([(0, 1), (1, 2)], value=2.0)
    assert demand.size() == 4.0
    assert Demand.empty().is_empty()


@settings(max_examples=50, deadline=None)
@given(
    values=st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda p: p[0] != p[1]),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        max_size=8,
    ),
    factor=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)
def test_property_scaling_is_linear_in_size(values, factor):
    demand = Demand(values)
    scaled = demand.scaled(factor)
    assert scaled.size() == pytest.approx(demand.size() * factor, rel=1e-9, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(
    left=st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda p: p[0] != p[1]),
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        max_size=6,
    ),
    right=st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda p: p[0] != p[1]),
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        max_size=6,
    ),
)
def test_property_addition_commutes_and_sums_sizes(left, right):
    a, b = Demand(left), Demand(right)
    assert a + b == b + a
    assert (a + b).size() == pytest.approx(a.size() + b.size(), rel=1e-9, abs=1e-9)
