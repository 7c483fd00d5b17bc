"""Unit tests for Routing (Section 4) including Lemma 5.15 / 5.16 properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.path_system import PathSystem
from repro.core.routing import Routing, path_usage_counts
from repro.demands.demand import Demand
from repro.exceptions import ReproError, RoutingError
from repro.graphs import topologies
from strategies import oracle_distributions, oracle_incidence, routing_inputs


def make_simple_routing(cube3):
    return Routing(
        cube3,
        {
            (0, 3): {(0, 1, 3): 0.5, (0, 2, 3): 0.5},
            (0, 1): {(0, 1): 1.0},
        },
    )


def test_distribution_normalization(cube3):
    routing = Routing(cube3, {(0, 3): {(0, 1, 3): 0.5000001, (0, 2, 3): 0.4999999}})
    distribution = routing.distribution(0, 3)
    assert sum(distribution.values()) == pytest.approx(1.0)


def test_invalid_distributions_rejected(cube3):
    with pytest.raises(RoutingError):
        Routing(cube3, {(0, 3): {}})
    with pytest.raises(RoutingError):
        Routing(cube3, {(0, 3): {(0, 1, 3): 0.4}})  # doesn't sum to 1
    with pytest.raises(RoutingError):
        Routing(cube3, {(0, 3): {(0, 1, 3): -0.5, (0, 2, 3): 1.5}})
    with pytest.raises(RoutingError):
        Routing(cube3, {(0, 0): {(0,): 1.0}})


def test_uncovered_pair_raises(cube3):
    routing = make_simple_routing(cube3)
    with pytest.raises(RoutingError):
        routing.distribution(5, 6)
    assert not routing.covers(5, 6)
    assert routing.covers(0, 3)


def test_single_path_constructor(cube3):
    routing = Routing.single_path(cube3, {(0, 7): (0, 1, 3, 7)})
    assert routing.support(0, 7) == [(0, 1, 3, 7)]
    assert routing.support_sparsity() == 1


def test_congestion_and_dilation(cube3):
    routing = make_simple_routing(cube3)
    demand = Demand({(0, 3): 2.0, (0, 1): 1.0})
    congestions = routing.edge_congestions(demand)
    # Each of the two (0,3) paths carries 1.0; edge (0,1) also carries the (0,1) demand.
    assert congestions[(0, 1)] == pytest.approx(2.0)
    assert routing.congestion(demand) == pytest.approx(2.0)
    assert routing.dilation(demand) == 2
    assert routing.max_dilation() == 2
    assert routing.congestion(Demand.empty()) == 0.0


def test_bounded_congestion_lemma(cube3):
    # Lemma 5.16: siz(d)/|E| <= cong(R, d) <= siz(d) for unit capacities.
    routing = make_simple_routing(cube3)
    demand = Demand({(0, 3): 3.0, (0, 1): 2.0})
    congestion = routing.congestion(demand)
    assert demand.size() / cube3.num_edges <= congestion + 1e-9
    assert congestion <= demand.size() + 1e-9


def test_integrality_check(cube3):
    routing = make_simple_routing(cube3)
    assert routing.is_integral_on(Demand({(0, 3): 2.0, (0, 1): 1.0}))
    assert not routing.is_integral_on(Demand({(0, 3): 1.0}))
    assert not routing.is_integral_on(Demand({(5, 6): 1.0}))  # uncovered


def test_support_system_and_is_supported_on(cube3):
    routing = make_simple_routing(cube3)
    system = routing.support_system()
    assert routing.is_supported_on(system)
    smaller = PathSystem(cube3, {(0, 3): [(0, 1, 3)]})
    assert not routing.is_supported_on(smaller)


def test_restricted_to_system(cube3):
    routing = make_simple_routing(cube3)
    smaller = PathSystem(cube3, {(0, 3): [(0, 1, 3)], (0, 1): [(0, 1)]})
    restricted = routing.restricted_to_system(smaller)
    assert restricted.distribution(0, 3) == {(0, 1, 3): 1.0}
    empty = PathSystem(cube3)
    with pytest.raises(RoutingError):
        routing.restricted_to_system(empty)


def test_demand_weighted_mix_lemma_5_15(cube3):
    # Lemma 5.15: cong(R, d1 + d2) <= cong(R1, d1) + cong(R2, d2).
    routing1 = Routing(cube3, {(0, 3): {(0, 1, 3): 1.0}})
    routing2 = Routing(cube3, {(0, 3): {(0, 2, 3): 1.0}, (1, 5): {(1, 5): 1.0}})
    demand1 = Demand({(0, 3): 2.0})
    demand2 = Demand({(0, 3): 1.0, (1, 5): 3.0})
    mixed = Routing.demand_weighted_mix([routing1, routing2], [demand1, demand2])
    total = demand1 + demand2
    assert mixed.congestion(total) <= routing1.congestion(demand1) + routing2.congestion(demand2) + 1e-9
    # All pairs covered by either routing stay covered.
    assert mixed.covers(1, 5)
    with pytest.raises(RoutingError):
        Routing.demand_weighted_mix([routing1], [demand1, demand2])


def test_path_usage_counts(cube3):
    routing = make_simple_routing(cube3)
    demand = Demand({(0, 1): 4.0})
    loads = path_usage_counts(routing, demand)
    assert loads[(0, 1)] == pytest.approx(4.0)


@settings(max_examples=30, deadline=None)
@given(
    split=st.floats(min_value=0.01, max_value=0.99),
    amount=st.floats(min_value=0.0, max_value=20.0),
)
def test_property_congestion_linear_in_demand(split, amount):
    cube = topologies.hypercube(3)
    routing = Routing(cube, {(0, 3): {(0, 1, 3): split, (0, 2, 3): 1.0 - split}})
    demand = Demand({(0, 3): amount})
    # With a single pair, congestion = amount * max(split, 1-split).
    assert routing.congestion(demand) == pytest.approx(amount * max(split, 1.0 - split))


@settings(max_examples=200, deadline=None)
@given(case=routing_inputs())
def test_routing_audit_agrees_with_the_per_path_oracle(case):
    network, distributions, fault = case
    try:
        expected = oracle_distributions(network, distributions)
    except ReproError as error:
        assert fault is not None
        with pytest.raises(ReproError) as raised:
            Routing(network, distributions)
        assert type(raised.value) is type(error)
        return
    assert fault is None
    routing = Routing(network, distributions)
    assert list(routing) == list(expected)
    for pair, distribution in expected.items():
        assert list(routing.distribution(*pair).items()) == list(distribution.items())
    reference = oracle_incidence(network, [(pair, list(d)) for pair, d in expected.items()])
    incidence = routing._incidence
    assert incidence.paths == reference.paths
    assert incidence.slices == reference.slices
    assert incidence.indptr.tolist() == reference.indptr.tolist()
    assert incidence.edge_ids.tolist() == reference.edge_ids.tolist()
