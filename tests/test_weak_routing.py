"""Unit tests for the weak-routing deletion process (Lemma 5.6 / 5.8 / 5.10)."""

import pytest

from repro.core.path_system import PathSystem
from repro.core.sampling import alpha_plus_cut_sample
from repro.core.weak_routing import WeakRoutingProcess
from repro.demands.demand import Demand
from repro.demands.generators import special_demand_from_pairs
from repro.exceptions import RoutingError
from repro.graphs import topologies
from repro.graphs.cuts import CutCache
from repro.oblivious.valiant import ValiantHypercubeRouting


def simple_system(cube3):
    system = PathSystem(cube3, {
        (0, 7): [(0, 1, 3, 7), (0, 2, 6, 7)],
        (1, 6): [(1, 3, 7, 6), (1, 0, 2, 6)],
    })
    return system


def test_gamma_must_be_positive(cube3):
    process = WeakRoutingProcess(simple_system(cube3))
    with pytest.raises(RoutingError):
        process.run(Demand({(0, 7): 1.0}), gamma=0.0)


def test_high_gamma_routes_everything(cube3):
    process = WeakRoutingProcess(simple_system(cube3))
    demand = Demand({(0, 7): 2.0, (1, 6): 2.0})
    outcome = process.run(demand, gamma=100.0)
    assert outcome.succeeded
    assert outcome.routed_fraction == pytest.approx(1.0)
    assert outcome.deleted_edges == []
    assert outcome.routing is not None
    # Lemma 5.10: the surviving routing respects the allowance.
    assert outcome.routing.congestion(outcome.routed_demand) <= outcome.gamma + 1e-9


def test_low_gamma_deletes_paths(cube3):
    process = WeakRoutingProcess(simple_system(cube3))
    demand = Demand({(0, 7): 10.0, (1, 6): 10.0})
    outcome = process.run(demand, gamma=0.5)
    assert outcome.deleted_edges  # something had to be over-congested
    assert outcome.routed_fraction < 1.0
    # Lemma 5.10 invariants always hold.
    for pair in outcome.routed_demand.pairs():
        assert outcome.routed_demand.value(*pair) <= demand.value(*pair) + 1e-9
    if outcome.routing is not None:
        assert outcome.routing.congestion(outcome.routed_demand) <= outcome.gamma + 1e-9


def test_pairs_without_candidates_are_lost(cube3):
    process = WeakRoutingProcess(simple_system(cube3))
    demand = Demand({(0, 7): 1.0, (2, 5): 1.0})  # (2,5) has no candidate paths
    outcome = process.run(demand, gamma=10.0)
    assert outcome.routed_demand.value(2, 5) == 0.0
    assert outcome.routed_demand.value(0, 7) == pytest.approx(1.0)


def test_weak_routing_on_sampled_special_demand(cube4):
    cuts = CutCache(cube4)
    valiant = ValiantHypercubeRouting(cube4, 4, rng=0)
    alpha = 3
    pairs = [(0, 15), (1, 14), (2, 13), (3, 12)]
    demand = special_demand_from_pairs(pairs, alpha, cuts)
    system = alpha_plus_cut_sample(valiant, alpha, cut_oracle=cuts, pairs=pairs, rng=1)
    process = WeakRoutingProcess(system)
    # A generous allowance should route at least half the demand (Lemma 5.6 regime).
    outcome = process.run(demand, gamma=demand.size())
    assert outcome.succeeded


def test_route_by_halving_combines_rounds(cube3):
    system = simple_system(cube3)
    process = WeakRoutingProcess(system)
    demand = Demand({(0, 7): 2.0, (1, 6): 2.0})
    routed, outcomes = process.route_by_halving(demand, gamma=2.0)
    assert routed.size() <= demand.size() + 1e-9
    assert len(outcomes) >= 1
    # Every routed pair keeps its full original demand (the d'' of Lemma 5.8).
    for pair in routed.pairs():
        assert routed.value(*pair) == pytest.approx(demand.value(*pair))


def test_custom_edge_order(cube3):
    system = simple_system(cube3)
    order = list(reversed(cube3.edges))
    process = WeakRoutingProcess(system, edge_order=order)
    outcome = process.run(Demand({(0, 7): 1.0}), gamma=5.0)
    assert outcome.succeeded
