"""Unit tests for competitive-ratio evaluation."""

import pytest

from repro.core.competitive import (
    competitive_ratio,
    evaluate_oblivious_routing,
    evaluate_path_system,
    worst_case_over_demands,
)
from repro.core.path_system import PathSystem
from repro.core.routing import Routing
from repro.demands.demand import Demand
from repro.exceptions import SolverError
from repro.graphs import topologies


def test_competitive_ratio_direct(cube3):
    demand = Demand({(0, 7): 1.0})
    # Optimal is 1/3; an achieved congestion of 1 gives ratio 3.
    assert competitive_ratio(1.0, cube3, demand) == pytest.approx(3.0, abs=1e-3)
    assert competitive_ratio(1.0, cube3, demand, optimal_congestion=0.5) == pytest.approx(2.0)


def test_ratio_edge_cases(cube3):
    empty = Demand.empty()
    assert competitive_ratio(0.0, cube3, empty) == 1.0
    assert competitive_ratio(1.0, cube3, empty) == float("inf")


def test_evaluate_path_system(cube3):
    system = PathSystem(cube3, {(0, 7): [(0, 1, 3, 7)]})
    demand = Demand({(0, 7): 1.0})
    report = evaluate_path_system(system, demand, scheme="single")
    assert report.scheme == "single"
    assert report.achieved_congestion == pytest.approx(1.0)
    assert report.optimal_congestion == pytest.approx(1.0 / 3.0, abs=1e-4)
    assert report.ratio == pytest.approx(3.0, abs=1e-3)
    assert report.demand_size == 1.0


def test_evaluate_oblivious_routing(cube3):
    routing = Routing.single_path(cube3, {(0, 7): (0, 1, 3, 7)})
    demand = Demand({(0, 7): 1.0})
    report = evaluate_oblivious_routing(routing, demand)
    assert report.ratio == pytest.approx(3.0, abs=1e-3)


def test_richer_system_has_smaller_ratio(cube3):
    single = PathSystem(cube3, {(0, 7): [(0, 1, 3, 7)]})
    rich = PathSystem(cube3, {(0, 7): [(0, 1, 3, 7), (0, 2, 6, 7), (0, 4, 5, 7)]})
    demand = Demand({(0, 7): 1.0})
    assert (
        evaluate_path_system(rich, demand).ratio
        <= evaluate_path_system(single, demand).ratio + 1e-9
    )


def test_worst_case_over_demands(cube3):
    system = PathSystem(cube3, {(0, 7): [(0, 1, 3, 7)], (1, 6): [(1, 3, 7, 6)]})
    demands = [Demand({(0, 7): 1.0}), Demand({(1, 6): 1.0})]
    report = worst_case_over_demands(system, demands)
    assert report.num_demands == 2
    assert report.worst_ratio >= report.mean_ratio - 1e-9
    with pytest.raises(SolverError):
        worst_case_over_demands(system, [])


def test_ratio_never_below_one_for_valid_systems(cube3, permutation_demand_cube3):
    # Any achievable congestion is at least the optimum, so ratios are >= 1.
    system = PathSystem(
        cube3, {pair: [cube3.shortest_path(*pair)] for pair in permutation_demand_cube3.pairs()}
    )
    report = evaluate_path_system(system, permutation_demand_cube3)
    assert report.ratio >= 1.0 - 1e-6


def test_a_congestion_below_the_optimum_raises(cube3):
    # One rule for every reported ratio: an achieved congestion more than
    # the LP tolerance under the optimum means the normalizer is wrong.
    system = PathSystem(cube3, {(0, 7): [(0, 1, 3, 7)]})
    demand = Demand({(0, 7): 1.0})
    with pytest.raises(SolverError, match="below 1"):
        evaluate_path_system(system, demand, optimal_congestion=2.0)
    with pytest.raises(SolverError, match="below 1"):
        competitive_ratio(1.0, cube3, demand, optimal_congestion=2.0)
    routing = Routing.single_path(cube3, {(0, 7): (0, 1, 3, 7)})
    with pytest.raises(SolverError, match="below 1"):
        evaluate_oblivious_routing(routing, demand, optimal_congestion=2.0)
