"""Unit tests for integral semi-oblivious routing (Definition 6.1 pipeline)."""

import pytest

from repro.core.integral_routing import (
    integral_congestion,
    integral_routing_by_rounding,
    local_search_improve,
)
from repro.core.path_system import PathSystem
from repro.demands.demand import Demand
from repro.exceptions import DemandError, InfeasibleError
from repro.graphs import topologies
from repro.mcf.path_lp import min_congestion_on_paths


def disjoint_system(cube3):
    system = PathSystem(cube3, {(0, 7): [(0, 1, 3, 7), (0, 2, 6, 7), (0, 4, 5, 7)]})
    return system


def test_requires_integral_demand(cube3):
    system = disjoint_system(cube3)
    with pytest.raises(DemandError):
        integral_congestion(system, Demand({(0, 7): 1.5}))


def test_missing_pair_raises(cube3):
    system = disjoint_system(cube3)
    with pytest.raises(InfeasibleError):
        integral_congestion(system, Demand({(1, 6): 1.0}))


def test_empty_demand(cube3):
    system = disjoint_system(cube3)
    result = integral_congestion(system, Demand.empty())
    assert result.congestion == 0.0
    assert result.assignment == {}


def test_assignment_covers_every_unit(cube3):
    system = disjoint_system(cube3)
    demand = Demand({(0, 7): 3.0})
    result = integral_congestion(system, demand, rng=0)
    assert len(result.assignment) == 3
    for (pair, _), path in result.assignment.items():
        assert path in system.paths(*pair)
    assert result.routing.is_integral_on(demand)


def test_integral_between_fractional_and_certified_bound(cube3):
    system = disjoint_system(cube3)
    demand = Demand({(0, 7): 3.0})
    result = integral_congestion(system, demand, rng=0)
    assert result.fractional_congestion - 1e-9 <= result.congestion <= result.certified_bound + 1e-9
    # Three unit packets over three disjoint paths: local search should reach congestion 1.
    assert result.congestion == pytest.approx(1.0)


def test_local_search_never_worsens(cube3):
    system = disjoint_system(cube3)
    demand = Demand({(0, 7): 4.0})
    assignment, congestion, _ = integral_routing_by_rounding(system, demand, rng=1)
    improved_assignment, improved_congestion, moves = local_search_improve(system, assignment)
    assert improved_congestion <= congestion + 1e-9
    assert len(improved_assignment) == len(assignment)
    assert moves >= 0


def test_local_search_fixes_bad_start(cube3):
    system = disjoint_system(cube3)
    # Adversarial start: all four units on the same path (congestion 4).
    bad = {((0, 7), i): (0, 1, 3, 7) for i in range(4)}
    improved, congestion, moves = local_search_improve(system, bad)
    assert moves > 0
    assert congestion <= 2.0  # 4 units over 3 disjoint paths -> ceil(4/3) = 2


def test_matches_lp_when_lp_is_integral(path4):
    system = PathSystem(path4, {(0, 3): [(0, 1, 2, 3)]})
    demand = Demand({(0, 3): 2.0})
    lp = min_congestion_on_paths(system, demand)
    result = integral_congestion(system, demand, rng=0)
    assert result.congestion == pytest.approx(lp.congestion)
