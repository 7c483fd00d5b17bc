"""Unit tests for demand-adaptive rate optimization (Stage 4)."""

import pytest

from repro.core.path_system import PathSystem
from repro.core.rate_adaptation import optimal_rates
from repro.demands.demand import Demand


def build_system(cube3):
    system = PathSystem(cube3, {(0, 7): [(0, 1, 3, 7), (0, 2, 6, 7), (0, 4, 5, 7)]})
    return system


def test_lp_engine_splits_over_disjoint_paths(cube3):
    system = build_system(cube3)
    result = optimal_rates(system, Demand({(0, 7): 3.0}))
    assert result.congestion == pytest.approx(1.0, abs=1e-6)
    assert result.routing is not None
    assert result.routing.is_supported_on(system)


def test_empty_demand(cube3):
    system = build_system(cube3)
    result = optimal_rates(system, Demand.empty())
    assert result.congestion == 0.0
    assert result.routing is None


def test_adaptation_beats_fixed_even_split(cube3):
    # Two pairs share an edge on one candidate path; adaptation should avoid it.
    system = PathSystem(cube3, {(0, 3): [(0, 1, 3), (0, 2, 3)], (1, 7): [(1, 3, 7), (1, 5, 7)]})
    demand = Demand({(0, 3): 1.0, (1, 7): 1.0})
    adapted = optimal_rates(system, demand)
    # Fixed even split: edge (1,3) gets 0.5 + 0.5; max edge congestion >= ... compute directly.
    even_paths = []
    for pair, amount in demand.items():
        paths = system.paths(*pair)
        for path in paths:
            even_paths.append((path, amount / len(paths)))
    even_congestion = cube3.congestion(even_paths)
    assert adapted.congestion <= even_congestion + 1e-9
