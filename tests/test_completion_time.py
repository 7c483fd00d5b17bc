"""Unit tests for the Section 7 completion-time machinery."""

import pytest

from repro.core.completion_time import (
    MultiScaleHopSample,
    best_completion_time_on_system,
    completion_time,
    completion_time_competitive_ratio,
    hop_scales,
    routing_completion_time,
)
from repro.core.path_system import PathSystem
from repro.core.routing import Routing
from repro.demands.demand import Demand
from repro.demands.generators import random_pairs_demand
from repro.graphs import topologies


def test_completion_time_objective():
    assert completion_time(2.0, 3.0) == 5.0


def test_routing_completion_time(cube3):
    routing = Routing.single_path(cube3, {(0, 7): (0, 1, 3, 7)})
    demand = Demand({(0, 7): 2.0})
    assert routing_completion_time(routing, demand) == pytest.approx(2.0 + 3.0)


def test_hop_scales_cover_diameter(cube4):
    scales = hop_scales(cube4)
    assert scales[0] == 1
    assert scales[-1] >= cube4.diameter()
    assert scales == sorted(scales)


def test_multi_scale_sample_build(torus3):
    demand = random_pairs_demand(torus3, num_pairs=4, rng=0)
    sample = MultiScaleHopSample.build(torus3, alpha=2, pairs=demand.pairs(), rng=0)
    assert sample.alpha == 2
    assert sample.scales
    assert sample.system.covers(demand.pairs())
    # Sparsity is at most alpha * number of scales.
    assert sample.sparsity() <= 2 * len(sample.scales)


def test_best_completion_time_on_plain_system(cube3):
    system = PathSystem(cube3, {(0, 7): [(0, 1, 3, 7), (0, 2, 6, 7)]})
    result = best_completion_time_on_system(system, Demand({(0, 7): 2.0}))
    assert result.scale is None
    assert result.dilation == 3
    assert result.completion_time == pytest.approx(result.congestion + result.dilation)


def test_best_completion_time_multi_scale_prefers_short_scale(torus3):
    # Adjacent pair: the 1-hop scale should win (dilation 1 or 2).
    demand = Demand({((0, 0), (0, 1)): 1.0})
    sample = MultiScaleHopSample.build(torus3, alpha=2, pairs=demand.pairs(), rng=0)
    result = best_completion_time_on_system(sample, demand)
    assert result.dilation <= 2
    assert result.scale is not None


def test_completion_time_competitive_ratio(torus3):
    demand = random_pairs_demand(torus3, num_pairs=3, rng=1)
    sample = MultiScaleHopSample.build(torus3, alpha=2, pairs=demand.pairs(), rng=1)
    ratio, achieved, baseline = completion_time_competitive_ratio(sample, demand)
    assert baseline > 0
    assert achieved.completion_time > 0
    assert ratio == pytest.approx(achieved.completion_time / baseline)


def test_custom_baseline_routing(cube3):
    demand = Demand({(0, 7): 1.0})
    system = PathSystem(cube3, {(0, 7): [(0, 1, 3, 7)]})
    baseline = Routing.single_path(cube3, {(0, 7): (0, 1, 3, 7)})
    ratio, achieved, baseline_total = completion_time_competitive_ratio(
        system, demand, baseline_routing=baseline
    )
    assert baseline_total == pytest.approx(1.0 + 3.0)
    assert ratio == pytest.approx(achieved.completion_time / baseline_total)
