"""Unit tests for link-failure robustness analysis."""

import networkx as nx
import numpy as np
import pytest

from repro.core.path_system import PathSystem
from repro.core.routing import Routing
from repro.core.sampling import alpha_sample
from repro.demands.demand import Demand
from repro.exceptions import GraphError, LinalgError, SolverError
from repro.graphs import topologies
from repro.graphs.network import Network
from repro.linalg.compiled import CompiledRouting
from repro.oblivious.racke import RaeckeTreeRouting
from repro.te.failures import (
    FailureEvent,
    FailureEventReport,
    apply_failure,
    evaluate_failure_event,
    failure_sweep,
    readapt_surviving,
    rebase_system,
)


def cut(u, v):
    """The single-link failure event of edge {u, v}."""
    return FailureEvent(failed_edges=((u, v),))


def two_path_system(cube3):
    return PathSystem(cube3, {(0, 3): [(0, 1, 3), (0, 2, 3)]})


def test_surviving_system_drops_paths(cube3):
    system = two_path_system(cube3)
    survivors = rebase_system(system, apply_failure(cube3, cut(0, 1)))
    assert survivors.paths(0, 3) == [(0, 2, 3)]
    # Cutting the other path's edge too removes the pair entirely.
    both = FailureEvent(failed_edges=((0, 1), (0, 2)))
    assert not rebase_system(system, apply_failure(cube3, both)).has_pair(0, 3)


def test_a_capacity_only_event_keeps_every_path(cube3):
    system = two_path_system(cube3)
    degraded = apply_failure(cube3, FailureEvent(capacity_scale=(((0, 1), 0.5),)))
    rebased = rebase_system(system, degraded)
    assert list(rebased.items()) == list(system.items())
    assert rebased.network is degraded
    assert rebased.incidence().capacities[cube3.edge_index(0, 1)] == 0.5


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rebase_keeps_the_paths_whose_every_hop_survives(seed):
    # The reference is the per-hop rule: a path survives iff the degraded
    # network still has each of its edges.
    network = topologies.torus_2d(4)
    system = alpha_sample(RaeckeTreeRouting(network, rng=seed), 3, rng=seed)
    rng = np.random.default_rng(seed)
    edges = network.edges
    picks = rng.choice(len(edges), size=3, replace=False)
    event = FailureEvent(failed_edges=tuple(edges[i] for i in picks[:2]),
                         capacity_scale=((edges[picks[2]], 0.25),))
    degraded = apply_failure(network, event)
    expected = {}
    for pair, paths in system.items():
        kept = [path for path in paths
                if all(degraded.has_edge(u, v) for u, v in zip(path, path[1:]))]
        if kept:
            expected[pair] = kept
    assert list(rebase_system(system, degraded).items()) == list(expected.items())


def test_failure_coverage(cube3):
    system = two_path_system(cube3)
    demand = Demand({(0, 3): 1.0})
    assert readapt_surviving(system, demand, cut(0, 1), None)[0] == 1.0
    # A pair with a single candidate path loses coverage when that path's
    # edge dies; coverage needs no degraded network, so it is defined even
    # when the event disconnects the graph.
    single = PathSystem(cube3, {(0, 3): [(0, 1, 3)]})
    assert readapt_surviving(single, demand, cut(0, 1), None) == (0.0, None)
    assert readapt_surviving(single, Demand.empty(), cut(0, 1), None)[0] == 1.0


def test_failed_network(cube3, path4):
    remaining = apply_failure(cube3, cut(0, 1))
    assert remaining is not None
    assert remaining.num_edges == cube3.num_edges - 1
    # Removing a bridge of a path graph disconnects it.
    assert apply_failure(path4, cut(1, 2)) is None


def test_invalid_capacity_scale_is_rejected_even_when_the_event_disconnects():
    # On a path graph the cut disconnects, and apply_failure answers None
    # before it reads the scales: the event itself must reject the scale.
    network = topologies.path_graph(3)
    bad = {"failed_edges": [[0, 1]], "capacity_scale": [[[1, 2], 5.0]], "label": "bad"}
    with pytest.raises(GraphError, match=r"must be in \(0, 1\]"):
        FailureEvent(failed_edges=((0, 1),), capacity_scale=(((1, 2), 5.0),))
    with pytest.raises(GraphError, match=r"must be in \(0, 1\]"):
        FailureEvent.from_dict(bad)
    assert apply_failure(network, FailureEvent(failed_edges=((0, 1),))) is None


def test_unknown_failed_edge_raises_graph_error(cube3):
    with pytest.raises(GraphError):
        evaluate_failure_event(two_path_system(cube3), Demand({(0, 3): 1.0}), cut(0, 7))


def test_evaluate_failure_with_redundancy(cube3):
    system = two_path_system(cube3)
    demand = Demand({(0, 3): 1.0})
    report = evaluate_failure_event(system, demand, cut(0, 1))
    assert report.coverage == 1.0
    assert not report.disconnects_network
    assert report.achieved_congestion is not None
    assert report.ratio is not None and report.ratio >= 1.0 - 1e-9


def test_evaluate_failure_without_redundancy(cube3):
    single = PathSystem(cube3, {(0, 3): [(0, 1, 3)]})
    demand = Demand({(0, 3): 1.0})
    report = evaluate_failure_event(single, demand, cut(0, 1))
    assert report.coverage == 0.0
    assert report.achieved_congestion is None
    assert report.optimal_congestion is not None
    assert report.ratio is None


def test_evaluate_failure_disconnecting(path4):
    system = PathSystem(path4, {(0, 3): [(0, 1, 2, 3)]})
    report = evaluate_failure_event(system, Demand({(0, 3): 1.0}), cut(1, 2))
    assert report.disconnects_network
    assert report.coverage == 0.0
    assert report.optimal_congestion is None
    assert report.ratio is None


def test_failure_sweep_summary(small_expander):
    oblivious = RaeckeTreeRouting(small_expander, rng=0)
    demand = Demand({(0, 5): 1.0, (1, 7): 1.0})
    system = alpha_sample(oblivious, alpha=3, pairs=demand.pairs(), rng=1)
    summary = failure_sweep(system, demand, edges=small_expander.edges[:8])
    assert summary.num_failures == 8
    assert [report.event.failed_edges for report in summary.reports] == [
        (edge,) for edge in small_expander.edges[:8]
    ]
    assert 0.0 <= summary.mean_coverage() <= 1.0
    assert 0.0 <= summary.full_coverage_fraction() <= 1.0
    worst = summary.worst_ratio()
    if worst is not None:
        assert worst >= 1.0 - 1e-9


def test_failure_report_ratios_pass_through_the_ratio_rule():
    event = FailureEvent(failed_edges=((0, 1),))
    with pytest.raises(SolverError, match="below 1"):
        FailureEventReport(event, 1.0, achieved_congestion=1.0, optimal_congestion=2.0).ratio
    assert FailureEventReport(event, 1.0, 3.0, 2.0).ratio == pytest.approx(1.5)
    assert FailureEventReport(event, 1.0, 0.0, 0.0).ratio == 1.0
    assert FailureEventReport(event, 1.0, 1.0, 0.0).ratio == float("inf")
    # A missing side still reads as no ratio at all.
    assert FailureEventReport(event, 0.5, None, 2.0).ratio is None
    assert FailureEventReport(event, 0.5, 1.0, None).ratio is None


@pytest.mark.parametrize("failed", [(10, 11), (np.int64(10), 11), (11, np.int64(10))])
def test_failed_edge_with_numpy_labels_breaks_the_paths_crossing_it(failed):
    # edge_key orders np.int64(10) after 11 but 10 before it; matching on
    # edge ids finds the failed edge whatever the label type.
    network = Network(nx.cycle_graph(12))
    system = PathSystem(network, {(0, 10): [(0, 11, 10)]})
    event = FailureEvent(failed_edges=(failed,))
    degraded = apply_failure(network, event)
    assert readapt_surviving(system, Demand({(0, 10): 1.0}), event, degraded) == (0.0, None)


def _mixed_label_network():
    """A 7-vertex graph whose labels mix ints, strings and tuples; ``"v6"`` hangs on a bridge."""
    labels = [0, "v1", (2, "t"), 3, "v4", (5, "t"), "v6"]
    graph = nx.cycle_graph(6)
    graph.add_edges_from([(0, 3), (1, 4), (5, 6)])
    return Network(nx.relabel_nodes(graph, dict(enumerate(labels))))


@pytest.mark.parametrize("network", [topologies.torus_2d(3), _mixed_label_network()],
                         ids=["torus3", "mixed-labels"])
def test_surviving_coverage_equals_a_per_path_oracle(network):
    system = alpha_sample(RaeckeTreeRouting(network, rng=0), 2, rng=0)
    pairs = system.pairs()
    demand = Demand({pair: 1.0 for pair in pairs})
    routing = Routing(network, {
        pair: {path: 1.0 / len(paths) for path in paths} for pair, paths in system.items()
    })
    compiled = CompiledRouting.from_routing(routing)
    coverages = []
    for u, v in network.edges:
        event = cut(u, v)
        failed = {network.edge_index(u, v)}
        oracle = [
            any(failed.isdisjoint(network.path_edge_ids(path)) for path in system.paths(*pair))
            for pair in pairs
        ]
        coverage = readapt_surviving(system, demand, event, None)[0]
        assert coverage == sum(oracle) / len(pairs)
        rebased = compiled.rebased(event)
        assert [rebased.is_covered(*pair) for pair in pairs] == oracle
        coverages.append(coverage)
    assert min(coverages) < 1.0  # some event breaks every path of a pair
    unknown = cut(network.vertices[0], "nowhere")
    with pytest.raises(GraphError):
        readapt_surviving(system, demand, unknown, None)
    with pytest.raises(LinalgError):
        compiled.rebased(unknown)
