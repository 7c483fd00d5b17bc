"""Unit tests for shortest-path and k-shortest-path oblivious routings."""

import networkx as nx
import pytest
from hypothesis import given, settings

from repro.exceptions import RoutingError
from repro.graphs import topologies
from repro.graphs.network import Network
from repro.oblivious.shortest_path import KShortestPathRouting, ShortestPathRouting
from repro.synth import isp

from strategies import labelled_networks


def test_shortest_path_routing_is_deterministic_single_path(cube3):
    builder = ShortestPathRouting(cube3)
    distribution = builder.pair_distribution(0, 7)
    assert len(distribution) == 1
    path, probability = next(iter(distribution.items()))
    assert probability == 1.0
    assert len(path) - 1 == 3


def _assert_ported_bfs_returns_the_networkx_paths(network):
    builder = ShortestPathRouting(network)
    for source, target in network.vertex_pairs(ordered=True):
        expected = tuple(nx.bidirectional_shortest_path(network.graph, source, target))
        assert builder.distribution_for(source, target) == {expected: 1.0}


@settings(max_examples=100, deadline=None)
@given(network=labelled_networks())
def test_ported_bfs_returns_the_networkx_path(network):
    _assert_ported_bfs_returns_the_networkx_paths(network)


@pytest.mark.parametrize(
    "network",
    [isp(pops=8, seed=3), topologies.torus_2d(5), topologies.hypercube(4)],
    ids=["isp8", "torus5", "cube4"],
)
def test_ported_bfs_returns_the_networkx_path_on_tied_topologies(network):
    _assert_ported_bfs_returns_the_networkx_paths(network)


def test_ksp_uniform_over_k_paths(cube3):
    builder = KShortestPathRouting(cube3, k=3)
    distribution = builder.pair_distribution(0, 7)
    assert len(distribution) == 3
    assert all(p == pytest.approx(1.0 / 3.0) for p in distribution.values())
    assert builder.k == 3


def test_ksp_fewer_paths_than_k(path4):
    builder = KShortestPathRouting(path4, k=5)
    distribution = builder.pair_distribution(0, 3)
    assert len(distribution) == 1  # a path graph has a single simple path


def test_ksp_rejects_bad_k(cube3):
    with pytest.raises(RoutingError):
        KShortestPathRouting(cube3, k=0)


def test_ksp_inverse_capacity_prefers_fat_links():
    net = Network.from_edges(
        [(0, 1), (1, 2), (0, 3), (3, 2)],
        capacities={(0, 1): 10.0, (1, 2): 10.0, (0, 3): 1.0, (3, 2): 1.0},
    )
    builder = KShortestPathRouting(net, k=1, inverse_capacity_weight=True)
    (path,) = builder.pair_distribution(0, 2).keys()
    assert path == (0, 1, 2)


def test_ksp_paths_are_shortest_first(cube3):
    builder = KShortestPathRouting(cube3, k=4)
    paths = sorted(builder.pair_distribution(0, 1).keys(), key=len)
    assert len(paths[0]) == 2  # the direct edge comes first
