"""Unit tests for the Räcke-style MWU-over-trees oblivious routing."""

import hashlib
import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.demands.generators import random_permutation_demand
from repro.core.routing import Routing
from repro.exceptions import RoutingError
from repro.graphs import topologies
from repro.graphs.network import Network
from repro.mcf.lp import min_congestion_lp
from repro.oblivious.racke import RaeckeTreeRouting
from repro.synth import isp

from strategies import labelled_networks


def test_trees_are_spanning(small_expander):
    builder = RaeckeTreeRouting(small_expander, num_trees=4, rng=0)
    assert len(builder.trees) == 4
    for tree in builder.trees:
        assert tree.number_of_nodes() == small_expander.num_vertices
        assert tree.number_of_edges() == small_expander.num_vertices - 1
        assert nx.is_connected(tree)
        # Every tree edge is a network edge.
        for u, v in tree.edges():
            assert small_expander.has_edge(u, v)


def test_tree_weights_sum_to_one(small_expander):
    builder = RaeckeTreeRouting(small_expander, num_trees=3, rng=0)
    assert sum(builder.tree_weights) == pytest.approx(1.0)


def test_default_num_trees_scales_with_log_n(cube4):
    builder = RaeckeTreeRouting(cube4, rng=0)
    assert len(builder.trees) >= 4


def test_invalid_num_trees(cube3):
    with pytest.raises(RoutingError):
        RaeckeTreeRouting(cube3, num_trees=0)


def test_distribution_valid(cube3, racke_cube3):
    distribution = racke_cube3.pair_distribution(0, 7)
    assert sum(distribution.values()) == pytest.approx(1.0)
    for path in distribution:
        cube3.validate_path(path, source=0, target=7)


def test_sample_path_valid(cube3, racke_cube3):
    for _ in range(10):
        path = racke_cube3.sample_path(0, 7)
        cube3.validate_path(path, source=0, target=7)


def test_competitiveness_is_reasonable(small_expander):
    builder = RaeckeTreeRouting(small_expander, rng=1)
    demand = random_permutation_demand(small_expander, rng=2)
    routing = builder.routing_for_demand(demand)
    achieved = routing.congestion(demand)
    optimum = min_congestion_lp(small_expander, demand).congestion
    # The MWU-over-trees construction should be within a modest factor of optimal
    # on a small expander (this is the measured substitute for Räcke's O(log n)).
    assert achieved <= 12.0 * max(optimum, 1e-9)


def test_reproducible_with_seed(small_expander):
    a = RaeckeTreeRouting(small_expander, num_trees=3, rng=7)
    b = RaeckeTreeRouting(small_expander, num_trees=3, rng=7)
    assert a.pair_distribution(0, 5) == b.pair_distribution(0, 5)


# sha256 of ``routing()`` over every ordered pair plus 200 seeded
# ``sample_path`` draws, for three topologies at seeds 0-2 (see
# ``_seeded_output_digest``).  A tree has one simple path per pair, so no
# change in how tree paths are computed may move it.
SEEDED_OUTPUT_SHA256 = "5499966451cca978bfba25c636640e038e8a729cd6f3bf2df55bf9d63f658176"


def _seeded_output_digest() -> str:
    digest = hashlib.sha256()
    networks = [topologies.hypercube(3), topologies.torus_2d(4), isp(pops=6, seed=0)]
    for network in networks:
        pairs = list(network.vertex_pairs(ordered=True))
        for seed in range(3):
            builder = RaeckeTreeRouting(network, rng=seed)
            routing = builder.routing()
            for pair in pairs:
                digest.update(repr((pair, sorted(routing.distribution(*pair).items()))).encode())
            draws = np.random.default_rng(seed)
            for index in range(200):
                source, target = pairs[index % len(pairs)]
                digest.update(repr(builder.sample_path(source, target, rng=draws)).encode())
    return digest.hexdigest()


def test_seeded_routing_and_samples_are_pinned():
    assert _seeded_output_digest() == SEEDED_OUTPUT_SHA256


def test_tree_paths_run_no_graph_search(monkeypatch):
    network = isp(pops=6, seed=0)
    builder = RaeckeTreeRouting(network, rng=0)

    def no_search(*args, **kwargs):
        raise AssertionError("a tree path ran a per-pair graph search")

    monkeypatch.setattr(nx, "shortest_path", no_search)
    monkeypatch.setattr(nx, "bidirectional_shortest_path", no_search)
    pairs = list(network.vertex_pairs(ordered=True))
    assert builder.prewarm(pairs) == len(pairs)
    for source, target in pairs[:50]:
        network.validate_path(builder.sample_path(source, target), source=source, target=target)


@settings(max_examples=60, deadline=None)
@given(
    network=labelled_networks(),
    num_trees=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_tree_paths_are_the_unique_tree_paths(network, num_trees, seed):
    builder = RaeckeTreeRouting(network, num_trees=num_trees, rng=seed)
    trees = builder.trees
    assert len(trees) == num_trees
    n = network.num_vertices
    for tree in trees:
        assert tree.number_of_nodes() == n and nx.is_connected(tree)
        assert tree.number_of_edges() == n - 1
        assert all(network.has_edge(u, v) for u, v in tree.edges())
    for source, target in network.vertex_pairs(ordered=True):
        for index, tree in enumerate(trees):
            expected = tuple(nx.shortest_path(tree, source, target))
            assert builder.tree_path(index, source, target) == expected
        assert sum(builder.distribution_for(source, target).values()) == pytest.approx(1.0)


def _parent_maps(builder):
    """Each tree's ``{vertex: parent}`` (``None`` at the root), by vertex label."""
    vertices = builder.network.vertices
    return [
        {vertices[v]: (vertices[u] if u != v else None) for v, u in enumerate(parent.tolist())}
        for parent, _ in builder._trees
    ]


def _mwu_step(network, parent, lengths, epsilon):
    """The lengths after one tree: the MWU update from the tree's relative loads."""
    n = network.num_vertices
    depth = {}
    for vertex in parent:
        steps, above = 0, vertex
        while parent[above] is not None:
            steps, above = steps + 1, parent[above]
        depth[vertex] = steps
    size = {vertex: 1 for vertex in parent}
    loads = {}
    for vertex in sorted(parent, key=depth.__getitem__, reverse=True):
        above = parent[vertex]
        if above is not None:
            size[above] += size[vertex]
            edge = network.edge_index(vertex, above)
            loads[edge] = size[vertex] * (n - size[vertex]) / network.capacity(vertex, above)
    top = max(loads.values(), default=1.0)
    lengths = list(lengths)
    for edge, load in loads.items():
        lengths[edge] *= math.exp(epsilon * load / top)
    return lengths


def _networkx_parent_maps(network, num_trees, epsilon, perturbation, seed):
    """The trees of the same MWU construction with networkx's Dijkstra (the reference)."""
    rng = np.random.default_rng(seed)
    lengths = [1.0 / network.capacity_of(edge) for edge in network.edges]
    maps = []
    for _ in range(num_trees):
        weighted = nx.Graph()
        for (u, v), base in zip(network.edges, lengths):
            weighted.add_edge(u, v, weight=base * (1.0 + perturbation * float(rng.random())))
        root = network.vertices[int(rng.integers(0, network.num_vertices))]
        _, paths = nx.single_source_dijkstra(weighted, root, weight="weight")
        maps.append({v: (path[-2] if len(path) > 1 else None) for v, path in paths.items()})
        lengths = _mwu_step(network, maps[-1], lengths, epsilon)
    return maps


@settings(max_examples=60, deadline=None)
@given(
    network=labelled_networks(),
    num_trees=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_csgraph_trees_equal_networkx_dijkstra_trees(network, num_trees, seed):
    builder = RaeckeTreeRouting(network, num_trees=num_trees, rng=seed)
    expected = _networkx_parent_maps(network, num_trees, 0.5, 0.3, seed)
    assert _parent_maps(builder) == expected


@settings(max_examples=60, deadline=None)
@given(network=labelled_networks(), seed=st.integers(0, 2**16))
def test_batched_tree_paths_equal_the_per_pair_walk(network, seed):
    builder = RaeckeTreeRouting(network, num_trees=4, rng=seed)
    pairs = list(network.vertex_pairs(ordered=True))
    reference = Routing(network, {pair: builder.distribution_for(*pair) for pair in pairs})
    routing = RaeckeTreeRouting(network, num_trees=4, rng=seed).routing(pairs)
    for pair in pairs:
        assert list(routing.distribution(*pair).items()) == list(
            reference.distribution(*pair).items()
        )


@pytest.mark.parametrize("network", [topologies.torus_2d(4), topologies.hypercube(3)], ids=str)
def test_unperturbed_trees_are_deterministic_shortest_path_trees(network):
    builder = RaeckeTreeRouting(network, perturbation=0, rng=4)
    maps = _parent_maps(builder)
    assert maps == _parent_maps(RaeckeTreeRouting(network, perturbation=0, rng=4))
    lengths = [1.0 / network.capacity_of(edge) for edge in network.edges]
    for parent in maps:
        (root,) = [vertex for vertex, above in parent.items() if above is None]
        tree = nx.Graph((v, u) for v, u in parent.items() if u is not None)
        assert tree.number_of_nodes() == network.num_vertices and nx.is_tree(tree)
        weighted = nx.Graph()
        weighted.add_weighted_edges_from(
            (u, v, length) for (u, v), length in zip(network.edges, lengths)
        )
        distance = nx.single_source_dijkstra_path_length(weighted, root)
        for vertex, above in parent.items():
            if above is not None:
                step = lengths[network.edge_index(vertex, above)]
                assert distance[vertex] == pytest.approx(distance[above] + step, rel=1e-12)
        lengths = _mwu_step(network, parent, lengths, 0.5)
