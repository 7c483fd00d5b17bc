"""Unit tests for repro.graphs.network."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError, PathError
from repro.graphs.network import Network, edge_key, path_edges
from repro.graphs import topologies


def test_edge_key_is_order_independent():
    assert edge_key(1, 2) == edge_key(2, 1)
    assert edge_key("a", "b") == edge_key("b", "a")


def test_path_edges_lists_consecutive_edges():
    assert path_edges((1, 2, 3)) == [edge_key(1, 2), edge_key(2, 3)]
    assert path_edges((7,)) == []


def test_network_basic_counts(cube3):
    assert cube3.num_vertices == 8
    assert cube3.num_edges == 12
    assert len(cube3) == 8
    assert set(cube3.vertices) == set(range(8))


def test_network_rejects_empty_graph():
    with pytest.raises(GraphError):
        Network(nx.Graph())


def test_network_rejects_disconnected_graph():
    graph = nx.Graph()
    graph.add_edge(0, 1)
    graph.add_edge(2, 3)
    with pytest.raises(GraphError):
        Network(graph)
    # but allowed explicitly
    net = Network(graph, require_connected=False)
    assert net.num_vertices == 4


def test_parallel_edges_become_capacity():
    multi = nx.MultiGraph()
    multi.add_edge(0, 1)
    multi.add_edge(0, 1)
    multi.add_edge(1, 2)
    net = Network(multi)
    assert net.capacity(0, 1) == pytest.approx(2.0)
    assert net.capacity(1, 2) == pytest.approx(1.0)


def test_self_loops_are_dropped():
    graph = nx.Graph()
    graph.add_edge(0, 0)
    graph.add_edge(0, 1)
    net = Network(graph)
    assert net.num_edges == 1


def test_nonpositive_capacity_rejected():
    graph = nx.Graph()
    graph.add_edge(0, 1, capacity=0.0)
    with pytest.raises(GraphError):
        Network(graph)


def test_non_numeric_capacity_raises_graph_error():
    graph = nx.Graph()
    graph.add_edge(0, 1, capacity="fat-pipe")
    with pytest.raises(GraphError, match="non-numeric capacity"):
        Network(graph)


def test_node_and_edge_attributes_are_preserved():
    # The ingestion layer stores coordinates and latencies as attributes;
    # Network construction must carry them through.
    graph = nx.Graph()
    graph.add_node("a", latitude=1.5, population=10)
    graph.add_node("b", latitude=2.5)
    graph.add_edge("a", "b", capacity=3.0, latency=7.25)
    net = Network(graph)
    assert net.graph.nodes["a"]["latitude"] == 1.5
    assert net.graph.nodes["a"]["population"] == 10
    assert net.graph["a"]["b"]["latency"] == 7.25
    assert net.capacity("a", "b") == 3.0


def test_from_edges_validates_declared_vertex_set():
    net = Network.from_edges(
        [("a", "b"), ("b", "c")], vertices=["a", "b", "c"], name="declared"
    )
    assert net.num_vertices == 3
    with pytest.raises(GraphError, match="unknown vertices"):
        Network.from_edges([("a", "z")], vertices=["a", "b"])
    # A declared but isolated vertex still fails the connectivity check.
    with pytest.raises(GraphError, match="connected"):
        Network.from_edges([("a", "b")], vertices=["a", "b", "c"])


def test_from_edges_rejects_nonpositive_and_non_numeric_capacities():
    with pytest.raises(GraphError, match="non-positive or non-finite"):
        Network.from_edges([("a", "b")], capacities={("a", "b"): 0.0})
    with pytest.raises(GraphError, match="non-positive or non-finite"):
        Network.from_edges([("a", "b")], capacities={("b", "a"): -1.0})
    with pytest.raises(GraphError, match="non-positive or non-finite"):
        Network.from_edges([("a", "b")], capacities={("a", "b"): float("nan")})
    with pytest.raises(GraphError, match="non-numeric capacity"):
        Network.from_edges([("a", "b")], capacities={("a", "b"): "wide"})


def test_non_finite_capacity_attribute_rejected():
    graph = nx.Graph()
    graph.add_edge(0, 1, capacity=float("inf"))
    with pytest.raises(GraphError, match="non-finite"):
        Network(graph)


def test_vertex_and_edge_indexing(cube3):
    for index, vertex in enumerate(cube3.vertices):
        assert cube3.vertex_index(vertex) == index
    for index, (u, v) in enumerate(cube3.edges):
        assert cube3.edge_index(u, v) == index
        assert cube3.edge_index(v, u) == index
    with pytest.raises(GraphError):
        cube3.vertex_index(999)
    with pytest.raises(GraphError):
        cube3.edge_index(0, 7)  # antipodal, not adjacent


def test_neighbors_and_degree(cube3):
    assert sorted(cube3.neighbors(0)) == [1, 2, 4]
    assert cube3.degree(0) == 3
    assert cube3.max_degree() == 3
    with pytest.raises(GraphError):
        cube3.neighbors(100)


def test_arcs_yield_both_orientations(cycle5):
    arcs = list(cycle5.arcs())
    assert len(arcs) == 2 * cycle5.num_edges
    assert len(set(arcs)) == len(arcs)


def test_vertex_pairs_ordered_and_unordered(path4):
    unordered = list(path4.vertex_pairs())
    ordered = list(path4.vertex_pairs(ordered=True))
    assert len(unordered) == 6
    assert len(ordered) == 12


def test_validate_path_accepts_valid(cube3):
    path = cube3.validate_path([0, 1, 3], source=0, target=3)
    assert path == (0, 1, 3)


@pytest.mark.parametrize(
    "path, kwargs",
    [
        ([], {}),
        ([0, 0], {}),
        ([0, 7], {}),  # not adjacent
        ([0, 1, 0], {}),  # not simple
        ([0, 1], {"source": 1}),
        ([0, 1], {"target": 0}),
        ([0, 999], {}),
    ],
)
def test_validate_path_rejects_invalid(cube3, path, kwargs):
    with pytest.raises(PathError):
        cube3.validate_path(path, **kwargs)


def test_shortest_path_and_distance(cube3):
    assert cube3.distance(0, 7) == 3
    path = cube3.shortest_path(0, 7)
    assert path[0] == 0 and path[-1] == 7
    assert cube3.path_length(path) == 3
    assert cube3.diameter() == 3


def test_congestion_accounting(path4):
    paths = [((0, 1, 2), 2.0), ((1, 2, 3), 1.0)]
    loads = path4.edge_loads(paths)
    assert loads[edge_key(1, 2)] == pytest.approx(3.0)
    assert path4.congestion(paths) == pytest.approx(3.0)


def test_congestion_respects_capacities():
    net = Network.from_edges([(0, 1), (1, 2)], capacities={(0, 1): 4.0})
    assert net.congestion([((0, 1), 2.0)]) == pytest.approx(0.5)
    assert net.congestion([((1, 2), 2.0)]) == pytest.approx(2.0)


def test_capacities_array_is_read_only_in_edge_order():
    import pickle

    net = Network.from_edges([("a", 1), (1, 2), (2, "a")], capacities={(1, 2): 3.5, (2, "a"): 0.5})
    expected = [net.capacity_of(edge) for edge in net.edges]
    ends = [[net.vertex_index(u), net.vertex_index(v)] for u, v in net.edges]
    for network in (net, pickle.loads(pickle.dumps(net))):
        assert network.capacities.tolist() == expected
        assert network.capacities.dtype == float
        assert network.endpoints.tolist() == ends
        assert network.endpoints.dtype == np.int64
        with pytest.raises(ValueError):
            network.capacities[0] = 9.0
        with pytest.raises(ValueError):
            network.endpoints[0, 0] = 2
    assert net.capacities is net.capacities  # built once
    assert net.endpoints is net.endpoints


def test_from_edges_merges_duplicates():
    net = Network.from_edges([(0, 1), (0, 1), (1, 2)])
    assert net.capacity(0, 1) == pytest.approx(2.0)


def test_relabeled_preserves_structure(path4):
    relabeled = path4.relabeled({v: f"v{v}" for v in path4.vertices})
    assert relabeled.num_vertices == path4.num_vertices
    assert relabeled.has_edge("v0", "v1")


def test_subnetwork(cube3):
    sub = cube3.subnetwork([0, 1, 3, 2])
    assert sub.num_vertices == 4
    with pytest.raises(GraphError):
        cube3.subnetwork([0, 999])


@settings(max_examples=25, deadline=None)
@given(dimension=st.integers(min_value=1, max_value=5))
def test_hypercube_shortest_distance_is_hamming(dimension):
    net = topologies.hypercube(dimension)
    size = 1 << dimension
    source, target = 0, size - 1
    assert net.distance(source, target) == dimension


@settings(max_examples=20, deadline=None)
@given(
    rows=st.integers(min_value=2, max_value=5),
    cols=st.integers(min_value=2, max_value=5),
)
def test_grid_counts(rows, cols):
    net = topologies.grid_2d(rows, cols)
    assert net.num_vertices == rows * cols
    assert net.num_edges == rows * (cols - 1) + cols * (rows - 1)


# Each vertex type, with a constructor for its labels and one for equal
# labels of another type (the form numpy code hands back).
_VERTEX_TYPES = {
    "int": (int, np.int64),
    "np.int64": (np.int64, int),
    "str": (lambda i: f"v{i}", lambda i: "v" + str(i)),
    "tuple": (lambda i: (i // 4, i % 4), lambda i: (np.int64(i // 4), np.int64(i % 4))),
}


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(_VERTEX_TYPES)),
    n=st.integers(min_value=4, max_value=14),
    data=st.data(),
)
def test_equal_labels_of_another_type_find_the_same_edges(kind, n, data):
    own, foreign = _VERTEX_TYPES[kind]
    graph = nx.relabel_nodes(nx.path_graph(n), {i: own(i) for i in range(n)})
    for i in range(n - 2):
        if data.draw(st.booleans()):
            graph.add_edge(own(i), own(i + 2), capacity=float(i + 1))
    network = Network(graph)
    edges = network.edges
    target = data.draw(st.integers(1, n - 1))
    path = network.shortest_path(own(0), own(target))
    position = {own(i): i for i in range(n)}
    mixed = [data.draw(st.sampled_from((own, foreign)))(position[vertex]) for vertex in path]

    canonical = network.validate_path(mixed, source=foreign(0), target=own(target))
    assert canonical == path
    assert all(type(a) is type(b) for a, b in zip(canonical, path))
    assert set(path_edges(canonical)) <= set(edges)
    for (u, v), (a, b) in zip(zip(mixed, mixed[1:]), zip(path, path[1:])):
        index = network.edge_index(a, b)
        assert network.has_edge(u, v) and network.has_edge(v, u)
        assert network.edge_index(u, v) == network.edge_index(v, u) == index
        assert network.capacity(v, u) == network.capacity_of(edges[index])
    # The index order is the network's own and does not depend on the lookups.
    assert network.edges == edges
    # Every edge, both orientations, any mix of label types: one id, the
    # edge's position in ``network.edges``.
    for index, (a, b) in enumerate(edges):
        u = data.draw(st.sampled_from((own, foreign)))(position[a])
        v = data.draw(st.sampled_from((own, foreign)))(position[b])
        assert network.edge_index(u, v) == network.edge_index(v, u) == index
        assert edges.index(edge_key(a, b)) == index
    assert network.path_edge_ids(mixed) == [
        network.edge_index(u, v) for u, v in zip(mixed, mixed[1:])
    ]
    # Non-edges and unhashable labels raise the typed error at the boundary.
    far = foreign(n - 1)  # only labels at most two apart are joined, and n >= 4
    assert not network.has_edge(own(0), far)
    with pytest.raises(GraphError):
        network.edge_index(own(0), far)
    with pytest.raises(GraphError):
        network.path_edge_ids([own(0), far])
    for unhashable in ([0], {0: 1}):
        assert not network.has_edge(unhashable, own(0))
        assert not network.has_edge(own(0), unhashable)
        with pytest.raises(GraphError):
            network.edge_index(unhashable, own(0))
        with pytest.raises(GraphError):
            network.edge_index(own(0), unhashable)
        with pytest.raises(GraphError):
            network.path_edge_ids([own(0), own(1), unhashable])


def test_unhashable_labels_raise_typed_errors(cube3):
    assert not cube3.has_edge([1], 2)
    with pytest.raises(GraphError):
        cube3.edge_index([1], 2)
    with pytest.raises(GraphError):
        cube3.capacity([1], 2)
