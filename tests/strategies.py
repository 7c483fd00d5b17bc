"""Hypothesis strategies shared by several test modules."""

import networkx as nx
from hypothesis import strategies as st

from repro.graphs.network import Network

# Vertex labels of each type, from an integer index.
_LABELS = {
    "int": lambda i: i,
    "str": lambda i: f"v{i}",
    "tuple": lambda i: (i // 3, i % 3),
}


@st.composite
def labelled_networks(draw) -> Network:
    """A connected 2-9 node graph with int, str, tuple or mixed labels and random capacities."""
    kind = draw(st.sampled_from(sorted(_LABELS) + ["mixed"]))
    n = draw(st.integers(2, 9))
    if kind == "mixed":
        kinds = [draw(st.sampled_from(sorted(_LABELS))) for _ in range(n)]
    else:
        kinds = [kind] * n
    labels = [_LABELS[name](i) for i, name in enumerate(kinds)]
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}  # a random spanning tree
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    edges |= {(min(u, v), max(u, v)) for u, v in extra if u != v}
    graph = nx.Graph()
    for u, v in sorted(edges):
        graph.add_edge(labels[u], labels[v], capacity=draw(st.floats(0.25, 4.0, allow_nan=False)))
    return Network(graph)
