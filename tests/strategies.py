"""Hypothesis strategies, and the per-path routing oracle, shared by several test modules."""

import networkx as nx
from hypothesis import assume
from hypothesis import strategies as st

from repro.exceptions import RoutingError
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


def oracle_distributions(network, distributions):
    """The distributions a routing over ``distributions`` holds, checked path by path.

    The reference for ``Routing``'s vectorized audit: ``Network.validate_path``
    on every path of positive probability, then the ``1e-6`` sum rule and an
    exact renormalization.  Raises the typed error ``Routing`` must raise.
    """
    checked = {}
    for (source, target), distribution in distributions.items():
        if source == target:
            raise RoutingError("routings do not cover pairs with identical endpoints")
        cleaned = {}
        for path, probability in distribution.items():
            probability = float(probability)
            if probability < -1e-12:
                raise RoutingError(f"negative probability {probability} for path {path!r}")
            if probability <= 0:
                continue
            canonical = network.validate_path(path, source=source, target=target)
            cleaned[canonical] = cleaned.get(canonical, 0.0) + probability
        if not cleaned:
            raise RoutingError(f"distribution for pair {(source, target)!r} is empty")
        total = sum(cleaned.values())
        if not abs(total - 1.0) <= 1e-6:
            raise RoutingError(f"probabilities for pair {(source, target)!r} sum to {total}")
        checked[(source, target)] = {path: p / total for path, p in cleaned.items()}
    return checked


#: The single faults :func:`routing_inputs` may inject.
FAULTS = (
    "non-adjacent step", "repeated vertex", "wrong endpoint", "unknown vertex", "empty path",
    "bad sum", "negative", "NaN", "empty distribution", "source == target",
)


def _random_path(network, source, target, rnd):
    """A simple (source, target)-path: a random self-avoiding walk, else a shortest path."""
    path = [source]
    while path[-1] != target:
        options = [v for v in network.neighbors(path[-1]) if v not in path]
        if not options:
            return network.shortest_path(source, target)
        path.append(rnd.choice(options))
    return tuple(path)


@st.composite
def routing_inputs(draw):
    """A labelled network, distributions over some of its pairs, and the one fault injected.

    Some paths have probability zero, and some pairs also carry an invalid
    path of probability zero; neither is a fault.  The fault (``None`` for
    none) always hits a path of positive probability.
    """
    network = draw(labelled_networks())
    rnd = draw(st.randoms(use_true_random=False))
    vertices = network.vertices
    pairs = [(s, t) for s in vertices for t in vertices if s != t]
    distributions = {}
    for source, target in rnd.sample(pairs, rnd.randint(1, min(len(pairs), 6))):
        paths = list(dict.fromkeys(
            _random_path(network, source, target, rnd) for _ in range(rnd.randint(1, 3))
        ))
        raw = [1.0 + rnd.random()] + [rnd.choice([0.0, 0.5, rnd.random()]) for _ in paths[1:]]
        distribution = {path: w / sum(raw) for path, w in zip(paths, raw)}
        if rnd.random() < 0.3:
            distribution[(target, "nowhere", source)] = 0.0
        distributions[(source, target)] = distribution
    fault = draw(st.sampled_from((None,) + FAULTS))
    (source, target), distribution = next(iter(distributions.items()))
    first, *rest = distribution.items()
    path, probability = first
    if fault == "non-adjacent step":
        apart = [(u, v) for u, v in pairs if not network.has_edge(u, v)]
        assume(apart)
        u, v = rnd.choice(apart)
        distributions[(u, v)] = {(u, v): 1.0}
    elif fault in ("repeated vertex", "wrong endpoint", "unknown vertex", "empty path"):
        broken = {
            "repeated vertex": (source, network.neighbors(source)[0]) + path,
            "wrong endpoint": path[:-1],
            "unknown vertex": path[:1] + ("nowhere",) + path[1:],
            "empty path": (),
        }[fault]
        distributions[(source, target)] = dict([(broken, probability)] + rest)
    elif fault in ("negative", "NaN"):
        value = -0.25 if fault == "negative" else float("nan")
        distributions[(source, target)] = dict([(path, value)] + rest)
    elif fault == "bad sum":
        distributions[(source, target)] = {p: 0.9 * w for p, w in distribution.items()}
    elif fault == "empty distribution":
        distributions[(source, target)] = {}
    elif fault == "source == target":
        distributions[(source, source)] = {(source,): 1.0}
    return network, distributions, fault
