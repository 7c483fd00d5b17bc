"""Hypothesis strategies, and the per-item oracles, shared by several test modules."""

import networkx as nx
import numpy as np
from hypothesis import assume
from hypothesis import strategies as st
from scipy import sparse

from repro.exceptions import InfeasibleError, RoutingError
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


def oracle_demand_vector(pair_index, demand, missing):
    """The demand vector over ``pair_index`` (a ``{pair: row}`` dict), one item at a time.

    The reference for the compiled evaluator's vectorizer: amounts ``<= 0``
    are skipped, and the first uncovered positive pair raises
    :class:`RoutingError` unless ``missing == "drop"``.
    """
    vector = np.zeros(len(pair_index), dtype=float)
    for (source, target), amount in demand.items():
        if amount <= 0:
            continue
        index = pair_index.get((source, target))
        if index is None:
            if missing == "drop":
                continue
            raise RoutingError(f"routing does not cover pair {(source, target)!r}")
        vector[index] += amount
    return vector


def oracle_demand_matrix(pair_index, demands, missing):
    """The (batch × pair) CSR matrix of :func:`oracle_demand_vector` rows, built item by item."""
    rows, cols, data = [], [], []
    for row, demand in enumerate(demands):
        for (source, target), amount in demand.items():
            if amount <= 0:
                continue
            index = pair_index.get((source, target))
            if index is None:
                if missing == "drop":
                    continue
                raise RoutingError(f"routing does not cover pair {(source, target)!r}")
            rows.append(row)
            cols.append(index)
            data.append(float(amount))
    matrix = sparse.csr_matrix(
        (np.asarray(data, dtype=float),
         (np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp))),
        shape=(len(demands), len(pair_index)),
    )
    matrix.sum_duplicates()
    return matrix


def oracle_right_hand_side(pair_index, demand):
    """The path LP's demanded rows (demand order) and per-pair amounts, item by item.

    Every entry counts, whatever its amount; the first pair outside
    ``pair_index`` raises :class:`InfeasibleError`.
    """
    order, values = [], []
    for pair, amount in demand.items():
        index = pair_index.get(pair)
        if index is None:
            raise InfeasibleError(f"path system has no candidate path for pair {pair!r}")
        order.append(index)
        values.append(amount)
    amounts = np.zeros(len(pair_index))
    amounts[order] = values
    return np.array(order, dtype=np.int64), amounts


#: How :func:`demand_sequences` derives each demand from the one before.
MEMO_STEPS = ("new values", "permuted", "subset", "superset")


@st.composite
def demand_sequences(draw):
    """A labelled network, the pairs a routing covers, and plain-dict demands in sequence.

    Amounts are zero, negative, fractional or integral, and keys include
    uncovered pairs (some with a vertex outside the network).  Each demand
    after the first keeps the previous key order with new values, permutes
    it, takes a prefix, or repeats it with new values and then appends one
    more pair, uncovered when one is left: a key-order memo sees hits,
    misses and a miss right after a hit.
    """
    network = draw(labelled_networks())
    rnd = draw(st.randoms(use_true_random=False))
    vertices = network.vertices
    pairs = [(s, t) for s in vertices for t in vertices if s != t]
    covered = rnd.sample(pairs, rnd.randint(1, len(pairs)))
    keys = pairs + [("nowhere", vertices[0]), (vertices[-1], "nowhere")]

    def amount():
        return rnd.choice([0.0, -1.0, -0.5, 0.25, 1.0 + rnd.random(), 3])

    sequence = [{pair: amount() for pair in rnd.sample(keys, rnd.randint(0, len(keys)))}]
    for step in draw(st.lists(st.sampled_from(MEMO_STEPS), max_size=6)):
        last = list(sequence[-1])
        if step == "permuted":
            rnd.shuffle(last)
            sequence.append({pair: sequence[-1][pair] for pair in last})
        elif step == "subset":
            sequence.append({pair: sequence[-1][pair] for pair in last[:rnd.randint(0, len(last))]})
        else:
            sequence.append({pair: amount() for pair in last})
            if step == "superset":
                left = [pair for pair in keys if pair not in sequence[-1]]
                uncovered = [pair for pair in left if pair not in covered]
                if left:
                    extended = dict(sequence[-1])
                    extended[rnd.choice(uncovered or left)] = 1.0 + rnd.random()
                    sequence.append(extended)
    return network, covered, sequence
