"""Randomized equivalence: dict vs compiled evaluators, within 1e-9.

For random topologies, random multi-path routings and random demands —
including zero amounts, pairs missing from the routing, and post-failure
rebased systems — the compiled backend must agree with the dict oracle on
edge loads, congestion and dilation within 1e-9 (bit-identity is not required: float summation
order differs between the loop and matmul implementations).  A property test repeats the check
on vertex labels of mixed types, and a 2002-node network holds compile plus evaluation under a
fixed tracemalloc ceiling.
"""

import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.routing import Routing
from repro.demands.demand import Demand
from repro.exceptions import RoutingError
from repro.graphs import topologies
from repro.graphs.generators import erdos_renyi_connected
from repro.graphs.network import Network
from repro.linalg import build_evaluator
from repro.synth import isp, isp_node_count
from repro.te.failures import FailureEvent, KEdgeFailureProcess
from repro.utils.timing import PeakMemory

TOL = 1e-9


def random_routing(network: Network, rng, pair_fraction=0.6, max_paths=3) -> Routing:
    """A random multi-path routing over a random subset of ordered pairs."""
    pairs = [
        (u, v)
        for u, v in itertools.permutations(network.vertices, 2)
        if rng.random() < pair_fraction
    ]
    if not pairs:
        pairs = [tuple(network.vertices[:2])]
    distributions = {}
    for source, target in pairs:
        candidates = []
        for path in nx.shortest_simple_paths(network.graph, source, target):
            candidates.append(tuple(path))
            if len(candidates) >= max_paths:
                break
        weights = rng.random(len(candidates)) + 0.05
        # Randomly drop some candidates to vary support sizes.
        keep = rng.random(len(candidates)) < 0.8
        keep[0] = True
        weights = np.where(keep, weights, 0.0)
        total = weights.sum()
        distributions[(source, target)] = {
            path: float(weight / total)
            for path, weight in zip(candidates, weights)
            if weight > 0
        }
    return Routing(network, distributions)


def random_demand(routing: Routing, rng, include_zero=True) -> Demand:
    """A random demand over covered pairs (with explicit zero entries)."""
    values = {}
    for pair in routing.pairs():
        draw = rng.random()
        if draw < 0.4:
            continue
        if include_zero and draw < 0.5:
            values[pair] = 0.0  # dropped by the constructor in every backend
        else:
            values[pair] = float(rng.random() * 5)
    return Demand(values)


def _topologies(rng):
    yield topologies.hypercube(3)
    yield topologies.torus_2d(3)
    yield topologies.two_cliques_bridged(4, 2)
    yield erdos_renyi_connected(10, 0.35, rng=rng)


def test_backends_match_dict_on_random_instances():
    rng = np.random.default_rng(7)
    checked = 0
    for trial, network in enumerate(_topologies(rng)):
        routing = random_routing(network, rng)
        reference = build_evaluator(routing, backend="dict")
        evaluator = build_evaluator(routing, backend="sparse")
        demands = [random_demand(routing, rng) for _ in range(6)] + [Demand.empty()]
        ref_batch = reference.congestions(demands)
        ref_loads = reference.edge_load_matrix(demands)
        assert np.allclose(evaluator.congestions(demands), ref_batch, atol=TOL, rtol=0)
        assert np.allclose(evaluator.edge_load_matrix(demands), ref_loads, atol=TOL, rtol=0)
        for demand in demands:
            assert evaluator.congestion(demand) == pytest.approx(
                reference.congestion(demand), abs=TOL
            )
            assert evaluator.dilation(demand) == reference.dilation(demand)
            ref_edges = reference.edge_congestions(demand)
            got_edges = evaluator.edge_congestions(demand)
            keys = set(ref_edges) | set(got_edges)
            for key in keys:
                assert got_edges.get(key, 0.0) == pytest.approx(
                    ref_edges.get(key, 0.0), abs=TOL
                )
            checked += 1
    assert checked > 25


def test_missing_pairs_raise_in_every_backend():
    rng = np.random.default_rng(11)
    network = topologies.hypercube(3)
    routing = random_routing(network, rng, pair_fraction=0.3)
    covered = set(routing.pairs())
    missing = next(
        pair for pair in itertools.permutations(network.vertices, 2) if pair not in covered
    )
    demand = Demand({missing: 1.0})
    for backend in ("dict", "sparse"):
        with pytest.raises(RoutingError):
            build_evaluator(routing, backend=backend).congestion(demand)
        with pytest.raises(RoutingError):
            build_evaluator(routing, backend=backend).congestions([demand])


def _dict_renormalized_congestion(routing: Routing, demand: Demand, event: FailureEvent):
    """The scenario runner's fixed-ratio renormalization (reference)."""
    banned = {frozenset(edge) for edge in event.failed_edges}
    scales = {frozenset(edge): scale for edge, scale in event.capacity_scale}
    weighted = []
    pairs = demand.pairs()
    covered = 0
    for source, target in pairs:
        if not routing.covers(source, target):
            continue
        surviving = {
            path: probability
            for path, probability in routing.distribution(source, target).items()
            if not any(frozenset((u, v)) in banned for u, v in zip(path, path[1:]))
        }
        if not surviving:
            continue
        covered += 1
        total = sum(surviving.values())
        amount = demand.value(source, target)
        for path, probability in surviving.items():
            weighted.append((path, amount * probability / total))
    coverage = covered / len(pairs) if pairs else 1.0
    if pairs and covered < len(pairs):
        return None, coverage
    loads = routing.network.edge_loads(weighted)
    worst = 0.0
    for edge, load in loads.items():
        if frozenset(edge) in banned:
            continue
        capacity = routing.network.capacity_of(edge) * scales.get(frozenset(edge), 1.0)
        worst = max(worst, load / capacity)
    return worst, coverage


def test_rebased_systems_match_dict_renormalization():
    rng = np.random.default_rng(23)
    process = KEdgeFailureProcess(k=2)
    for network in _topologies(rng):
        routing = random_routing(network, rng)
        evaluator = build_evaluator(routing, backend="sparse")
        for _ in range(3):
            event = process.sample(network, rng)
            rebased = evaluator.rebased(event)
            for _ in range(3):
                demand = random_demand(routing, rng)
                expected, coverage = _dict_renormalized_congestion(routing, demand, event)
                assert rebased.coverage(demand) == pytest.approx(coverage, abs=TOL)
                got = rebased.congestion(demand)
                if expected is None:
                    assert got == float("inf")
                else:
                    assert got == pytest.approx(expected, abs=TOL)


def test_rebased_capacity_degradation_matches():
    rng = np.random.default_rng(31)
    network = topologies.torus_2d(3)
    routing = random_routing(network, rng)
    edges = network.edges
    event = FailureEvent(
        capacity_scale=((edges[0], 0.5), (edges[3], 0.25)),
        label="degrade",
    )
    rebased = build_evaluator(routing, backend="sparse").rebased(event)
    for _ in range(4):
        demand = random_demand(routing, rng)
        expected, coverage = _dict_renormalized_congestion(routing, demand, event)
        assert coverage == 1.0
        assert rebased.congestion(demand) == pytest.approx(expected, abs=TOL)


# One label per vertex, of mixed types; ``foreign`` gives an equal label
# of another type where one exists (the form numpy code hands back).
# np.int64 appears only as a foreign label: as a vertex of its own it
# compares against tuple vertices elementwise, which networkx rejects.
_LABELS = (
    (lambda i: i, np.int64),
    (lambda i: f"v{i}", lambda i: f"v{i}"),
    (lambda i: (i, "t"), lambda i: (np.int64(i), "t")),
)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=3, max_value=9), data=st.data())
def test_compiled_matches_the_dict_oracle_on_mixed_labels(n, data):
    kinds = [data.draw(st.integers(0, len(_LABELS) - 1)) for _ in range(n)]
    own = [_LABELS[kind][0](i) for i, kind in enumerate(kinds)]
    foreign = [_LABELS[kind][1](i) for i, kind in enumerate(kinds)]
    graph = nx.Graph()
    graph.add_nodes_from(own)
    for i in range(1, n):  # a random spanning tree keeps the graph connected
        graph.add_edge(own[i], own[data.draw(st.integers(0, i - 1))], capacity=1.0)
    for i, j in itertools.combinations(range(n), 2):
        if data.draw(st.booleans()):
            graph.add_edge(own[i], own[j], capacity=data.draw(st.sampled_from((0.5, 1.0, 3.0))))
    network = Network(graph)
    index = {label: i for i, label in enumerate(own)}

    distributions = {}
    for s, t in data.draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=1, max_size=12)
    ):
        if s == t:
            continue
        paths = list(itertools.islice(nx.shortest_simple_paths(graph, own[s], own[t]), 3))
        paths = paths[: data.draw(st.integers(1, len(paths)))]
        weights = [data.draw(st.integers(1, 5)) for _ in paths]
        distributions[(own[s], own[t])] = {
            tuple(data.draw(st.sampled_from((own, foreign)))[index[v]] for v in path): w / sum(weights)
            for path, w in zip(paths, weights)
        }
    if not distributions:
        return
    routing = Routing(network, distributions)
    pairs = list(routing.pairs())
    demands = [
        Demand({pair: data.draw(st.floats(0.05, 4.0)) for pair in pairs})
        for _ in range(data.draw(st.integers(1, 3)))
    ]

    compiled = build_evaluator(routing, backend="auto")
    oracle = build_evaluator(routing, backend="dict")
    np.testing.assert_allclose(
        compiled.edge_load_matrix(demands), oracle.edge_load_matrix(demands), atol=TOL, rtol=0
    )
    np.testing.assert_allclose(
        compiled.congestions(demands), oracle.congestions(demands), atol=TOL, rtol=0
    )
    for demand in demands:
        assert compiled.congestion(demand) == pytest.approx(oracle.congestion(demand), abs=TOL)


def _isp_4000_pairs():
    """A single-path routing of 4000 pairs on a 2002-node network, and its all-pairs demand."""
    pops = 182
    network = isp(pops, seed=42)
    assert network.num_vertices == isp_node_count(pops) >= 2000

    rng = np.random.default_rng(1)
    vertices = list(network.vertices)
    pairs = sorted(
        {
            (vertices[int(s)], vertices[int(t)])
            for s, t in zip(
                rng.integers(0, len(vertices), size=4200),
                rng.integers(0, len(vertices), size=4200),
            )
            if s != t
        }
    )[:4000]
    by_source = {}
    for source, target in pairs:
        by_source.setdefault(source, []).append(target)
    mapping = {}
    for source, targets in by_source.items():
        tree = nx.single_source_shortest_path(network.graph, source)
        for target in targets:
            mapping[(source, target)] = tree[target]
    return Routing.single_path(network, mapping), [Demand({pair: 1.0 for pair in pairs})]


def test_2k_node_compile_and_evaluation_stay_under_48_mb():
    # Compile plus evaluation of 4000 pairs on a 2002-node network stay
    # under 48 MB of tracemalloc peak and agree with the dict oracle.
    ceiling_mb = 48.0
    routing, demands = _isp_4000_pairs()
    with PeakMemory() as mem:
        congestions = build_evaluator(routing, backend="auto").congestions(demands)
    assert congestions.shape == (1,)
    assert float(congestions[0]) > 0.0
    peak_mb = mem.peak_kb / 1024.0
    assert peak_mb <= ceiling_mb, f"peak {peak_mb:.1f} MB exceeds {ceiling_mb} MB"
    oracle = build_evaluator(routing, backend="dict").congestions(demands)
    np.testing.assert_allclose(congestions, oracle, atol=TOL, rtol=0)
