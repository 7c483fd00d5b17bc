"""Tests for memory-bounded tiled evaluation (repro.linalg.tiled).

The contract: with ``tile_pairs=``/``memory_budget_mb=`` set, the
compiled backend never materializes the full pair × edge operator —
tiles are built on demand from the incidence triplets and streamed into
the load accumulator — and the result agrees with the untiled reference
within 1e-9, through failures and rebases, while a fixed working-set
budget actually bounds peak memory.
"""

import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.routing import Routing
from repro.demands.demand import Demand
from repro.exceptions import LinalgError
from repro.graphs import topologies
from repro.graphs.network import Network
from repro.linalg import BACKENDS, build_evaluator
from repro.linalg.tiled import TilePlan, plan_pair_tiles
from repro.synth import isp, isp_node_count
from repro.te.failures import FailureEvent
from repro.utils.timing import PeakMemory

TOL = 1e-9

#: Every compiled backend (all but the dict oracle).
COMPILED = [backend for backend in BACKENDS if backend != "dict"]


def _multipath_routing(network, rng, max_paths=3) -> Routing:
    distributions = {}
    vertices = list(network.vertices)
    for source in vertices[: len(vertices) // 2]:
        for target in vertices[len(vertices) // 2 :]:
            if source == target or rng.random() < 0.4:
                continue
            candidates = []
            for path in nx.shortest_simple_paths(network.graph, source, target):
                candidates.append(tuple(path))
                if len(candidates) >= max_paths:
                    break
            weights = rng.random(len(candidates)) + 0.1
            distributions[(source, target)] = {
                path: float(w / weights.sum())
                for path, w in zip(candidates, weights)
            }
    return Routing(network, distributions)


def _demands(routing, rng, count=4):
    pairs = list(routing.pairs())
    return [
        Demand(dict(zip(pairs, rng.random(len(pairs)) + 0.05)))
        for _ in range(count)
    ]


# --------------------------------------------------------------------- #
# Planning
# --------------------------------------------------------------------- #
def test_tile_plan_covers_the_pair_range():
    plan = TilePlan(num_pairs=10, tile_pairs=4)
    assert plan.num_tiles == 3
    assert not plan.is_single_tile
    tiles = list(plan.tiles())
    assert tiles == [(0, 4), (4, 8), (8, 10)]
    single = TilePlan(num_pairs=10, tile_pairs=10)
    assert single.is_single_tile


def test_plan_pair_tiles_budget_math():
    # No knobs -> one tile over everything.
    assert plan_pair_tiles(100, 50).is_single_tile
    # Explicit tile_pairs wins over any budget.
    plan = plan_pair_tiles(100, 50, tile_pairs=7, memory_budget_mb=10_000)
    assert plan.tile_pairs == 7
    # A budget tight enough to matter produces multiple tiles.
    tight = plan_pair_tiles(10_000, 4_000, memory_budget_mb=8.0)
    assert tight.num_tiles > 1
    assert tight.tile_pairs >= 1


def test_plan_pair_tiles_rejects_invalid_knobs():
    with pytest.raises(LinalgError):
        plan_pair_tiles(10, 10, tile_pairs=0)
    with pytest.raises(LinalgError):
        plan_pair_tiles(10, 10, memory_budget_mb=0.0)
    with pytest.raises(LinalgError):
        plan_pair_tiles(10, 10, memory_budget_mb=-5.0)
    with pytest.raises(LinalgError):
        build_evaluator(_square_routing(), backend="dict", tile_pairs=2)


def _square_routing():
    network = topologies.hypercube(2)
    rng = np.random.default_rng(0)
    return _multipath_routing(network, rng)


# --------------------------------------------------------------------- #
# Equivalence: tiled vs untiled
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", COMPILED)
def test_tiled_matches_untiled_within_tolerance(backend):
    network = topologies.torus_2d(4)
    rng = np.random.default_rng(3)
    routing = _multipath_routing(network, rng)
    demands = _demands(routing, rng)

    untiled = build_evaluator(routing, backend=backend)
    tiled = build_evaluator(routing, backend=backend, tile_pairs=3)
    assert tiled.compiled.tile_plan().num_tiles > 1
    assert not tiled.compiled.operator_materialized
    assert untiled.compiled.operator_materialized

    np.testing.assert_allclose(
        tiled.edge_load_matrix(demands), untiled.edge_load_matrix(demands),
        atol=TOL, rtol=0,
    )
    np.testing.assert_allclose(
        tiled.congestions(demands), untiled.congestions(demands), atol=TOL, rtol=0
    )
    for demand in demands:
        assert tiled.congestion(demand) == pytest.approx(
            untiled.congestion(demand), abs=TOL
        )


@pytest.mark.parametrize("backend", COMPILED)
def test_tiled_matches_untiled_after_rebase(backend):
    network = topologies.torus_2d(4)
    rng = np.random.default_rng(5)
    routing = _multipath_routing(network, rng)
    demands = _demands(routing, rng)
    event = FailureEvent(failed_edges=(tuple(sorted(network.edges[0])),), label="cut")

    untiled = build_evaluator(routing, backend=backend).rebased(event)
    tiled = build_evaluator(routing, backend=backend, tile_pairs=3).rebased(event)
    # Rebase must preserve laziness: still no materialized operator.
    assert not tiled.compiled.operator_materialized
    np.testing.assert_allclose(
        tiled.congestions(demands), untiled.congestions(demands), atol=TOL, rtol=0
    )


def test_memory_budget_knob_matches_untiled():
    network = topologies.torus_2d(4)
    rng = np.random.default_rng(9)
    routing = _multipath_routing(network, rng)
    demands = _demands(routing, rng)
    untiled = build_evaluator(routing, backend="auto")
    # A deliberately tiny budget: forces many tiles, same numbers.
    tiled = build_evaluator(routing, backend="auto", memory_budget_mb=0.01)
    assert tiled.compiled.tile_plan(batch_rows=len(demands)).num_tiles > 1
    np.testing.assert_allclose(
        tiled.congestions(demands), untiled.congestions(demands), atol=TOL, rtol=0
    )


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
def test_tiled_equals_untiled_and_the_dict_oracle(n, data):
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
    tile_pairs = data.draw(st.integers(1, len(pairs)))

    untiled = build_evaluator(routing, backend="auto")
    tiled = build_evaluator(routing, backend="auto", tile_pairs=tile_pairs)
    oracle = build_evaluator(routing, backend="dict")
    loads = oracle.edge_load_matrix(demands)
    congestions = oracle.congestions(demands)
    for evaluator in (tiled, untiled):
        np.testing.assert_allclose(evaluator.edge_load_matrix(demands), loads, atol=TOL, rtol=0)
        np.testing.assert_allclose(evaluator.congestions(demands), congestions, atol=TOL, rtol=0)
    np.testing.assert_allclose(
        tiled.edge_load_matrix(demands), untiled.edge_load_matrix(demands), atol=TOL, rtol=0
    )
    for demand in demands:
        assert tiled.congestion(demand) == pytest.approx(untiled.congestion(demand), abs=TOL)


def test_operator_tiles_concatenate_to_the_full_operator():
    routing = _square_routing()
    untiled = build_evaluator(routing, backend="auto").compiled
    tiled = build_evaluator(routing, backend="auto", tile_pairs=2).compiled
    stitched = np.vstack(
        [tiled.operator_tile(start, stop).toarray() for start, stop in tiled.tile_plan().tiles()]
    )
    np.testing.assert_allclose(stitched, untiled.pair_edge_operator.toarray(), atol=0, rtol=0)


# --------------------------------------------------------------------- #
# The scale guarantee: a 2k-node evaluation stays under budget
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def isp_4000_pairs():
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


def test_tiled_2k_node_evaluation_stays_under_budget(isp_4000_pairs):
    # A lean compile over 4000 pairs of a 2002-node network: the operator
    # is never materialized, and compile plus evaluation stay under the
    # 48 MB working-set budget and agree with the untiled reference.
    budget_mb = 48.0
    routing, demands = isp_4000_pairs
    with PeakMemory() as mem:
        evaluator = build_evaluator(
            routing, backend="auto", memory_budget_mb=budget_mb
        )
        congestions = evaluator.congestions(demands)
    assert not evaluator.compiled.operator_materialized
    assert congestions.shape == (1,)
    assert float(congestions[0]) > 0.0
    peak_mb = mem.peak_kb / 1024.0
    assert peak_mb <= budget_mb, f"peak {peak_mb:.1f} MB exceeds {budget_mb} MB budget"
    untiled = build_evaluator(routing, backend="auto").congestions(demands)
    np.testing.assert_allclose(congestions, untiled, atol=TOL, rtol=0)


def test_evaluation_peak_does_not_grow_as_the_budget_shrinks(isp_4000_pairs):
    # The budget bounds the tiles; the load accumulator and the demand
    # matrix are a fixed part (plan_pair_tiles), so the evaluation peak
    # falls towards that part and never rises as the budget shrinks.
    routing, demands = isp_4000_pairs
    peaks = []
    for budget_mb in (48.0, 1.0, 0.5, 0.1):
        evaluator = build_evaluator(routing, backend="auto", memory_budget_mb=budget_mb)
        with PeakMemory() as mem:
            evaluator.congestions(demands)
        peaks.append(mem.peak_kb)
    assert all(later <= earlier * 1.05 for earlier, later in zip(peaks, peaks[1:])), peaks
    assert peaks[-1] < peaks[0], peaks
