"""Unit tests for the path-restricted min-congestion LP."""

import multiprocessing
import pickle
import sys
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.path_system import PathSystem
from repro.core.routing import Routing
from repro.core.sampling import alpha_sample
from repro.demands.demand import Demand
from repro.engine import RoutingEngine, build_router
from repro.exceptions import InfeasibleError
from repro.graphs.network import Network
from repro.mcf import path_lp
from repro.mcf.lp import min_congestion_lp
from repro.mcf.path_lp import RateLP, min_congestion_on_paths, warm_start
from repro.obs import RecordingSink, Tracer, install_tracer, span_records, uninstall_tracer
from repro.oblivious.racke import RaeckeTreeRouting
from strategies import oracle_incidence


def two_path_system(cube3):
    system = PathSystem(cube3, {(0, 3): [(0, 1, 3), (0, 2, 3)]})
    return system


def test_empty_demand(cube3):
    system = two_path_system(cube3)
    result = min_congestion_on_paths(system, Demand.empty())
    assert result.congestion == 0.0
    assert result.routing is None


def test_optimal_split_over_disjoint_paths(cube3):
    system = two_path_system(cube3)
    result = min_congestion_on_paths(system, Demand({(0, 3): 2.0}))
    # Two edge-disjoint candidate paths: split evenly, congestion 1.
    assert result.congestion == pytest.approx(1.0, abs=1e-6)
    assert result.routing is not None
    realized = result.routing.congestion(Demand({(0, 3): 2.0}))
    assert realized == pytest.approx(result.congestion, abs=1e-6)


def test_single_path_no_choice(path4):
    system = PathSystem(path4, {(0, 3): [(0, 1, 2, 3)]})
    result = min_congestion_on_paths(system, Demand({(0, 3): 5.0}))
    assert result.congestion == pytest.approx(5.0)


def test_missing_pair_raises(cube3):
    system = two_path_system(cube3)
    with pytest.raises(InfeasibleError):
        min_congestion_on_paths(system, Demand({(1, 6): 1.0}))


def test_respects_capacities():
    net = Network.from_edges([(0, 1), (1, 2), (0, 2)], capacities={(0, 2): 3.0})
    system = PathSystem(net, {(0, 2): [(0, 2), (0, 1, 2)]})
    result = min_congestion_on_paths(system, Demand({(0, 2): 4.0}))
    # Split x on the fat direct edge (cap 3) and 4-x on the thin detour:
    # equalize x/3 = 4-x -> x=3, congestion 1.
    assert result.congestion == pytest.approx(1.0, abs=1e-6)


def test_path_lp_never_beats_full_lp(cube3, permutation_demand_cube3):
    # Restricting to shortest paths cannot beat the unrestricted optimum.
    system = PathSystem(
        cube3, {pair: [cube3.shortest_path(*pair)] for pair in permutation_demand_cube3.pairs()}
    )
    restricted = min_congestion_on_paths(system, permutation_demand_cube3)
    full = min_congestion_lp(cube3, permutation_demand_cube3)
    assert restricted.congestion >= full.congestion - 1e-6


def test_path_lp_matches_full_lp_when_support_is_rich(cube3):
    # With all shortest paths between antipodal vertices available, the path LP
    # should reach the unrestricted optimum (1/3 for a unit antipodal demand).
    import networkx as nx

    system = PathSystem(cube3, {(0, 7): list(nx.all_shortest_paths(cube3.graph, 0, 7))})
    demand = Demand({(0, 7): 1.0})
    restricted = min_congestion_on_paths(system, demand)
    full = min_congestion_lp(cube3, demand)
    assert restricted.congestion == pytest.approx(full.congestion, abs=1e-5)


# --------------------------------------------------------------------- #
# The result's routing and edge dict are built from its arrays on first read
# --------------------------------------------------------------------- #
def _eager_reference(system, demand, flows):
    """The routing and edge congestions built pair by pair from ``flows``, as a loop."""
    incidence = system.incidence()
    network = system.network
    weights = {}
    for pair, _ in demand.items():
        start, stop = incidence.slices[pair]
        weights[pair] = {
            path: float(flows[j])
            for j, path in zip(range(start, stop), incidence.paths[start:stop])
            if flows[j] > 0
        }
    loads = [0.0] * len(network.edges)
    for j, path in enumerate(incidence.paths):
        for edge in sorted(network.path_edge_ids(path)):
            loads[edge] += float(flows[j])
    edge_congestions = {
        edge: load / network.capacity_of(edge)
        for edge, load in zip(network.edges, loads) if load
    }
    paths = oracle_incidence(network, [(pair, list(bucket)) for pair, bucket in weights.items()])
    return Routing._from_validated(network, weights, paths), edge_congestions


def _seeded_system(network, pairs, seed):
    system = alpha_sample(RaeckeTreeRouting(network, rng=seed), 3, pairs=pairs, rng=seed)
    warm_start(system)
    return system


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("case", ["full", "partial", "degenerate"])
def test_lazy_routing_and_edge_congestions_equal_the_eager_reference(torus3, seed, case):
    pairs = list(torus3.vertex_pairs(ordered=True))
    system = _seeded_system(torus3, pairs, seed)
    rng = np.random.default_rng(seed)
    amounts = rng.lognormal(size=len(pairs)).tolist()
    if case == "full":
        chosen = list(zip(pairs, amounts))
    else:
        picks = rng.choice(len(pairs), size=len(pairs) // 3, replace=False)
        chosen = [(pairs[i], amounts[i]) for i in picks]  # not in installed order
        if case == "degenerate":
            # Far below the 1e-12 flow floor: the fix-up puts it on its first path.
            chosen[0] = (chosen[0][0], 1e-15)
    demand = Demand(dict(chosen))
    result = min_congestion_on_paths(system, demand)
    routing, edge_congestions = _eager_reference(system, demand, result.flows)

    assert list(result.routing) == demand.pairs()
    assert [result.routing.distribution(*p) for p in result.routing] == [
        routing.distribution(*p) for p in routing
    ]
    # The rows taken from the LP's incidence equal the paths walked again.
    taken, walked = result.routing._incidence, routing._incidence
    assert (taken.paths, taken.slices) == (walked.paths, walked.slices)
    assert taken.indptr.tolist() == walked.indptr.tolist()
    assert taken.edge_ids.tolist() == walked.edge_ids.tolist()
    assert list(result.edge_congestions) == list(edge_congestions)
    for edge, value in edge_congestions.items():
        assert result.edge_congestions[edge] == pytest.approx(value, rel=1e-12, abs=1e-15)
    assert max(edge_congestions.values()) == pytest.approx(result.congestion, rel=1e-9)
    assert result.routing is result.routing  # built once, then cached
    if case == "degenerate":
        first = system.paths(*demand.pairs()[0])[0]
        assert result.routing.distribution(*demand.pairs()[0]) == {first: 1.0}


def test_reading_the_congestion_builds_no_routing(cube3, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the routing was built")

    engine = RoutingEngine(cube3, ["semi-oblivious(racke, alpha=2)", "ksp(k=2)"], rng=0)
    engine.install()
    demand = Demand({(0, 7): 1.0, (5, 2): 2.0, (3, 4): 0.5})
    monkeypatch.setattr(Routing, "_from_validated", forbidden)
    results = engine.route(demand, with_optimal=False)
    for label in ("semi-oblivious", "ksp"):
        assert results[label].congestion > 0
        assert results[label].method == "lp"
        with pytest.raises(AssertionError, match="the routing was built"):
            results[label].routing
    result = min_congestion_on_paths(engine["ksp"].system, demand)
    assert result.congestion == pytest.approx(results["ksp"].congestion)
    with pytest.raises(AssertionError, match="the routing was built"):
        result.routing


def test_deferred_route_result_pickles_with_its_routing(cube3):
    router = build_router("semi-oblivious(racke, alpha=2)", cube3, rng=0)
    router.install()
    demand = Demand({(5, 2): 2.0, (0, 7): 1.0})
    expected = router.route(demand).routing
    for read_before_pickling in (False, True):
        result = router.route(demand)
        result.optimal_congestion = 0.5
        if read_before_pickling:
            assert result.routing is not None
        restored = pickle.loads(pickle.dumps(result))
        assert restored == result
        assert restored.to_dict() == result.to_dict()
        assert [(pair, restored.routing.distribution(*pair)) for pair in restored.routing] == [
            (pair, expected.distribution(*pair)) for pair in demand
        ]


# --------------------------------------------------------------------- #
# The persistent model: results depend on (system, demand) only
# --------------------------------------------------------------------- #
def _warm_solves(system, demands, counter="warm"):
    """Path-LP results for ``demands`` in order, and each solve's ``counter``."""
    tracer = install_tracer(Tracer(sink=RecordingSink()))
    try:
        results = [min_congestion_on_paths(system, demand) for demand in demands]
    finally:
        uninstall_tracer()
    spans = [r for r in span_records(tracer.records) if r["name"] == "mcf.path_lp"]
    return results, [span["counters"][counter] for span in spans]


def _all_pairs_demand(pairs, rng):
    return Demand(dict(zip(pairs, (1.0 + 0.5 * rng.random(len(pairs))).tolist())))


def test_all_pairs_answer_does_not_depend_on_the_solves_before(torus3, monkeypatch):
    pairs = list(torus3.vertex_pairs(ordered=True))
    rng = np.random.default_rng(5)
    target = _all_pairs_demand(pairs, rng)
    others = [_all_pairs_demand(pairs, rng) for _ in range(3)]
    partial = Demand(dict(list(target.items())[::3]))
    system = _seeded_system(torus3, pairs, 0)
    (fresh,), warm = _warm_solves(system, [target])
    assert warm == [1]
    # The re-solve pivots, so the persistent model's pricing rule is exercised.
    _, (iterations,) = _warm_solves(system, [target], "iterations")
    assert iterations >= 1

    system = _seeded_system(torus3, pairs, 0)
    results, warm = _warm_solves(system, others + [target, partial, target])
    assert warm == [1, 1, 1, 1, 0, 1]
    with monkeypatch.context() as patch:
        patch.setattr(path_lp, "WARM_ITERATIONS", 0)
        _, warm = _warm_solves(system, [others[0]])  # a capped attempt, answered cold
    assert warm == [0]
    (after_cap,), warm = _warm_solves(system, [target])
    assert warm == [1]
    for result in (results[3], results[5], after_cap):
        assert result.congestion == fresh.congestion
        assert result.flows.tobytes() == fresh.flows.tobytes()


def test_unpickled_rate_lp_rebuilds_its_model_and_answers_identically(torus3):
    pairs = list(torus3.vertex_pairs(ordered=True))
    system = _seeded_system(torus3, pairs, 1)
    rng = np.random.default_rng(6)
    demands = [_all_pairs_demand(pairs, rng) for _ in range(3)]
    expected, warm = _warm_solves(system, demands)
    assert warm == [1, 1, 1]

    lp = system.rate_lp(RateLP)
    restored = pickle.loads(pickle.dumps(lp))
    assert restored._model is None  # no HiGHS object crossed the pickle
    num_paths, num_pairs = len(lp.hops), len(lp.pairs)
    col_codes, row_codes = restored.reference()
    assert len(col_codes) == num_paths + 1 + num_pairs
    assert len(row_codes) == lp.num_edges + num_pairs
    for codes, original in zip((col_codes, row_codes), lp.reference()):
        assert codes.tobytes() == original.tobytes()

    twin = PathSystem(torus3, dict(system.items()))
    twin._rate_lp = restored
    results, warm = _warm_solves(twin, demands)
    assert warm == [1, 1, 1]
    assert restored._model is not None
    # Demands that pivot: flows agree bit for bit only if the rebuilt model prices alike.
    _, iterations = _warm_solves(twin, demands, "iterations")
    assert min(iterations) >= 1
    # A spawned worker unpickles the system, as the sweep pool ships it.
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        spawned = list(pool.map(min_congestion_on_paths, [system] * 3, demands))
    for result, original in zip(results + spawned, expected * 2):
        assert result.congestion == original.congestion
        assert result.flows.tobytes() == original.flows.tobytes()


def test_threads_routing_one_system_get_the_sequential_answers(torus3):
    pairs = list(torus3.vertex_pairs(ordered=True))
    system = _seeded_system(torus3, pairs, 2)
    rng = np.random.default_rng(8)
    demands = [_all_pairs_demand(pairs, rng) for _ in range(20)]
    expected = [min_congestion_on_paths(system, demand).flows.tobytes() for demand in demands]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(min_congestion_on_paths, system, d) for d in demands * 3]
            flows = [future.result(timeout=60).flows.tobytes() for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert flows == expected * 3
