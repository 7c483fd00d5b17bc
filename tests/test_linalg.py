"""Unit tests for the compiled linear-algebra evaluation."""

import copy
import hashlib
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import (
    demand_sequences, oracle_demand_matrix, oracle_demand_vector, oracle_incidence,
    oracle_right_hand_side,
)

from repro import bench
from repro.core.path_system import PathSystem
from repro.core.rounding import randomized_rounding
from repro.core.routing import Routing
from repro.demands.demand import Demand
from repro.demands.generators import random_pairs_demand
from repro.exceptions import LinalgError, ReproError, RoutingError
from repro.forwarding.quantize import quantize_routing
from repro.graphs import network as network_module
from repro.graphs import topologies
from repro.graphs.network import Network
from repro.linalg import CompiledRouting, DictEvaluator
from repro.mcf.lp import min_congestion_lp
from repro.mcf.path_lp import RateLP, _right_hand_side
from repro.oblivious.racke import RaeckeTreeRouting
from repro.oblivious.shortest_path import ShortestPathRouting
from repro.obs import RecordingSink, Tracer, install_tracer, span_records, uninstall_tracer
from repro.synth import isp
from repro.te.failures import FailureEvent
from repro.te.metrics import (
    max_link_utilization,
    throughput_at_capacity,
    utilization_percentiles,
)


@pytest.fixture
def square():
    """A 4-cycle network with a two-path routing for the (0, 2) pair."""
    network = Network.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)], name="square")
    routing = Routing(
        network,
        {
            (0, 2): {(0, 1, 2): 0.75, (0, 3, 2): 0.25},
            (1, 3): {(1, 2, 3): 1.0},
        },
    )
    return network, routing


def test_compile_known_loads(square):
    network, routing = square
    compiled = CompiledRouting.from_routing(routing)
    assert compiled.num_pairs == 2
    assert compiled.num_paths == 3
    assert compiled.num_edges == 4

    demand = Demand({(0, 2): 4.0})
    loads = compiled.edge_load_vector(demand)
    by_edge = dict(zip(network.edges, loads))
    assert by_edge[(0, 1)] == pytest.approx(3.0)
    assert by_edge[(1, 2)] == pytest.approx(3.0)
    assert by_edge[(2, 3)] == pytest.approx(1.0)
    assert by_edge[(0, 3)] == pytest.approx(1.0)
    assert compiled.congestion(demand) == pytest.approx(3.0)
    assert compiled.dilation(demand) == 2


def test_compiled_strictness_and_empty(square):
    _, routing = square
    compiled = CompiledRouting.from_routing(routing)
    with pytest.raises(RoutingError):
        compiled.congestion(Demand({(1, 0): 1.0}))
    assert compiled.congestion(Demand.empty()) == 0.0
    assert compiled.dilation(Demand.empty()) == 0
    # drop mode ignores the unknown pair instead of raising
    assert compiled.congestion(Demand({(1, 0): 1.0}), missing="drop") == 0.0


def test_batch_matches_single(square):
    _, routing = square
    compiled = CompiledRouting.from_routing(routing)
    demands = [Demand({(0, 2): 1.0}), Demand({(0, 2): 2.0, (1, 3): 1.0}), Demand.empty()]
    batch = compiled.congestions(demands)
    singles = [compiled.congestion(demand) for demand in demands]
    assert np.allclose(batch, singles)
    matrix = compiled.edge_load_matrix(demands)
    for row, demand in enumerate(demands):
        assert np.allclose(matrix[row], compiled.edge_load_vector(demand))
    # pre-vectorized batch evaluates identically
    assert np.allclose(compiled.congestions_from_matrix(compiled.demand_matrix(demands)), batch)


def test_rebase_renormalizes_and_shares_arrays(square):
    network, routing = square
    compiled = CompiledRouting.from_routing(routing)
    event = FailureEvent(failed_edges=((0, 1),), label="cut")
    tracer = install_tracer(Tracer(sink=RecordingSink()))
    try:
        rebased = compiled.rebased(event)
    finally:
        uninstall_tracer()
    names = [record["name"] for record in span_records(tracer.records)]
    assert "linalg.rebase" in names and "linalg.compile" not in names  # no recompilation
    assert rebased is compiled.rebased(event)  # memoized per event

    demand = Demand({(0, 2): 4.0})
    # All mass moves to the surviving path 0-3-2.
    loads = dict(zip(network.edges, rebased.edge_load_vector(demand)))
    assert loads[(0, 3)] == pytest.approx(4.0)
    assert loads[(2, 3)] == pytest.approx(4.0)
    assert loads[(0, 1)] == pytest.approx(0.0)
    assert rebased.coverage(demand) == 1.0
    # (1, 3) lost nothing; the null event returns the same object.
    assert compiled.rebased(FailureEvent()) is compiled


def test_rebase_uncovered_pair_is_infinite(square):
    _, routing = square
    compiled = CompiledRouting.from_routing(routing)
    event = FailureEvent(failed_edges=((1, 2), (2, 3)), label="isolate-2")
    rebased = compiled.rebased(event)
    demand = Demand({(0, 2): 1.0})
    assert rebased.congestion(demand) == float("inf")
    assert rebased.coverage(demand) == 0.0
    assert not rebased.is_covered(0, 2)
    batch = rebased.congestions([demand, Demand({(0, 2): 1.0, (1, 3): 1.0})])
    assert np.isinf(batch).all()


def test_rebase_capacity_scaling(square):
    _, routing = square
    compiled = CompiledRouting.from_routing(routing)
    event = FailureEvent(capacity_scale=(((1, 2), 0.5),), label="brownout")
    rebased = compiled.rebased(event)
    demand = Demand({(0, 2): 1.0})
    # Load on (1, 2) is 0.75 against capacity 0.5 -> congestion 1.5.
    assert rebased.congestion(demand) == pytest.approx(1.5)
    # Distributions unchanged: no path was removed.
    assert rebased.dilation(demand) == compiled.dilation(demand)


def test_rebase_rejects_invalid_capacity_scale(square):
    from repro.exceptions import GraphError

    _, routing = square
    compiled = CompiledRouting.from_routing(routing)
    for bad_scale in (0.0, -1.0, 1.5):
        with pytest.raises(GraphError):
            compiled.rebased(
                FailureEvent(capacity_scale=(((1, 2), bad_scale),), label="bad")
            )


def test_suite_result_reads_an_artifact_with_a_backend_key():
    from repro.scenarios import SuiteResult, get_suite

    result = SuiteResult(suite=get_suite("smoke"), cells=[{"cell": 0}])
    payload = result.to_dict()
    assert "backend" not in payload
    # Artifacts written before the key was dropped still load.
    older = SuiteResult.from_dict({**payload, "backend": "sparse"})
    assert older.to_json() == result.to_json()


def test_unknown_backend_and_representation(square):
    _, routing = square
    # The evaluator forms are "auto" (compiled) and "dict" (oracle); the
    # former "sparse" selector and the dense representation are unknown
    # names like any other, and the error lists the two there are.
    for name in ("turbo", "dense", "sparse"):
        with pytest.raises(LinalgError, match=rf"{name!r}.*\['auto', 'dict'\]"):
            routing.evaluator(name)


def test_dict_evaluator_memoizes_and_copies(square):
    _, routing = square
    evaluator = DictEvaluator(routing)
    demand = Demand({(0, 2): 4.0})
    first = evaluator.edge_congestions(demand)
    first[(0, 1)] = -123.0  # mutating the returned dict must not poison the memo
    second = evaluator.edge_congestions(demand)
    assert second[(0, 1)] == pytest.approx(3.0)
    assert evaluator.congestion(demand) == pytest.approx(3.0)


def test_routing_evaluator_cached_and_invalidated(square):
    network, routing = square
    evaluator = routing.evaluator("dict")
    assert routing.evaluator("dict") is evaluator
    compiled = routing.evaluator("auto")
    assert routing.evaluator("auto") is compiled
    assert routing.congestion(Demand({(0, 2): 1.0})) == pytest.approx(0.75)


def test_auto_reuses_any_cached_compiled_form(square):
    # "auto" is the routing's one cached CompiledRouting, compiled once.
    _, routing = square
    compiled = routing.evaluator("auto")
    assert isinstance(compiled, CompiledRouting)
    assert routing.evaluator("auto") is compiled


def test_demand_vector_exports(square):
    _, routing = square
    compiled = CompiledRouting.from_routing(routing)
    index = compiled.pair_index
    demand = Demand({(0, 2): 2.0})
    vector = compiled.demand_vector(demand)
    assert vector.shape == (2,)
    assert vector[index[(0, 2)]] == pytest.approx(2.0)
    with pytest.raises(RoutingError):
        compiled.demand_vector(Demand({(1, 0): 1.0}))
    assert compiled.demand_vector(Demand({(1, 0): 1.0}), missing="drop").sum() == 0.0

    matrix = compiled.demand_matrix([demand, Demand.empty()]).toarray()
    assert matrix.shape == (2, 2)
    assert np.allclose(matrix[0], vector)
    assert np.allclose(matrix[1], 0.0)
    uncovered = Demand({(0, 2): 2.0, (1, 0): 1.0})
    with pytest.raises(RoutingError):
        compiled.demand_matrix([demand, uncovered])
    stacked = compiled.demand_matrix([demand, uncovered], missing="drop").toarray()
    assert np.allclose(stacked[0], stacked[1])


def _outcome(call):
    """What ``call()`` returns, or the repro error it raises."""
    try:
        return call()
    except ReproError as error:
        return error


def _assert_same_outcome(got, expected):
    if isinstance(expected, ReproError):
        assert type(got) is type(expected) and str(got) == str(expected)
    elif isinstance(expected, tuple):
        assert [part.tobytes() for part in got] == [part.tobytes() for part in expected]
        assert [part.dtype for part in got] == [part.dtype for part in expected]
    elif hasattr(expected, "indptr"):
        assert got.shape == expected.shape
        for name in ("indptr", "indices", "data"):
            assert getattr(got, name).tobytes() == getattr(expected, name).tobytes()
    else:
        assert got.tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(case=demand_sequences(), missing=st.sampled_from(["error", "drop"]))
def test_demand_vectorizer_agrees_with_the_per_item_oracle(case, missing):
    # Each demand goes through one PairIndex after the one before it, so
    # the key-order memo hits, misses, and misses right after a hit.
    network, covered, sequence = case
    paths = {pair: [network.shortest_path(*pair)] for pair in covered}
    compiled = CompiledRouting.from_routing(
        Routing(network, {pair: {path[0]: 1.0} for pair, path in paths.items()})
    )
    lp = PathSystem(network, paths).rate_lp(RateLP)
    rows = {pair: i for i, pair in enumerate(compiled.pairs)}
    lp_rows = {pair: i for i, pair in enumerate(lp.pairs)}
    for demand in sequence:
        _assert_same_outcome(
            _outcome(lambda: compiled.demand_vector(demand, missing=missing)),
            _outcome(lambda: oracle_demand_vector(rows, demand, missing)),
        )
        _assert_same_outcome(
            _outcome(lambda: _right_hand_side(lp, demand)),
            _outcome(lambda: oracle_right_hand_side(lp_rows, demand)),
        )
    _assert_same_outcome(
        _outcome(lambda: compiled.demand_matrix(sequence, missing=missing)),
        _outcome(lambda: oracle_demand_matrix(rows, sequence, missing)),
    )


def test_coverage_accepts_a_plain_dict(square):
    _, routing = square
    rebased = CompiledRouting.from_routing(routing).rebased(
        FailureEvent(failed_edges=((1, 2),), label="cut")
    )
    # (0, 2) keeps 0-3-2, (1, 0) was never covered, (1, 3) lost its one path.
    plain = {(0, 2): 1.0, (1, 0): 2.0, (1, 3): 0.0}
    assert rebased.coverage(plain) == rebased.coverage(Demand(plain)) == 0.5
    plain[(1, 3)] = 1.0
    assert rebased.coverage(plain) == rebased.coverage(Demand(plain)) == pytest.approx(1 / 3)
    assert rebased.coverage({(0, 2): 0.0}) == rebased.coverage(Demand.empty()) == 1.0
    vector = rebased.demand_vector(plain, missing="drop")
    assert vector.tobytes() == rebased.demand_vector(Demand(plain), missing="drop").tobytes()


def test_a_pickled_compile_drops_the_key_order_memo(square):
    _, routing = square
    compiled = CompiledRouting.from_routing(routing)
    rebased = compiled.rebased(FailureEvent(failed_edges=((0, 1),), label="cut"))
    assert compiled.pair_index is compiled.pair_index  # never a copy
    assert rebased.pair_index is compiled.pair_index  # a rebase shares the one index
    demands = [Demand({(0, 2): 1.0 + i, (1, 3): 0.5}) for i in range(3)]
    congestions = [compiled.congestion(demand) for demand in demands]
    assert compiled.pair_index._memo is not None
    loaded = pickle.loads(pickle.dumps(compiled))
    assert loaded.pair_index._memo is None
    assert dict(loaded.pair_index) == dict(compiled.pair_index)
    assert [loaded.congestion(demand) for demand in demands] == congestions


def test_metrics_accept_precomputed_and_backends(square):
    _, routing = square
    demand = Demand({(0, 2): 4.0})
    utilization = max_link_utilization(routing, demand)
    assert routing.evaluator("auto").congestion(demand) == pytest.approx(utilization)

    congestions = routing.edge_congestions(demand)
    via_dict = utilization_percentiles(routing, demand)
    via_precomputed = utilization_percentiles(routing, edge_congestions=congestions)
    assert via_dict == via_precomputed
    array = routing.evaluator("auto").edge_load_vector(demand) / np.asarray(
        [routing.network.capacity_of(edge) for edge in routing.network.edges]
    )
    via_array = utilization_percentiles(routing, edge_congestions=array)
    for percentile, value in via_dict.items():
        assert via_array[percentile] == pytest.approx(value)

    assert throughput_at_capacity(routing, utilization=utilization) == pytest.approx(
        throughput_at_capacity(routing, demand)
    )
    with pytest.raises(ValueError):
        utilization_percentiles(routing)
    with pytest.raises(ValueError):
        throughput_at_capacity(routing)

    demands = [demand, Demand({(1, 3): 2.0})]
    batch = routing.evaluator("auto").congestions(demands)
    assert np.allclose(batch, [routing.congestion(d) for d in demands])
    loads = routing.evaluator("auto").edge_load_matrix(demands)
    assert loads.shape == (2, routing.network.num_edges)


def test_backend_choices_single_source(square):
    # Routing.evaluator is the one selection point: both forms answer
    # alike, and a standalone compile is the same form as "auto".
    _, routing = square
    demand = Demand({(0, 2): 4.0})
    for form in ("auto", "dict"):
        assert routing.evaluator(form).congestion(demand) == pytest.approx(3.0)
    assert CompiledRouting.from_routing(routing).congestion(demand) == pytest.approx(3.0)
    with pytest.raises(LinalgError):
        routing.evaluator("turbo")


def test_bench_smoke_schema(tmp_path):
    assert "linalg" in bench.TARGETS
    payload = bench.run("linalg", scale="smoke", seed=0)
    assert payload["schema"] == "repro-bench/v1"
    assert payload["name"] == "linalg"
    assert payload["network"]["n"] == 36
    assert payload["workload"]["num_demands"] == 50
    assert set(payload["backends"]) == {"dict", "sparse"}
    for entry in payload["backends"].values():
        assert entry["seconds"] > 0
        assert entry["demands_per_sec"] > 0
    assert payload["max_abs_difference"] <= 1e-9
    # Non-full scales encode the scale in the filename, so they cannot
    # clobber the committed full-scale BENCH_linalg.json baseline.
    path = bench.write(payload, output_dir=str(tmp_path))
    assert path.endswith("BENCH_linalg_smoke.json")
    assert bench.write({**payload, "scale": "full"}, output_dir=str(tmp_path)).endswith(
        "BENCH_linalg.json"
    )
    with open(path, encoding="utf-8") as handle:
        assert json.load(handle)["schema"] == "repro-bench/v1"
    with pytest.raises(LinalgError):
        bench.run("nope")
    with pytest.raises(LinalgError):
        bench.run("linalg", scale="galactic")


def test_bench_cli_writes_artifact(tmp_path, capsys):
    from repro.__main__ import main

    assert main(["bench", "linalg", "--scale", "smoke", "--output-dir", str(tmp_path)]) == 0
    assert (tmp_path / "BENCH_linalg_smoke.json").exists()
    out = capsys.readouterr().out
    assert "speedup" in out
    # The harness stamps the envelope around the target's body and the
    # CLI prints the target's own headline.
    payload = json.loads((tmp_path / "BENCH_linalg_smoke.json").read_text())
    assert out == f"linalg: {bench.headline(payload)}\n"
    assert list(payload)[:4] == ["schema", "name", "scale", "seed"]
    assert list(payload)[-1] == "environment"
    assert main(["bench", "list"]) == 0
    assert main(["bench", "wat", "--output-dir", str(tmp_path)]) == 2


# sha256 of the compiled index arrays of Räcke-oblivious and shortest-path
# routings over every ordered pair of ``torus_2d(4)`` and ``isp(pops=6)``,
# seeds 0-2 (see ``_compiled_arrays_digest``).  Edge ids are positions in
# ``network.edges``, so no change in how they are looked up may move it.
COMPILED_ARRAYS_SHA256 = "adfed1533e5ad802f8c5b93ccae6bd927ae72e08dd5e874a3359560d23ac0759"


def _compiled_arrays_digest() -> str:
    digest = hashlib.sha256()
    for seed in range(3):
        for network in (topologies.torus_2d(4), isp(pops=6, seed=seed)):
            routings = (
                RaeckeTreeRouting(network, rng=seed).routing(),
                ShortestPathRouting(network).routing(),
            )
            for routing in routings:
                compiled = CompiledRouting.from_routing(routing)
                for name in ("path_pair", "path_prob", "inc_rows", "inc_cols", "capacities"):
                    digest.update(name.encode())
                    digest.update(getattr(compiled, f"_{name}").tobytes())
    return digest.hexdigest()


def test_compiled_arrays_are_pinned():
    assert _compiled_arrays_digest() == COMPILED_ARRAYS_SHA256


# sha256 of the compiled arrays and ``pair_edge_operator`` of routings built
# through ``Routing(...)`` from distribution dicts (see ``_dict_built_routings``)
# on ``torus_2d(3)``, ``torus_2d(4)`` and ``isp(pops=6)``, seeds 0-2.
DICT_BUILT_ARRAYS_SHA256 = "17f081e61d48356026c7a622e2f8ce2f0418f414b755d4c4713b3122b4a0ebaf"


def _dict_built_routings(network, seed):
    """One routing of each producer that hands ``Routing`` a dict."""
    demand = random_pairs_demand(network, 12, value=1.5, rng=seed)
    other = random_pairs_demand(network, 12, value=2.0, rng=seed + 10)
    optimal = min_congestion_lp(network, demand, return_routing=True).routing
    yield optimal
    yield randomized_rounding(optimal, demand.rounded_up(), rng=seed, require_bound=False).routing
    racke = RaeckeTreeRouting(network, rng=seed).routing(demand.pairs() + other.pairs())
    mixed = Routing.demand_weighted_mix([optimal, racke], [demand, other])
    yield mixed
    yield mixed.restricted_to_system(
        PathSystem(network, {pair: mixed.support(*pair)[::2] for pair in mixed.pairs()})
    )
    yield quantize_routing(mixed, buckets=4).routing()


def _dict_built_arrays_digest() -> str:
    digest = hashlib.sha256()
    for seed in range(3):
        for network in (topologies.torus_2d(3), topologies.torus_2d(4), isp(pops=6, seed=seed)):
            for routing in _dict_built_routings(network, seed):
                compiled = CompiledRouting.from_routing(routing)
                for name in ("path_pair", "path_prob", "inc_rows", "inc_cols", "capacities"):
                    digest.update(name.encode())
                    digest.update(getattr(compiled, f"_{name}").tobytes())
                for name in ("data", "indices", "indptr"):
                    digest.update(name.encode())
                    digest.update(getattr(compiled.pair_edge_operator, name).tobytes())
    return digest.hexdigest()


def test_dict_built_compiles_are_pinned():
    assert _dict_built_arrays_digest() == DICT_BUILT_ARRAYS_SHA256


@pytest.mark.parametrize("source", ["racke", "spf"])
def test_compile_from_the_materialized_incidence_is_bit_identical(source):
    network = isp(pops=6, seed=1)
    pairs = list(network.vertex_pairs(ordered=True))
    np.random.default_rng(5).shuffle(pairs)
    builder = (
        RaeckeTreeRouting(network, rng=2) if source == "racke" else ShortestPathRouting(network)
    )
    routing = builder.routing(pairs)
    # The reference walks every path again, in compiled pair order.
    walked = copy.copy(routing)
    order = sorted(routing.pairs(), key=repr)
    walked._incidence = oracle_incidence(
        network, [(pair, list(routing.distribution(*pair))) for pair in order]
    )
    walked._evaluators = {}
    reordered = CompiledRouting.from_routing(routing)
    rebuilt = CompiledRouting.from_routing(walked)
    for name in ("path_pair", "path_prob", "inc_rows", "inc_cols"):
        assert getattr(reordered, f"_{name}").tobytes() == getattr(rebuilt, f"_{name}").tobytes()
    for name in ("data", "indices", "indptr"):
        assert getattr(reordered.pair_edge_operator, name).tobytes() == getattr(
            rebuilt.pair_edge_operator, name
        ).tobytes()
    assert reordered._incidence.paths == rebuilt._incidence.paths
    assert reordered._incidence.slices == rebuilt._incidence.slices


def test_edge_ids_never_go_through_edge_key(monkeypatch):
    network = topologies.torus_2d(4)

    def forbidden(u, v):
        raise AssertionError("edge ids must come from the adjacency map, not edge_key")

    monkeypatch.setattr(network_module, "edge_key", forbidden)
    routing = RaeckeTreeRouting(network, rng=0).routing()
    routing = Routing(network, {pair: routing.distribution(*pair) for pair in routing.pairs()})
    compiled = CompiledRouting.from_routing(routing)
    assert compiled.num_paths > 0
    system = PathSystem(network, {pair: routing.distribution(*pair) for pair in routing.pairs()})
    incidence = system.incidence()
    assert len(incidence.paths) == system.num_paths()
