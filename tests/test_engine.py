"""Tests for the engine subsystem: Router protocol, registry, RoutingEngine."""

import json
import time

import pytest

from repro.core.rate_adaptation import optimal_rates
from repro.core.sampling import alpha_sample, support_system
from repro.demands.demand import Demand
from repro.demands.traffic_matrix import constant_series, diurnal_gravity_series
from repro.engine import (
    FixedRatioRouter,
    RouteResult,
    Router,
    RoutingEngine,
    SchemeError,
    SchemeSpec,
    SemiObliviousRouter,
    available_schemes,
    available_sources,
    build_router,
    parse_spec,
    register_scheme,
    unregister_scheme,
)
from repro.exceptions import RoutingError, SolverError
from repro.graphs import topologies
from repro.mcf.lp import min_congestion_lp
from repro.oblivious.racke import RaeckeTreeRouting
from repro.oblivious.shortest_path import KShortestPathRouting, ShortestPathRouting
from repro.utils.rng import ensure_rng


def _system_as_dict(system):
    return {pair: set(paths) for pair, paths in system.items()}


# --------------------------------------------------------------------- #
# Spec parsing
# --------------------------------------------------------------------- #
def test_parse_spec_plain_name():
    spec = parse_spec("optimal")
    assert spec.name == "optimal"
    assert spec.param_dict == {}
    assert spec.spec_string() == "optimal"


def test_parse_spec_positional_and_keyword():
    spec = parse_spec("semi-oblivious(racke, alpha=8)")
    assert spec.name == "semi-oblivious"
    assert spec.param_dict == {"oblivious": "racke", "alpha": 8}


def test_parse_spec_value_types():
    spec = parse_spec("semi-oblivious(racke, alpha=8, cut=true, method='lp', epsilon=0.5)")
    params = spec.param_dict
    assert params["alpha"] == 8 and isinstance(params["alpha"], int)
    assert params["cut"] is True
    assert params["method"] == "lp"
    assert params["epsilon"] == pytest.approx(0.5)


def test_parse_spec_round_trips():
    for text in (
        "optimal",
        "spf",
        "ksp(k=4)",
        "semi-oblivious(racke, alpha=8)",
        "semi-oblivious(oblivious=valiant, alpha=2, cut=true)",
        "oblivious(electrical)",
    ):
        spec = parse_spec(text)
        assert parse_spec(spec.spec_string()) == spec


def test_parse_spec_quoted_value_with_comma_round_trips():
    spec = parse_spec("ksp(k=2, method='a,b')")
    assert spec.param_dict == {"k": 2, "method": "a,b"}
    assert parse_spec(spec.spec_string()) == spec
    with pytest.raises(SchemeError):
        parse_spec("ksp(method='unterminated)")


def test_register_scheme_rejects_alias_shadowing():
    # 'mcf' is an alias of the built-in 'optimal'; registering over it
    # would create an unreachable scheme.
    with pytest.raises(SchemeError):
        register_scheme("mcf", lambda network, rng=None: None)
    assert parse_spec("mcf").name == "optimal"


def test_parse_spec_resolves_aliases():
    assert parse_spec("smore").name == "semi-oblivious"
    assert parse_spec("shortest-path").name == "spf"
    assert parse_spec("mcf").name == "optimal"


def test_parse_spec_dict_form():
    spec = parse_spec({"scheme": "ksp", "k": 3})
    assert spec.name == "ksp"
    assert spec.param_dict == {"k": 3}


def test_parse_spec_errors():
    with pytest.raises(SchemeError):
        parse_spec("not-a-scheme")
    with pytest.raises(SchemeError):
        parse_spec("ksp(3, 4)")  # ksp declares one positional parameter
    with pytest.raises(SchemeError):
        parse_spec({"k": 3})  # missing the scheme name
    with pytest.raises(SchemeError):
        parse_spec("???")


def test_build_router_unknown_scheme_and_bad_params(cube3):
    with pytest.raises(SchemeError):
        build_router("nonsense", cube3)
    with pytest.raises(SchemeError):
        build_router("ksp(no_such_param=1)", cube3)
    with pytest.raises(SchemeError):
        build_router("semi-oblivious(racke, bogus_tree_count=2)", cube3)
    with pytest.raises(SchemeError):
        build_router("oblivious(no-such-source)", cube3)


def test_available_schemes_and_sources():
    assert {"semi-oblivious", "oblivious", "ksp", "spf", "optimal"} <= set(available_schemes())
    assert {"racke", "valiant", "electrical", "shortest-path", "ksp"} <= set(available_sources())


# --------------------------------------------------------------------- #
# Registry parity with hand-wired constructions
# --------------------------------------------------------------------- #
def test_semi_oblivious_parity_with_hand_wired(cube3):
    router = build_router("semi-oblivious(racke, alpha=3)", cube3, rng=0)
    router.install()

    rng = ensure_rng(0)
    oblivious = RaeckeTreeRouting(cube3, rng=rng)
    system = alpha_sample(oblivious, 3, rng=rng)
    assert _system_as_dict(router.system) == _system_as_dict(system)

    demand = Demand({(0, 7): 2.0, (3, 4): 1.0})
    expected = optimal_rates(system, demand).congestion
    assert router.route(demand).congestion == pytest.approx(expected)


def test_ksp_parity_with_hand_wired(cube3):
    router = build_router("ksp(k=3)", cube3, rng=0)
    router.install()
    hand_wired = support_system(KShortestPathRouting(cube3, k=3))
    assert _system_as_dict(router.system) == _system_as_dict(hand_wired)


def test_spf_parity_with_hand_wired(cube3):
    router = build_router("spf", cube3)
    router.install()
    demand = Demand({(0, 7): 1.0, (5, 2): 2.0})
    expected = ShortestPathRouting(cube3).routing().congestion(demand)
    assert router.route(demand).congestion == pytest.approx(expected)


def test_installed_fixed_ratio_schemes_evaluate_compiled(cube3):
    """One evaluation rule: installed fixed-ratio routings compile, dict is the oracle."""
    from repro.__main__ import main
    from repro.obs import RecordingSink, Tracer, install_tracer, uninstall_tracer

    def compiles(step):
        tracer = install_tracer(Tracer(sink=RecordingSink()))
        try:
            value = step()
        finally:
            uninstall_tracer()
        return value, sum(record.get("name") == "linalg.compile" for record in tracer.records)

    engine = RoutingEngine(cube3, ["spf", "oblivious(racke)"], rng=0)
    demand = Demand({(0, 7): 1.0, (5, 2): 2.0, (3, 4): 0.5, (6, 1): 1.5})
    # Install compiles each fixed-ratio routing once; routes read the compiled form.
    assert compiles(engine.install)[1] == 2
    results, count = compiles(lambda: engine.route(demand, with_optimal=False))
    assert count == 0
    for label in ("spf", "oblivious"):
        oracle = engine[label].routing.evaluator("dict").congestion(demand)
        assert results[label].congestion == pytest.approx(oracle, rel=1e-9, abs=1e-12)

    # backend=auto still parses (pinned specs keep working); nothing else does.
    for spec in ("spf(backend=auto)", "oblivious(racke, backend=auto)"):
        assert isinstance(build_router(spec, cube3, rng=0), FixedRatioRouter)
    with pytest.raises(SchemeError, match=r'routing\.evaluator\("dict"\)'):
        build_router("spf(backend=dict)", cube3)
    for argv in (
        ["te", "--topology", "hypercube:3", "--backend", "dict"],
        ["scenarios", "run", "--suite", "smoke", "--backend", "sparse"],
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2


def test_optimal_router_matches_lp(cube3):
    router = build_router("optimal", cube3)
    router.install()
    demand = Demand({(0, 7): 4.0})
    result = router.route(demand)
    assert result.congestion == pytest.approx(min_congestion_lp(cube3, demand).congestion)
    assert result.ratio == pytest.approx(1.0)


def test_optimal_router_without_a_context_solves_through_the_memo(cube3):
    from repro.obs import RecordingSink, Tracer, install_tracer, span_records, uninstall_tracer

    router = build_router("optimal", cube3)
    router.install()
    demand = Demand({(0, 7): 4.0, (1, 6): 1.0})
    tracer = install_tracer(Tracer(sink=RecordingSink()))
    try:
        first = router.route(demand).congestion
        second = router.route(Demand({(0, 7): 4.0, (1, 6): 1.0})).congestion
    finally:
        uninstall_tracer()
    assert first == second == min_congestion_lp(cube3, demand).congestion
    names = [record["name"] for record in span_records(tracer.records)]
    assert names.count("mcf.optimal_solve") == 1  # the second route is a memo hit
    assert names.count("mcf.lp") == 1


def test_alpha_plus_cut_spec(cube3):
    router = build_router("semi-oblivious(racke, alpha=1, cut=true)", cube3, rng=0)
    router.install(pairs=[(0, 7)])
    # cut_G(0, 7) = 3 on the 3-cube, so up to 1 + 3 = 4 distinct paths.
    assert 1 <= len(router.system.paths(0, 7)) <= 4


def test_fixed_ratio_route_on_an_uninstalled_pair_names_the_router(cube3):
    router = build_router("spf", cube3)
    router.install(pairs=[(0, 7)])
    with pytest.raises(RoutingError, match=r"router 'spf': .*\(1, 6\)"):
        router.route(Demand({(0, 7): 1.0, (1, 6): 1.0}))


def test_route_before_install_raises(cube3):
    router = build_router("spf", cube3)
    with pytest.raises(SolverError):
        router.route(Demand({(0, 1): 1.0}))


# --------------------------------------------------------------------- #
# RoutingEngine facade
# --------------------------------------------------------------------- #
def test_engine_shares_oblivious_source(cube3):
    engine = RoutingEngine(
        cube3, ["semi-oblivious(racke, alpha=2)", "oblivious(racke)"], rng=0
    )
    semi = engine["semi-oblivious"]
    fixed = engine["oblivious"]
    assert isinstance(semi, SemiObliviousRouter)
    assert isinstance(fixed, FixedRatioRouter)
    assert semi.oblivious is fixed.builder  # one builder, one distribution cache


def test_engine_route_many_solves_optimal_once_per_snapshot(cube3):
    series = diurnal_gravity_series(cube3, num_snapshots=10, base_total=4.0, rng=1)
    engine = RoutingEngine(
        cube3, ["semi-oblivious(racke, alpha=3)", "ksp(k=3)", "spf", "optimal"], rng=0
    )
    results = engine.route_many(list(series))
    assert len(results) == 10
    assert engine.num_optimal_solves == 10
    for per_demand in results:
        assert set(per_demand) == {"semi-oblivious", "ksp", "spf", "optimal"}
        assert per_demand["optimal"].ratio == pytest.approx(1.0)
        for result in per_demand.values():
            assert isinstance(result, RouteResult)
            assert result.optimal_congestion is not None
            assert result.ratio >= 1.0 - 1e-9


def test_engine_route_normalizes_exactly_and_leaves_schemes_unchanged():
    """The background optimum is the serial LP's, bit for bit; schemes route as without it."""
    torus = topologies.torus_2d(4)
    series = diurnal_gravity_series(torus, num_snapshots=10, rng=2)
    engine = RoutingEngine(
        torus, ["semi-oblivious(racke, alpha=4)", "ksp(k=4)", "spf", "optimal"], rng=0
    )
    for demand in series:
        results = engine.route(demand)
        plain = engine.route(demand, with_optimal=False)
        optimum = min_congestion_lp(torus, demand).congestion
        for label, result in results.items():
            assert result.optimal_congestion == optimum, label
            assert result.congestion == plain[label].congestion, label
    assert engine.num_optimal_solves == 10


class _FailingScheme:
    name = "failing"

    def install(self, pairs=None):
        pass

    def route(self, demand):
        raise RoutingError("scheme failed")


def _slow_normalizer(monkeypatch, finished, error=None):
    """Patch the memo's LP to take 0.2 s, note when it ends, then answer or raise ``error``."""
    from repro.engine import registry

    def slow_lp(network, demand):
        time.sleep(0.2)
        finished.append(time.perf_counter())
        if error is not None:
            raise error
        return min_congestion_lp(network, demand)

    monkeypatch.setattr(registry, "min_congestion_lp", slow_lp)


def test_engine_route_raises_the_normalizer_error(monkeypatch, cube3):
    engine = RoutingEngine(cube3, ["spf"], rng=0)
    engine.install()
    finished = []
    _slow_normalizer(monkeypatch, finished, SolverError("normalizer failed"))
    demand = Demand({(0, 7): 1.0})
    with pytest.raises(SolverError, match="normalizer failed"):
        engine.route(demand)
    assert len(finished) == 1 and engine.context.optimal_solver._pending == {}
    # When a scheme fails too, the normalizer's error still wins (it used to run first).
    engine.add_scheme(_FailingScheme())
    with pytest.raises(SolverError, match="normalizer failed"):
        engine.route(demand)


def test_engine_route_reraises_a_scheme_error_after_the_background_solve(monkeypatch, cube3):
    engine = RoutingEngine(cube3, ["spf", _FailingScheme()], rng=0)
    engine.install()
    finished = []
    _slow_normalizer(monkeypatch, finished)
    demand = Demand({(0, 7): 1.0})
    with pytest.raises(RoutingError, match="scheme failed"):
        engine.route(demand)
    raised = time.perf_counter()
    assert len(finished) == 1 and finished[0] <= raised
    solver = engine.context.optimal_solver
    assert solver._pending == {} and demand in solver._cache and solver.num_solves == 1


def test_engine_route_nests_the_background_optimum_under_its_span(cube3):
    from repro.obs import RecordingSink, Tracer, install_tracer, uninstall_tracer

    series = diurnal_gravity_series(cube3, num_snapshots=3, rng=1)
    engine = RoutingEngine(cube3, ["semi-oblivious(racke, alpha=3)", "spf"], rng=0)
    engine.install()
    tracer = install_tracer(Tracer(sink=RecordingSink()))
    try:
        engine.route_many(list(series))
    finally:
        uninstall_tracer()
    spans = [r for r in tracer.records if r.get("kind") == "span"]
    routes = {r["seq"]: r for r in spans if r["name"] == "engine.route"}
    solves = [r for r in spans if r["name"] == "mcf.optimal_solve"]
    assert len(routes) == 3 and len(solves) == 3
    assert sorted(r["parent"] for r in solves) == sorted(routes)
    # The optimum ran on the background thread, inside its route's interval.
    for solve in solves:
        route = routes[solve["parent"]]
        assert solve["tid"] != route["tid"]
        assert route["t0"] <= solve["t0"]
        assert solve["t0"] + solve["dur"] <= route["t0"] + route["dur"]


def test_engine_route_many_matches_seed_simulator_ratios(cube3):
    """The acceptance check: batch engine == hand-wired seed TE loop."""
    series = diurnal_gravity_series(cube3, num_snapshots=10, base_total=4.0, rng=1)

    # Hand-wire the seed simulator's exact pipeline.
    rng = ensure_rng(0)
    oblivious = RaeckeTreeRouting(cube3, rng=rng)
    pairs = list(cube3.vertex_pairs(ordered=True))
    semi_system = alpha_sample(oblivious, 3, pairs=pairs, rng=rng)
    ksp_builder = KShortestPathRouting(cube3, k=3)
    ksp_system = support_system(ksp_builder, pairs=pairs)
    oblivious_routing = oblivious.routing(pairs=pairs)
    spf_routing = ShortestPathRouting(cube3).routing(pairs=pairs)

    expected = {"semi-oblivious": [], "oblivious": [], "ksp": [], "spf": []}
    for snapshot in series:
        optimum = min_congestion_lp(cube3, snapshot).congestion
        per_scheme = {
            "semi-oblivious": optimal_rates(semi_system, snapshot).congestion,
            "oblivious": oblivious_routing.congestion(snapshot),
            "ksp": optimal_rates(ksp_system, snapshot).congestion,
            "spf": spf_routing.congestion(snapshot),
        }
        for scheme, utilization in per_scheme.items():
            ratio = utilization / optimum if optimum > 0 else (1.0 if utilization <= 0 else float("inf"))
            expected[scheme].append(ratio)

    engine = RoutingEngine(
        cube3,
        {
            "semi-oblivious": "semi-oblivious(racke, alpha=3)",
            "oblivious": "oblivious(racke)",
            "ksp": "ksp(k=3)",
            "spf": "spf",
        },
        rng=0,
    )
    results = engine.route_many(list(series))
    assert engine.num_optimal_solves == len(series)
    for scheme, ratios in expected.items():
        actual = [per_demand[scheme].ratio for per_demand in results]
        assert actual == pytest.approx(ratios, abs=1e-12), scheme


def test_engine_evaluate_matrix_series_report(cube3):
    series = diurnal_gravity_series(cube3, num_snapshots=2, base_total=4.0, rng=1)
    engine = RoutingEngine(cube3, ["ksp(k=2)", "spf", "optimal"], rng=0)
    report = engine.evaluate_matrix_series(series)
    assert report.num_snapshots == 2
    assert set(report.results) == {"ksp", "spf", "optimal"}
    assert report.results["optimal"].mean_ratio() == pytest.approx(1.0)
    assert report.ranking()[0] == "optimal"


def test_engine_duplicate_label_rejected(cube3):
    engine = RoutingEngine(cube3, ["spf"], rng=0)
    with pytest.raises(SchemeError):
        engine.add_scheme("spf")


def test_engine_unknown_label_rejected(cube3):
    engine = RoutingEngine(cube3, ["spf"], rng=0)
    with pytest.raises(SchemeError):
        engine.route(Demand({(0, 1): 1.0}), labels=["nope"])


def test_engine_accepts_prebuilt_router(cube3):
    router = build_router("spf", cube3)
    engine = RoutingEngine(cube3, {"mine": router}, rng=0)
    assert engine["mine"] is router


# --------------------------------------------------------------------- #
# Custom (user-registered) schemes
# --------------------------------------------------------------------- #
class _UniformTwoPathRouter:
    """Toy custom scheme: fixed 50/50 split over the two halves of the cube."""

    name = "uniform-two-path"

    def __init__(self, network):
        self._network = network
        self._routing = None

    def install(self, pairs=None):
        builder = KShortestPathRouting(self._network, k=2)
        self._routing = builder.routing(pairs=pairs)

    def route(self, demand):
        return RouteResult(
            scheme=self.name, congestion=self._routing.congestion(demand), method="fixed"
        )


def test_custom_scheme_flows_through_registry_and_simulator(cube3):
    register_scheme(
        "uniform-two-path",
        lambda network, rng=None: _UniformTwoPathRouter(network),
        description="test-only custom scheme",
    )
    try:
        assert "uniform-two-path" in available_schemes()
        assert isinstance(_UniformTwoPathRouter(cube3), Router)

        engine = RoutingEngine(cube3, ["uniform-two-path", "optimal"], rng=0)
        engine.install()
        series = constant_series(Demand({(0, 7): 2.0}), 2)
        report = engine.evaluate_matrix_series(series)
        assert len(report.results["uniform-two-path"].utilization_ratios) == 2
        assert report.results["uniform-two-path"].mean_ratio() >= 1.0 - 1e-9
    finally:
        unregister_scheme("uniform-two-path")
    assert "uniform-two-path" not in available_schemes()


def test_reregistering_scheme_requires_overwrite():
    register_scheme("tmp-scheme", lambda network, rng=None: None, description="x")
    try:
        with pytest.raises(SchemeError):
            register_scheme("tmp-scheme", lambda network, rng=None: None)
        register_scheme("tmp-scheme", lambda network, rng=None: None, overwrite=True)
    finally:
        unregister_scheme("tmp-scheme")


# --------------------------------------------------------------------- #
# Serialization
# --------------------------------------------------------------------- #
def test_route_result_to_dict(cube3):
    router = build_router("optimal", cube3)
    router.install()
    payload = router.route(Demand({(0, 7): 1.0})).to_dict()
    assert payload["scheme"] == "optimal"
    assert payload["ratio"] == pytest.approx(1.0)
    json.dumps(payload)  # must be JSON-serializable


def test_simulation_report_to_json(cube3):
    engine = RoutingEngine(cube3, ["spf", "optimal"], rng=0)
    report = engine.evaluate_matrix_series(constant_series(Demand({(0, 7): 1.0}), 2))
    payload = json.loads(report.to_json())
    assert payload["network"] == cube3.name
    assert payload["num_snapshots"] == 2
    assert set(payload["schemes"]) == {"spf", "optimal"}
    assert payload["schemes"]["optimal"]["mean_ratio"] == pytest.approx(1.0)
    assert payload["ranking"][0] == "optimal"


def test_engine_spec_to_dict_round_trip():
    spec = parse_spec("ksp(k=5)")
    assert parse_spec(spec.to_dict()) == spec


# --------------------------------------------------------------------- #
# Builder prewarm / immutability (satellite)
# --------------------------------------------------------------------- #
def test_pair_distribution_is_immutable(cube3):
    builder = ShortestPathRouting(cube3)
    distribution = builder.pair_distribution(0, 7)
    with pytest.raises(TypeError):
        distribution[(0, 7)] = 1.0
    # Repeated access shares the cache entry instead of copying.
    assert builder.pair_distribution(0, 7) == distribution


def test_prewarm_bulk_fills_cache(cube3):
    calls = {"count": 0}

    class _Counting(ShortestPathRouting):
        def distribution_for(self, source, target):
            calls["count"] += 1
            return super().distribution_for(source, target)

    builder = _Counting(cube3)
    pairs = [(0, 1), (0, 2), (3, 3), (0, 1)]
    assert builder.prewarm(pairs) == 2  # self-pair and duplicate skipped
    assert calls["count"] == 2
    assert builder.prewarm(pairs) == 0  # warm cache: no recomputation
    assert calls["count"] == 2
