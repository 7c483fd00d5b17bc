"""Streaming traffic-replay subsystem tests.

The load-bearing suite is the incremental-vs-batch equivalence: for
random streams, the windowed metrics produced from the delta path must
match a from-scratch :class:`CompiledRouting` evaluation at every step
within 1e-9.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.demands.demand import Demand
from repro.demands.traffic_matrix import diurnal_gravity_series
from repro.engine import RoutingEngine
from repro.exceptions import RoutingError, StreamError
from repro.graphs import topologies
from repro.linalg import BACKENDS, build_evaluator
from repro.linalg.compiled import CompiledRouting
from repro.stream import (
    AdversarialShiftStream,
    DiurnalStream,
    FlashCrowdStream,
    IncrementalStreamEvaluator,
    RandomWalkStream,
    ReplayStream,
    RollingStreamStats,
    available_policies,
    available_streams,
    build_policy,
    build_stream,
    run_stream,
    run_stream_comparison,
)
from repro.stream.metrics import PERCENTILES

TOL = 1e-9

#: Every compiled backend (all but the dict oracle).
COMPILED = [backend for backend in BACKENDS if backend != "dict"]


def _spf_routing(network):
    import networkx as nx

    from repro.core.routing import Routing

    trees = dict(nx.all_pairs_shortest_path(network.graph))
    mapping = {
        (source, target): trees[source][target]
        for source in network.vertices
        for target in network.vertices
        if source != target
    }
    return Routing.single_path(network, mapping)


def _streams(network):
    return [
        RandomWalkStream(network, 40, seed=3, num_pairs=30, churn=0.15),
        FlashCrowdStream(network, 40, seed=3, num_pairs=30, burst_rate=0.4, burst_length=5),
        AdversarialShiftStream(network, 24, seed=3, shift_every=6, num_trials=3),
        DiurnalStream(network, 20, seed=3),
        ReplayStream(diurnal_gravity_series(network, num_snapshots=12, rng=3)),
    ]


# --------------------------------------------------------------------- #
# Sources
# --------------------------------------------------------------------- #
class TestSources:
    def test_replay_is_bit_identical(self, torus3):
        for stream in _streams(torus3):
            first = stream.materialize()
            second = stream.materialize()
            assert len(first) == stream.num_steps == len(second)
            for a, b in zip(first, second):
                assert a.step == b.step
                assert a.demand == b.demand
                assert dict(a.delta) == dict(b.delta)

    def test_deltas_reconstruct_snapshots(self, torus3):
        """Applying the deltas in order reproduces every snapshot exactly."""
        for stream in _streams(torus3):
            state = {}
            for update in stream.updates():
                for pair, value in update.delta.items():
                    if value <= 0:
                        state.pop(pair, None)
                    else:
                        state[pair] = value
                assert Demand(state) == update.demand, (stream.name, update.step)

    def test_seeds_differ(self, torus3):
        a = RandomWalkStream(torus3, 10, seed=0).materialize()
        b = RandomWalkStream(torus3, 10, seed=1).materialize()
        assert any(x.demand != y.demand for x, y in zip(a, b))

    def test_as_series_matches_snapshots(self, torus3):
        stream = FlashCrowdStream(torus3, 12, seed=5, num_pairs=20)
        series = stream.as_series()
        assert len(series) == 12
        for snapshot, update in zip(series, stream.updates()):
            assert snapshot == update.demand

    def test_registry(self, torus3):
        assert set(available_streams()) >= {
            "diurnal",
            "random-walk",
            "flash-crowd",
            "adversarial-shift",
            "replay-diurnal",
        }
        stream = build_stream("random-walk", torus3, num_steps=5, seed=0, num_pairs=10)
        assert stream.num_steps == 5
        with pytest.raises(StreamError):
            build_stream("nope", torus3, num_steps=5)
        with pytest.raises(StreamError):
            build_stream("random-walk", torus3, num_steps=5, bogus_param=1)
        with pytest.raises(StreamError):
            RandomWalkStream(torus3, 0)


# --------------------------------------------------------------------- #
# Incremental vs batch equivalence (the satellite contract)
# --------------------------------------------------------------------- #
class TestIncrementalEquivalence:
    @pytest.mark.parametrize("backend", COMPILED)
    def test_windowed_metrics_match_from_scratch(self, torus3, backend):
        """Delta-path windowed metrics == from-scratch compiled, each step."""
        routing = _spf_routing(torus3)
        compiled = build_evaluator(routing, backend).compiled
        for stream in _streams(torus3):
            incremental = IncrementalStreamEvaluator(compiled)
            inc_stats = RollingStreamStats(window=8, threshold=1.0)
            ref_stats = RollingStreamStats(window=8, threshold=1.0)
            for update in stream.updates():
                incremental.set_demand(update.demand, delta=update.delta)
                inc_record = inc_stats.observe(
                    incremental.congestion(), incremental.utilizations()
                )
                # From-scratch: a fresh evaluation of the full snapshot.
                ref_loads = compiled.edge_load_vector(update.demand)
                ref_utils = ref_loads / compiled.capacities
                ref_record = ref_stats.observe(
                    compiled.congestion(update.demand), ref_utils
                )
                assert np.max(np.abs(incremental.loads - ref_loads), initial=0.0) <= TOL
                for key in (
                    "congestion",
                    "windowed_max_congestion",
                    *(f"p{level:g}_utilization" for level in PERCENTILES),
                ):
                    assert inc_record[key] == pytest.approx(ref_record[key], abs=TOL), (
                        stream.name,
                        backend,
                        update.step,
                        key,
                    )
            for key, value in inc_stats.summary().items():
                assert value == pytest.approx(ref_stats.summary()[key], abs=TOL)

    @pytest.mark.parametrize("backend", COMPILED)
    def test_full_diff_path_matches(self, torus3, backend):
        """delta=None (self-diffed snapshots) agrees with the delta path."""
        routing = _spf_routing(torus3)
        compiled = build_evaluator(routing, backend).compiled
        stream = RandomWalkStream(torus3, 20, seed=9, num_pairs=25, churn=0.2)
        with_delta = IncrementalStreamEvaluator(compiled)
        without_delta = IncrementalStreamEvaluator(compiled)
        for update in stream.updates():
            with_delta.set_demand(update.demand, delta=update.delta)
            without_delta.set_demand(update.demand, delta=None)
            assert np.max(
                np.abs(with_delta.loads - without_delta.loads), initial=0.0
            ) <= TOL

    def test_uncovered_pair_is_transactional(self, torus3):
        """A coverage error leaves the maintained state untouched."""
        routing = _spf_routing(torus3)
        compiled = CompiledRouting.from_routing(routing)
        evaluator = IncrementalStreamEvaluator(compiled)
        vertices = torus3.vertices
        demand = Demand({(vertices[0], vertices[1]): 2.0})
        evaluator.set_demand(demand)
        before = evaluator.loads.copy()
        bad = Demand({(vertices[0], vertices[1]): 3.0})
        with pytest.raises(RoutingError):
            evaluator.set_demand(
                bad, delta={(vertices[0], vertices[1]): 3.0, ("ghost", "pair"): 1.0}
            )
        assert np.array_equal(evaluator.loads, before)
        assert evaluator.congestion() == pytest.approx(
            compiled.congestion(demand), abs=TOL
        )


# --------------------------------------------------------------------- #
# Rolling metrics
# --------------------------------------------------------------------- #
class TestRollingStats:
    def test_windowed_max_and_threshold(self):
        stats = RollingStreamStats(window=3, threshold=1.0)
        congestions = [0.5, 2.0, 0.25, 0.5, 0.75]
        windowed = []
        for value in congestions:
            windowed.append(stats.observe(value)["windowed_max_congestion"])
        assert windowed == [0.5, 2.0, 2.0, 2.0, 0.75]
        summary = stats.summary()
        assert summary["cumulative_congestion"] == pytest.approx(4.0)
        assert summary["peak_congestion"] == pytest.approx(2.0)
        assert summary["time_above_threshold"] == pytest.approx(1 / 5)

    def test_validation(self):
        with pytest.raises(StreamError):
            RollingStreamStats(window=0)
        with pytest.raises(StreamError):
            RollingStreamStats(threshold=0.0)


# --------------------------------------------------------------------- #
# Policies
# --------------------------------------------------------------------- #
class TestPolicies:
    def test_specs_parse(self):
        assert set(available_policies()) == {
            "static",
            "periodic",
            "threshold",
            "semi-oblivious",
        }
        assert build_policy("periodic(k=5)").k == 5
        assert build_policy("periodic(5)").k == 5
        assert build_policy("threshold(u=0.75)").u == 0.75
        assert build_policy("semi-oblivious(every=3)").every == 3
        policy = build_policy("static")
        assert build_policy(policy) is policy
        for bad in (
            "nope", "periodic(k=0)", "threshold(u=-1)", "periodic(1, 2)",
            "periodic(k=)", "periodic(k=8))", "periodic(k='x')",
        ):
            with pytest.raises(StreamError):
                build_policy(bad)

    @pytest.mark.parametrize(
        "text, same_as",
        [
            # Quoting a value never changes what the policy means.
            ("periodic(k='8')", "periodic(8)"),
            ("threshold(u='0.5')", "threshold(0.5)"),
            ("semi-oblivious(every=\"2\")", "semi-oblivious(2)"),
        ],
    )
    def test_quoted_and_bare_specs_agree(self, text, same_as):
        assert build_policy(text).describe() == build_policy(same_as).describe()

    @pytest.mark.parametrize("kind", sorted(available_policies()))
    def test_every_policy_round_trips_through_its_string(self, kind):
        policy = build_policy(kind)
        rebuilt = build_policy(policy.describe())
        assert type(rebuilt) is type(policy)
        assert rebuilt.describe() == policy.describe()

    def test_resolve_counts(self, torus3):
        engine = RoutingEngine(torus3, ["spf"], rng=0)
        engine.install()
        stream = RandomWalkStream(torus3, 12, seed=1, num_pairs=20, churn=0.2)
        static = run_stream(torus3, stream, engine["spf"], policy="static")
        assert static.summary["num_resolves"] == 1
        assert static.summary["forced_resolves"] == 0
        periodic = run_stream(torus3, stream, engine["spf"], policy="periodic(k=4)")
        assert periodic.summary["num_resolves"] == 3  # steps 0, 4, 8

    def test_forced_resolve_on_coverage_shift(self, torus3):
        """An MCF routing blindsided by a support shift re-solves, not inf."""
        engine = RoutingEngine(torus3, ["spf"], rng=0)
        engine.install()
        stream = AdversarialShiftStream(torus3, 12, seed=2, shift_every=4, num_trials=2)
        result = run_stream(torus3, stream, engine["spf"], policy="periodic(k=100)")
        assert result.summary["forced_resolves"] >= 1
        assert np.isfinite(result.summary["cumulative_congestion"])

    def test_semi_oblivious_resplits_on_fixed_paths(self, cube3):
        engine = RoutingEngine(cube3, ["semi-oblivious(racke, alpha=4)"], rng=0)
        engine.install()
        stream = RandomWalkStream(cube3, 9, seed=4, num_pairs=12, churn=0.3)
        result = run_stream(
            cube3, stream, engine["semi-oblivious"], policy="semi-oblivious(every=3)"
        )
        assert result.summary["num_resolves"] == 3


# --------------------------------------------------------------------- #
# Runner and engine integration
# --------------------------------------------------------------------- #
class TestRunner:
    def test_summary_consistency(self, torus3):
        engine = RoutingEngine(torus3, ["spf"], rng=0)
        engine.install()
        stream = FlashCrowdStream(torus3, 16, seed=6, num_pairs=20)
        result = run_stream(torus3, stream, engine["spf"], policy="static", window=4)
        assert result.num_steps == 16
        assert len(result.records) == 16
        total = sum(record["congestion"] for record in result.records)
        assert result.summary["cumulative_congestion"] == pytest.approx(total)
        payload = json.loads(result.to_json())
        assert payload["policy"] == "static"
        assert len(payload["steps"]) == 16
        slim = json.loads(result.to_json(include_steps=False))
        assert "steps" not in slim

    def test_comparison_replays_identical_traffic(self, torus3):
        engine = RoutingEngine(torus3, ["spf"], rng=0)
        comparison = engine.run_stream(
            RandomWalkStream(torus3, 10, seed=5, num_pairs=15, churn=0.2),
            policies=["static", "semi-oblivious(every=2)"],
            window=4,
        )
        assert set(comparison.results) == {"static", "semi-oblivious(every=2)"}
        assert comparison.ranking()
        assert "policy" in comparison.render()
        payload = json.loads(comparison.to_json())
        assert set(payload["policies"]) == set(comparison.results)

    def test_engine_run_stream_deterministic(self, torus3):
        outputs = []
        for _ in range(2):
            engine = RoutingEngine(torus3, ["spf"], rng=0)
            report = engine.run_stream(
                RandomWalkStream(torus3, 12, seed=5, num_pairs=15, churn=0.2),
                policies=["static"],
            )
            outputs.append(report.to_json())
        assert outputs[0] == outputs[1]

    def test_comparison_rejects_duplicate_policies_before_running(self, torus3):
        engine = RoutingEngine(torus3, ["spf"], rng=0)
        engine.install()
        stream = RandomWalkStream(torus3, 4, seed=0, num_pairs=8)
        with pytest.raises(StreamError, match="duplicate policy"):
            run_stream_comparison(
                torus3, stream, engine["spf"],
                policies=["semi-oblivious(2)", "semi-oblivious(every=2)"],
            )

    def test_replay_stream_exposes_network_when_given(self, torus3):
        series = diurnal_gravity_series(torus3, num_snapshots=3, rng=0)
        assert ReplayStream(series).network is None
        assert ReplayStream(series, network=torus3).network is torus3

    def test_mcf_policy_primes_optimal_memo(self, torus3):
        """One LP per re-solve serves both the policy and the ratio."""
        engine = RoutingEngine(torus3, ["spf"], rng=0)
        stream = RandomWalkStream(torus3, 5, seed=0, num_pairs=10, churn=0.5)
        result = engine.run_stream(
            stream, policies="periodic(k=1)", with_optimal=True
        )
        assert result.summary["num_resolves"] == 5
        # Every ratio normalization hit the primed memo, never a 2nd LP.
        assert engine.num_optimal_solves == 0

    def test_with_optimal_ratios(self, torus3):
        engine = RoutingEngine(torus3, ["spf"], rng=0)
        result = engine.run_stream(
            RandomWalkStream(torus3, 6, seed=1, num_pairs=10, churn=0.5),
            policies="static",
            with_optimal=True,
        )
        assert result.summary["mean_ratio"] >= 1.0 - TOL
        assert all("ratio" in record for record in result.records)


# --------------------------------------------------------------------- #
# Bench target
# --------------------------------------------------------------------- #
class TestStreamBench:
    def test_smoke_payload(self):
        from repro import bench

        assert "stream" in bench.TARGETS
        payload = bench.run("stream", scale="smoke", seed=0)
        assert payload["schema"] == "repro-bench/v1"
        assert payload["name"] == "stream"
        assert set(payload["backends"]) == {"batch", "incremental"}
        assert payload["max_abs_difference"] <= TOL
        assert payload["speedup_incremental_over_batch"] is not None
        assert payload["workload"]["num_steps"] == 120


# --------------------------------------------------------------------- #
# Scenario stream axis
# --------------------------------------------------------------------- #
class TestScenarioStreamAxis:
    def test_stream_demand_kinds_registered(self):
        from repro.scenarios import available_suites
        from repro.scenarios.spec import available_demand_kinds, get_suite

        assert {"random-walk", "flash-crowd", "adversarial-shift"} <= set(
            available_demand_kinds()
        )
        assert "streaming" in available_suites()
        suite = get_suite("streaming")
        assert suite.num_cells() == 12

    def test_stream_demand_spec_builds_series(self, torus3):
        from repro.scenarios.spec import DemandSpec

        spec = DemandSpec("random-walk", params=(("num_pairs", 10),))
        series = spec.series(torus3, 4, rng=0)
        assert len(series) == 4
        replay = spec.series(torus3, 4, rng=0)
        for a, b in zip(series, replay):
            assert a == b
