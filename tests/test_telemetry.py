"""Telemetry & demand-estimation subsystem tests.

The load-bearing suite is exact closed-loop recovery: noise-free
full-coverage ingress telemetry must invert back to the true demand to
machine precision on real bundled topologies, on both the scipy NNLS
leg and the pure-numpy active-set fallback — and the estimated-routing
congestion must then equal the true-routing congestion exactly.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.__main__ import main
from repro.engine import RoutingEngine
from repro.exceptions import DemandError, TelemetryError
from repro.graphs import topologies
from repro import bench
from repro.oblivious.shortest_path import shortest_path_tree_routing
from repro.linalg.compiled import CompiledRouting
from repro.net import load_network
from repro.net.fitting import IpfDiagnostics, fitted_gravity_series, max_entropy_demand
from repro.scenarios.spec import DemandSpec, get_suite
from repro.stream.metrics import RollingStreamStats
from repro.stream.sources import build_stream
from repro.telemetry import (
    GRANULARITIES,
    METHODS,
    LinkLoadObservation,
    ObservationModel,
    WindowedOdmeEstimator,
    estimate_demand,
    estimate_from_stats,
    gravity_prior,
    observation_from_loads,
    run_odme_loop,
)

#: The bundled real topologies the exact-recovery contract is proven on.
RECOVERY_TOPOLOGIES = ("zoo(abilene)", "sndlib(polska)", "sndlib(nobel-germany)")


def _compiled_and_truth(source, seed=0):
    network = load_network(source)
    compiled = CompiledRouting.from_routing(shortest_path_tree_routing(network))
    truth = fitted_gravity_series(network, 1, rng=seed)[0]
    return network, compiled, truth


# --------------------------------------------------------------------- #
# Observation model
# --------------------------------------------------------------------- #
def test_noise_free_link_observation_matches_edge_loads():
    _, compiled, truth = _compiled_and_truth("zoo(abilene)")
    observation = ObservationModel(granularity="link").observe(compiled, truth)
    expected = compiled.edge_load_vector(truth, missing="drop")
    assert observation.loads.shape == (compiled.num_edges,)
    assert np.allclose(observation.loads, expected)
    assert observation.observed_fraction == 1.0


def test_ingress_rows_sum_to_aggregate_loads():
    _, compiled, truth = _compiled_and_truth("zoo(abilene)")
    ingress = ObservationModel(granularity="ingress").observe(compiled, truth)
    link = ObservationModel(granularity="link").observe(compiled, truth)
    assert ingress.loads.ndim == 2
    assert np.allclose(ingress.aggregate_loads(), link.loads)


def test_coverage_masks_are_nested_across_levels():
    _, compiled, truth = _compiled_and_truth("zoo(abilene)")
    masks = {}
    for coverage in (0.3, 0.6, 1.0):
        model = ObservationModel(coverage=coverage)
        observation = model.observe(compiled, truth, rng=np.random.default_rng(11))
        masks[coverage] = set(observation.observed_indices.tolist())
    assert masks[0.3] <= masks[0.6] <= masks[1.0]
    assert len(masks[1.0]) == compiled.num_edges


def test_observation_validation_errors_are_typed():
    with pytest.raises(TelemetryError, match="nonnegative"):
        ObservationModel(noise=-0.1)
    with pytest.raises(TelemetryError, match="coverage"):
        ObservationModel(coverage=0.0)
    with pytest.raises(TelemetryError, match="granularity"):
        ObservationModel(granularity="per-flow")
    assert set(GRANULARITIES) == {"ingress", "link"}


# --------------------------------------------------------------------- #
# Exact recovery (the acceptance contract)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("source", RECOVERY_TOPOLOGIES)
def test_noise_free_odme_recovers_truth(source):
    _, compiled, truth = _compiled_and_truth(source)
    observation = ObservationModel().observe(compiled, truth)
    estimate = estimate_demand(compiled, observation)
    assert estimate.method == "nnls-scipy"
    vector = compiled.demand_vector(truth, missing="drop")
    assert float(np.max(np.abs(estimate.vector - vector), initial=0.0)) <= 1e-6
    assert estimate.converged


@pytest.mark.parametrize("source", RECOVERY_TOPOLOGIES)
def test_entropy_leg_reproduces_observed_loads(source):
    _, compiled, truth = _compiled_and_truth(source)
    observation = ObservationModel().observe(compiled, truth)
    estimate = estimate_demand(compiled, observation, method="entropy")
    assert estimate.method == "entropy-ipf"
    # Aggregate link loads are underdetermined, so the entropy leg is
    # validated by load reproduction, not by pairwise recovery.
    assert estimate.residual < 0.5
    assert estimate.converged
    assert set(METHODS) == {"auto", "nnls", "entropy"}


def test_noisy_recovery_error_decreases_with_coverage():
    _, compiled, truth = _compiled_and_truth("zoo(abilene)")
    vector = compiled.demand_vector(truth, missing="drop")
    norm = float(np.linalg.norm(vector))
    mean_errors = []
    for coverage in (0.3, 0.6, 1.0):
        errors = []
        for seed in (3, 5, 7):
            model = ObservationModel(noise=0.15, coverage=coverage)
            observation = model.observe(compiled, truth, rng=np.random.default_rng(seed))
            estimate = estimate_demand(compiled, observation)
            errors.append(float(np.linalg.norm(estimate.vector - vector)) / norm)
        mean_errors.append(float(np.mean(errors)))
    assert mean_errors[0] > mean_errors[1] > mean_errors[2]


def test_gravity_prior_regularizes_link_granularity():
    _, compiled, truth = _compiled_and_truth("zoo(abilene)")
    observation = ObservationModel(granularity="link").observe(compiled, truth)
    prior = gravity_prior(compiled, total=truth.size())
    estimate = estimate_demand(compiled, observation, prior=prior, regularization=1e-3)
    # The anchored solution must still reproduce the observed loads.
    assert estimate.residual < 1e-3
    assert estimate.demand.size() > 0


def test_estimate_rejects_mismatched_observation():
    _, compiled, truth = _compiled_and_truth("zoo(abilene)")
    network = topologies.hypercube(3)
    other = CompiledRouting.from_routing(shortest_path_tree_routing(network))
    observation = ObservationModel().observe(other, fitted_gravity_series(network, 1, rng=0)[0])
    with pytest.raises(TelemetryError):
        estimate_demand(compiled, observation)
    with pytest.raises(TelemetryError, match="method"):
        estimate_demand(compiled, ObservationModel().observe(compiled, truth), method="magic")


# --------------------------------------------------------------------- #
# Closed loop
# --------------------------------------------------------------------- #
def test_noise_free_closed_loop_gap_is_zero():
    network = load_network("zoo(abilene)")
    series = fitted_gravity_series(network, 3, rng=0)
    engine = RoutingEngine(network, ["spf"], rng=0)
    result = engine.run_odme(series, noise=0.0, coverage=1.0, seed=0)
    assert result.summary["max_demand_error"] <= 1e-6
    assert result.summary["max_abs_congestion_gap"] <= 1e-9
    assert result.summary["all_converged"]
    for record in result.records:
        assert record["congestion_ratio"] == pytest.approx(1.0)


def test_closed_loop_is_bit_identical_across_runs():
    network = load_network("sndlib(polska)")
    series = fitted_gravity_series(network, 2, rng=0)
    engine = RoutingEngine(network, ["spf"], rng=0)
    first = engine.run_odme(series, noise=0.1, coverage=0.75, seed=5)
    second = engine.run_odme(series, noise=0.1, coverage=0.75, seed=5)
    assert first.to_json() == second.to_json()
    assert "snapshots" in first.to_dict()
    assert "snapshots" not in first.to_dict(include_steps=False)


def test_closed_loop_rejects_empty_series():
    network = topologies.hypercube(3)
    engine = RoutingEngine(network, ["spf"], rng=0)
    with pytest.raises(TelemetryError, match="empty"):
        run_odme_loop(network, [], engine["spf"])


# --------------------------------------------------------------------- #
# Windowed (streaming) estimation
# --------------------------------------------------------------------- #
def test_windowed_estimator_fires_on_schedule():
    network = topologies.hypercube(3)
    stream = build_stream("random-walk", network, 12, seed=0, num_pairs=8)
    engine = RoutingEngine(network, ["spf"], rng=0)
    estimator = WindowedOdmeEstimator(every=4, regularization=1e-3)
    engine.run_stream(stream, label="spf", on_step=estimator, track_loads=True)
    assert [step for step, _ in estimator.estimates] == [3, 7, 11]
    latest = estimator.latest()
    assert latest is not None
    assert latest.residual < 1e-2


def test_windowed_estimation_requires_tracked_loads():
    stats = RollingStreamStats()
    stats.observe(1.0, np.array([1.0]))
    assert stats.windowed_mean_loads() is None
    with pytest.raises(TelemetryError, match="track_loads"):
        estimate_from_stats(stats, None)
    with pytest.raises(TelemetryError):
        WindowedOdmeEstimator(every=0)


def test_rolling_stats_windowed_mean_loads():
    stats = RollingStreamStats(window=2, track_loads=True)
    stats.observe(1.0, loads=np.array([1.0, 3.0]))
    stats.observe(1.0, loads=np.array([3.0, 5.0]))
    stats.observe(1.0, loads=np.array([5.0, 7.0]))
    # Window of 2 keeps only the last two load vectors.
    assert np.allclose(stats.windowed_mean_loads(), [4.0, 6.0])


def test_observation_from_loads_round_trips():
    _, compiled, truth = _compiled_and_truth("zoo(abilene)")
    loads = compiled.edge_load_vector(truth, missing="drop")
    observation = observation_from_loads(compiled, loads)
    assert isinstance(observation, LinkLoadObservation)
    assert np.allclose(observation.loads, loads)
    with pytest.raises(TelemetryError, match="shape"):
        observation_from_loads(compiled, loads[:-1])


# --------------------------------------------------------------------- #
# Scenario integration: the estimated(...) demand kind and odme suite
# --------------------------------------------------------------------- #
def test_estimated_demand_kind_is_deterministic():
    network = topologies.hypercube(3)
    spec = DemandSpec("estimated", params=(("coverage", 0.75), ("noise", 0.05)))
    first = spec.series(network, 2, np.random.default_rng(7))
    second = spec.series(network, 2, np.random.default_rng(7))
    assert len(first) == 2
    for a, b in zip(first, second):
        assert dict(a.items()) == dict(b.items())


def test_estimated_demand_kind_noise_free_matches_base():
    network = topologies.hypercube(3)
    estimated = DemandSpec(
        "estimated", params=(("noise", 0.0), ("coverage", 1.0))
    ).series(network, 1, np.random.default_rng(3))[0]
    base = DemandSpec("fitted-gravity").series(network, 1, np.random.default_rng(3))[0]
    for pair, value in base.items():
        assert estimated[pair] == pytest.approx(value, abs=1e-8)


def test_odme_suite_is_registered():
    suite = get_suite("odme")
    kinds = {demand.kind for demand in suite.demands}
    assert kinds == {"fitted-gravity", "estimated"}
    assert len(suite.cells()) > 0


# --------------------------------------------------------------------- #
# Fitting satellite: marginal consistency + IPF diagnostics + prior
# --------------------------------------------------------------------- #
def test_inconsistent_marginals_raise_typed_error_naming_node():
    network = topologies.hypercube(2)
    vertices = list(network.vertices)
    out_marginals = {vertex: 1.0 for vertex in vertices}
    in_marginals = {vertex: 1.0 for vertex in vertices}
    in_marginals[vertices[0]] = 5.0
    with pytest.raises(DemandError, match="inconsistent volume marginals") as excinfo:
        max_entropy_demand(network, out_marginals, in_marginals)
    assert repr(vertices[0]) in str(excinfo.value)
    # An explicit total declares the mismatch intentional: both sides
    # are rescaled and the fit proceeds.
    fitted = max_entropy_demand(network, out_marginals, in_marginals, total=4.0)
    assert fitted.size() == pytest.approx(4.0)


def test_ipf_attaches_convergence_diagnostics():
    network = topologies.hypercube(2)
    fitted = max_entropy_demand(network, {vertex: 1.0 for vertex in network.vertices})
    diagnostics = fitted.fit_diagnostics
    assert isinstance(diagnostics, IpfDiagnostics)
    assert diagnostics.converged
    assert 1 <= diagnostics.iterations <= diagnostics.max_iterations
    assert diagnostics.residual <= diagnostics.tolerance


def test_max_entropy_prior_warm_start_biases_fit():
    network = topologies.hypercube(2)
    vertices = list(network.vertices)
    marginals = {vertex: 1.0 for vertex in vertices}
    flat = max_entropy_demand(network, marginals)
    favored = (vertices[0], vertices[1])
    prior = {
        (s, t): 1.0 for s in vertices for t in vertices if s != t
    }
    prior[favored] = 3.0
    warmed = max_entropy_demand(network, marginals, prior=prior)
    # Same marginals, but the favored pair should absorb more volume
    # than in the uniform-seeded fit.
    assert warmed[favored] > flat[favored]
    assert warmed.size() == pytest.approx(flat.size())


# --------------------------------------------------------------------- #
# CLI + bench harness
# --------------------------------------------------------------------- #
def test_cli_net_odme_json_is_bit_identical(capsys):
    argv = ["net", "odme", "zoo(abilene)", "--snapshots", "2", "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["artifact"] == "odme"
    assert payload["schema"] == "repro-net/v1"
    assert payload["summary"]["max_demand_error"] <= 1e-6
    assert payload["summary"]["max_abs_congestion_gap"] <= 1e-9


def test_cli_net_odme_renders_table(capsys):
    assert main(["net", "odme", "zoo(abilene)", "--snapshots", "1"]) == 0
    out = capsys.readouterr().out
    assert "cong.true" in out
    assert "abilene" in out


def test_cli_net_odme_unknown_source(capsys):
    assert main(["net", "odme", "no-such-topology"]) == 2
    assert capsys.readouterr().err


def test_cli_bench_list_includes_extension_targets(capsys):
    assert main(["bench", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("linalg", "rebase", "stream", "net", "odme"):
        assert name in out


def test_cli_bench_output_dir_accepts_relative_paths(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["bench", "odme", "--scale", "smoke", "--output-dir", "artifacts"]) == 0
    capsys.readouterr()
    artifact = tmp_path / "artifacts" / "BENCH_odme_smoke.json"
    assert artifact.exists()
    payload = json.loads(artifact.read_text())
    assert payload["name"] == "odme"
    assert payload["max_abs_difference"] <= 1e-6


def test_bench_odme_smoke_payload_schema():
    payload = bench.run("odme", scale="smoke", seed=0)
    assert payload["schema"] == "repro-bench/v1"
    assert set(payload["backends"]) == {"entropy", "nnls"}
    assert payload["workload"]["num_topologies"] == 3
    assert payload["max_abs_difference"] <= 1e-6
    assert len(payload["topologies"]) == 3
