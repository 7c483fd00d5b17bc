"""Tests for the scenario-sweep subsystem (specs, runner, artifacts, CLI).

The load-bearing guarantee is determinism: one suite spec + seed yields
one artifact, bit for bit, no matter how the cells are fanned out.
"""

import json
import pickle

import numpy as np
import pytest

from repro.engine.registry import parse_spec
from repro.exceptions import ReproError
from repro.experiments.harness import experiment_result_from_scenario
from repro.graphs import topologies
from repro.scenarios import (
    DemandSpec,
    FailureSpec,
    ScenarioError,
    ScenarioSuite,
    SuiteResult,
    TopologySpec,
    available_suites,
    get_suite,
    run_suite,
)
from repro.te.failures import (
    CapacityDegradationProcess,
    FailureEvent,
    KEdgeFailureProcess,
    RegionalFailureProcess,
    apply_failure,
    build_failure_process,
    evaluate_failure_event,
    rebase_system,
)


def tiny_suite(**overrides) -> ScenarioSuite:
    """A 2x2x2 grid cheap enough for the multiprocessing comparison."""
    payload = dict(
        name="tiny",
        topologies=[TopologySpec("hypercube", 3), TopologySpec("expander", 8)],
        demands=[DemandSpec("permutation"), DemandSpec("uniform")],
        failures=[FailureSpec("none"), FailureSpec("k-edge", params=(("k", 1),))],
        schemes=("ksp(k=2)", "spf"),
        num_snapshots=1,
        seed=7,
    )
    payload.update(overrides)
    return ScenarioSuite(**payload)


# --------------------------------------------------------------------- #
# Specs
# --------------------------------------------------------------------- #
def test_suite_round_trips_through_dict():
    suite = tiny_suite()
    rebuilt = ScenarioSuite.from_dict(json.loads(json.dumps(suite.to_dict())))
    assert rebuilt == suite


def test_suite_is_picklable_and_scheme_specs_are_canonical():
    suite = tiny_suite()
    assert pickle.loads(pickle.dumps(suite)) == suite
    # Scheme strings are normalized through the registry parser.
    assert suite.schemes == tuple(parse_spec(s).spec_string() for s in suite.schemes)
    assert pickle.loads(pickle.dumps(parse_spec("semi-oblivious(racke, alpha=4)"))) == parse_spec(
        "semi-oblivious(racke, alpha=4)"
    )


def test_cell_enumeration_is_topology_major():
    suite = tiny_suite()
    cells = suite.cells()
    assert [cell.index for cell in cells] == list(range(8))
    assert cells[0].topology_index == 0 and cells[-1].topology_index == 1
    for cell in cells:
        assert suite.cell(cell.index) == cell


def test_bad_specs_fail_fast():
    with pytest.raises(ScenarioError):
        TopologySpec("moebius", 3)
    with pytest.raises(ScenarioError):
        DemandSpec("antigravity")
    with pytest.raises(ReproError):
        FailureSpec("meteor")
    with pytest.raises(ReproError):
        tiny_suite(schemes=("no-such-scheme",))
    with pytest.raises(ScenarioError):
        tiny_suite(topologies=())


def test_builtin_suites_resolve():
    assert "smoke" in available_suites()
    suite = get_suite("smoke")
    assert suite.num_cells() == 3 * 2 * 2
    with pytest.raises(ScenarioError):
        get_suite("no-such-suite")


def test_topology_kind_registry_validates_at_parse_time():
    from repro.scenarios import available_topology_kinds

    kinds = available_topology_kinds()
    assert {"hypercube", "torus", "zoo", "sndlib"} <= set(kinds)
    # Unknown kinds fail at spec construction, listing registered kinds.
    with pytest.raises(ScenarioError, match="available"):
        TopologySpec("moebius", 3)
    # Catalog kinds validate their name at parse time, never in a worker.
    with pytest.raises(ScenarioError, match="available"):
        TopologySpec("zoo", params=(("name", "atlantis"),))
    with pytest.raises(ScenarioError, match="needs a catalog name"):
        TopologySpec("zoo")
    with pytest.raises(ScenarioError, match="fixed-size"):
        TopologySpec("zoo", size=4, params=(("name", "abilene"),))
    with pytest.raises(ScenarioError, match="only 'name'"):
        TopologySpec("zoo", params=(("name", "abilene"), ("scale", 2)))
    # Built-in kinds reject parameters their builders would silently ignore.
    with pytest.raises(ScenarioError, match="size must be an integer, got 'abc'"):
        TopologySpec.from_string("hypercube(abc)")
    with pytest.raises(ScenarioError, match=r"\['colz'\]; accepted: \['cols'\]"):
        TopologySpec.from_string("torus(4, colz=5)")
    with pytest.raises(ScenarioError, match="the size only"):
        TopologySpec("waxman", 12, params=(("beta", 0.4),))
    assert TopologySpec.from_string("expander(12, degree=4)").params == (("degree", 4),)


def test_axis_shorthand_strings_round_trip():
    suite = tiny_suite(topologies=["zoo(abilene)", "torus(4)"])
    assert suite.topologies[0].kind == "zoo"
    assert suite.topologies[0].describe() == "zoo(abilene)"
    assert suite.topologies[1] == TopologySpec("torus", 4)
    rebuilt = ScenarioSuite.from_dict(json.loads(json.dumps(suite.to_dict())))
    assert rebuilt == suite
    with pytest.raises(ScenarioError):
        tiny_suite(topologies=["zoo(abilene", "torus(4)"])  # unbalanced paren
    # A second integer must not silently become an ignored 'name' param.
    with pytest.raises(ScenarioError, match="cannot interpret positional"):
        TopologySpec.from_string("grid(3, 5)")
    assert TopologySpec.from_string("grid(3, cols=5)").params == (("cols", 5),)
    assert DemandSpec.from_string("max-entropy(total=20)").params == (("total", 20),)
    with pytest.raises(ScenarioError, match="key=value"):
        DemandSpec.from_string("max-entropy(20)")


@pytest.mark.parametrize(
    "axis, text, expected",
    [
        # Quotes are part of the grammar on every axis, not part of the name.
        (TopologySpec, "zoo('abilene')", TopologySpec("zoo", params=(("name", "abilene"),))),
        # A stray parenthesis is a malformed spec, not a bad size.
        (TopologySpec, "torus(4))", "malformed topology spec"),
        # A key with no value is malformed, never the empty string.
        (DemandSpec, "gravity(total=)", "malformed demand spec"),
        # The failure axis accepts the strings it prints.
        (FailureSpec, "regional(radius=1)", FailureSpec("regional", params=(("radius", 1),))),
        (FailureSpec, "none", FailureSpec("none")),
        (FailureSpec, "regional(1)", "key=value arguments only"),
    ],
)
def test_axis_spec_grammar_regressions(axis, text, expected):
    if isinstance(expected, str):
        with pytest.raises(ScenarioError, match=expected):
            axis.from_string(text)
    else:
        assert axis.from_string(text) == expected


def test_failure_axis_accepts_its_printed_strings():
    spec = FailureSpec("regional", params=(("radius", 1),))
    suite = tiny_suite(failures=["none", spec.describe()])
    assert suite.failures == (FailureSpec("none"), spec)


def _builtin_suite_entries():
    for name in available_suites():
        suite = get_suite(name)
        for axis in ("topologies", "demands", "failures"):
            for spec in getattr(suite, axis):
                yield pytest.param(spec, id=f"{name}-{spec.describe()}")
        for scheme in suite.schemes:
            yield pytest.param(parse_spec(scheme), id=f"{name}-{scheme}")


@pytest.mark.parametrize("entry", list(_builtin_suite_entries()))
def test_builtin_suite_entries_round_trip_through_their_strings(entry):
    if hasattr(entry, "spec_string"):
        assert parse_spec(entry.spec_string()) == entry
    else:
        assert type(entry).from_string(entry.describe()) == entry


# --------------------------------------------------------------------- #
# Failure processes
# --------------------------------------------------------------------- #
def test_k_edge_failure_is_deterministic_per_seed():
    net = topologies.hypercube(3)
    process = KEdgeFailureProcess(k=2)
    first = process.sample(net, rng=np.random.default_rng(3))
    second = process.sample(net, rng=np.random.default_rng(3))
    assert first == second
    assert len(first.failed_edges) == 2
    assert FailureEvent.from_dict(first.to_dict()) == first


def test_regional_failure_fails_a_ball():
    net = topologies.torus_2d(4)
    event = RegionalFailureProcess(radius=1).sample(net, rng=np.random.default_rng(0))
    assert event.failed_edges  # torus balls contain edges
    degraded = apply_failure(net, event)
    assert degraded is None or degraded.num_edges < net.num_edges


def test_capacity_degradation_scales_without_removing():
    net = topologies.hypercube(3)
    event = CapacityDegradationProcess(fraction=0.5, factor=0.5).sample(
        net, rng=np.random.default_rng(1)
    )
    assert not event.failed_edges and event.capacity_scale
    degraded = apply_failure(net, event)
    assert degraded is not None and degraded.num_edges == net.num_edges
    scaled = dict(event.capacity_scale)
    for edge in net.edges:
        expected = net.capacity_of(edge) * scaled.get(edge, 1.0)
        assert degraded.capacity_of(edge) == pytest.approx(expected)


def test_failure_event_json_round_trips_tuple_vertices():
    net = topologies.torus_2d(3)  # vertices are (row, col) tuples
    event = KEdgeFailureProcess(k=2).sample(net, rng=np.random.default_rng(4))
    rebuilt = FailureEvent.from_dict(json.loads(json.dumps(event.to_dict())))
    assert rebuilt == event
    # The rebuilt event must be usable against the network (tuple vertices).
    degraded = apply_failure(net, rebuilt)
    assert degraded is None or degraded.num_edges == net.num_edges - 2


def test_build_failure_process_aliases_and_errors():
    assert build_failure_process("srlg").kind == "regional"
    with pytest.raises(ReproError):
        build_failure_process("k-edge", wrong_param=1)


def test_evaluate_failure_event_multi_edge():
    from repro.core.sampling import support_system
    from repro.demands.generators import random_permutation_demand
    from repro.oblivious.shortest_path import KShortestPathRouting

    net = topologies.hypercube(3)
    system = support_system(KShortestPathRouting(net, k=3))
    demand = random_permutation_demand(net, rng=0)
    event = KEdgeFailureProcess(k=2).sample(net, rng=np.random.default_rng(5))
    report = evaluate_failure_event(system, demand, event)
    assert 0.0 <= report.coverage <= 1.0
    if report.achieved_congestion is not None:
        assert report.ratio >= 1.0 - 1e-9
    survivors = rebase_system(system, apply_failure(net, event))
    failed = set(event.failed_edges)
    for _, paths in survivors.items():
        for path in paths:
            assert not failed.intersection(
                {tuple(sorted((u, v), key=repr)) for u, v in zip(path, path[1:])}
            )


# --------------------------------------------------------------------- #
# Runner determinism (the acceptance guarantee)
# --------------------------------------------------------------------- #
def test_run_suite_serial_and_parallel_artifacts_are_bit_identical():
    suite = tiny_suite()
    serial = run_suite(suite, workers=1)
    parallel = run_suite(suite, workers=2)
    assert serial.to_json() == parallel.to_json()
    assert len(serial.cells) == suite.num_cells()


def test_run_suite_is_reproducible_and_seed_sensitive():
    suite = tiny_suite()
    again = run_suite(suite, workers=1)
    assert run_suite(suite, workers=1).to_json() == again.to_json()
    reseeded = run_suite(suite.with_overrides(seed=8), workers=1)
    assert reseeded.to_json() != again.to_json()


def test_failure_axis_replays_the_baseline_demand():
    # Two identical demand entries across the failure axis must replay the
    # same traffic: seeded per (topology, demand), not per cell.
    suite = tiny_suite(
        topologies=[TopologySpec("hypercube", 3)],
        demands=[DemandSpec("permutation")],
        failures=[FailureSpec("none"), FailureSpec("none")],
    )
    result = run_suite(suite, workers=1)
    healthy, replay = result.cells
    assert healthy["rows"] == replay["rows"]


def test_disconnected_cells_keep_fixed_ratio_coverage():
    # A regional failure around any hypercube vertex disconnects it; spf
    # (a FixedRatioRouter) must still report real coverage, not NaN.
    suite = tiny_suite(
        topologies=[TopologySpec("hypercube", 3)],
        demands=[DemandSpec("uniform")],
        failures=[FailureSpec("regional", params=(("radius", 1),))],
        schemes=("spf", "ksp(k=2)"),
    )
    result = run_suite(suite, workers=1)
    (cell,) = result.cells
    assert cell["disconnected"]
    for row in cell["rows"]:
        assert row["coverage"] == row["coverage"]  # not NaN
        assert 0.0 <= row["coverage"] < 1.0


def test_failure_cell_system_rows_equal_evaluate_failure_event():
    # The runner's system-backed rows go through the same step as the
    # standalone evaluator: same congestion, optimum and coverage, on a
    # connected cut, a disconnecting regional outage and a brown-out.
    from repro.scenarios.runner import _STREAM_DEMAND, _build_topology_engine, _derived_rng

    suite = tiny_suite(
        topologies=[TopologySpec("hypercube", 3)],
        demands=[DemandSpec("permutation")],
        failures=[
            FailureSpec("k-edge", params=(("k", 2),)),
            FailureSpec("regional", params=(("radius", 1),)),
            FailureSpec("degrade", params=(("fraction", 0.5), ("factor", 0.5))),
        ],
        schemes=("semi-oblivious(racke, alpha=2)", "ksp(k=2)", "spf"),
        num_snapshots=2,
    )
    result = run_suite(suite, workers=1)
    engine = _build_topology_engine(suite, 0)
    series = suite.demands[0].series(
        engine.network, suite.num_snapshots, _derived_rng(suite.seed, _STREAM_DEMAND, 0)
    )
    checked = 0
    for cell in result.cells:
        event = FailureEvent.from_dict(cell["failure"]["event"])
        for row in cell["rows"]:
            if row["scheme"] == "spf":
                continue  # fixed-ratio: read off the rebased compiled operator
            report = evaluate_failure_event(
                engine[row["scheme"]].system, series[row["snapshot"]], event
            )
            assert row["coverage"] == report.coverage
            if report.disconnects_network:
                assert cell["disconnected"] and row["congestion"] != row["congestion"]
                continue
            assert row["optimal_congestion"] == report.optimal_congestion
            achieved = report.achieved_congestion
            assert row["congestion"] == (float("inf") if achieved is None else achieved)
            checked += 1
    assert checked and any(cell["disconnected"] for cell in result.cells)


def test_healthy_cells_have_unit_coverage_and_sane_ratios():
    result = run_suite(tiny_suite(), workers=1)
    for cell in result.cells:
        for row in cell["rows"]:
            if cell["failure"]["spec"] == "none":
                assert row["coverage"] == 1.0
                assert row["ratio"] is None or row["ratio"] >= 1.0 - 1e-9


# --------------------------------------------------------------------- #
# The real-world suite (ingestion catalog x fitted demands)
# --------------------------------------------------------------------- #
def real_world_probe() -> ScenarioSuite:
    """The built-in real-world suite trimmed to one snapshot per cell."""
    return get_suite("real-world").with_overrides(num_snapshots=1)


def test_real_world_suite_runs_on_real_topologies():
    suite = get_suite("real-world")
    assert len(suite.topologies) >= 3
    assert {spec.kind for spec in suite.topologies} == {"zoo", "sndlib"}
    assert {spec.kind for spec in suite.demands} == {"fitted-gravity", "max-entropy"}
    result = run_suite(real_world_probe(), workers=1)
    assert len(result.cells) == suite.num_cells()
    names = {cell["topology"]["name"] for cell in result.cells}
    assert names == {"abilene", "polska", "nobel-germany"}
    for cell in result.cells:
        for row in cell["rows"]:
            if cell["failure"]["spec"] == "none":
                assert row["ratio"] is None or row["ratio"] >= 1.0 - 1e-9


def test_real_world_suite_is_bit_identical_across_workers():
    # The satellite guarantee: same seed -> bit-identical JSON artifacts
    # across 1 and 4 workers (catalog topologies rebuild deterministically
    # in every spawned process; fitted demands derive from cell seeds).
    suite = real_world_probe()
    serial = run_suite(suite, workers=1)
    parallel = run_suite(suite, workers=4)
    assert serial.to_json() == parallel.to_json()


def test_odme_suite_is_bit_identical_across_workers():
    # Same contract for the telemetry suite: the estimated(...) demand
    # kind consumes cell-seeded randomness (base series first, then one
    # observation per snapshot), so worker sharding cannot perturb it.
    suite = get_suite("odme").with_overrides(num_snapshots=1)
    serial = run_suite(suite, workers=1)
    parallel = run_suite(suite, workers=4)
    assert serial.to_json() == parallel.to_json()


# --------------------------------------------------------------------- #
# Artifacts and harness ingestion
# --------------------------------------------------------------------- #
def test_artifact_round_trips_and_renders_through_harness():
    result = run_suite(tiny_suite(), workers=1)
    payload = json.loads(result.to_json())
    rebuilt = SuiteResult.from_dict(payload)
    assert rebuilt.suite == result.suite
    from repro.utils.serialization import json_sanitize

    # The artifact maps inf -> null (strict JSON); sanitize both sides.
    assert json_sanitize(rebuilt.summary_rows()) == json_sanitize(result.summary_rows())
    experiment = experiment_result_from_scenario(payload)
    rendered = experiment.render()
    assert "scenario_grid" in rendered and "scenario_schemes" in rendered
    assert experiment.tables["scenario_grid"]
    # Re-render from the experiment's own JSON (the Table layer contract).
    assert "scenario_grid" in experiment.to_json()


def test_engine_run_suite_entry_point():
    from repro.engine import RoutingEngine

    result = RoutingEngine.run_suite(tiny_suite(), workers=1)
    assert isinstance(result, SuiteResult)
    assert len(result.cells) == 8


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
def test_cli_scenarios_list_and_describe(capsys):
    from repro.__main__ import main

    assert main(["scenarios", "list"]) == 0
    out = capsys.readouterr().out
    for name in available_suites():
        assert name in out
    assert main(["scenarios", "describe", "smoke"]) == 0
    assert "3 topologies x 2 demands x 2 failures" in capsys.readouterr().out
    assert main(["scenarios", "describe", "nope"]) == 2


def test_cli_scenarios_run_json_round_trips(capsys, tmp_path):
    from repro.__main__ import main

    output = tmp_path / "artifact.json"
    assert main(
        ["scenarios", "run", "--suite", "smoke", "--workers", "1", "--json",
         "--output", str(output)]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["artifact"] == "scenario-suite"
    assert len(payload["cells"]) == 12
    assert json.loads(output.read_text()) == payload
    assert "scenario_grid" in experiment_result_from_scenario(payload).render()
