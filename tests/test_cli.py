"""Tests for the ``python -m repro`` command-line interface."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main
from repro.experiments import REGISTRY

SRC = Path(__file__).resolve().parent.parent / "src"


def test_list_prints_every_experiment(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in REGISTRY:
        assert name in out


def test_list_and_bare_experiments_run_in_registry_order(capsys):
    expected = [f"E{number}" for number in range(1, 13)]
    assert [name.split("_")[0] for name in REGISTRY] == expected
    assert main(["list"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert listed == list(REGISTRY)
    assert main(["experiments", "--scale", "smoke", "--json"]) == 0
    payloads = json.loads(capsys.readouterr().out)
    assert [payload["experiment_id"] for payload in payloads] == list(REGISTRY)


def _leaf_parsers(parser, path=()):
    """Yield ``(command words, parser)`` for every leaf of the parser tree."""
    groups = [action for action in parser._actions
              if isinstance(action, argparse._SubParsersAction)]
    if not groups:
        yield path, parser
    for group in groups:
        for name, child in group.choices.items():
            yield from _leaf_parsers(child, path + (name,))


def test_every_leaf_command_has_a_handler():
    leaves = dict(_leaf_parsers(build_parser()))
    assert len(leaves) == 22
    for words, parser in leaves.items():
        assert callable(parser.get_default("handler")), " ".join(words)


def _run_repro(*args, **kwargs):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    return subprocess.Popen([sys.executable, *args], env=env, **kwargs)


def test_closed_pipe_ends_quietly():
    # The reader is gone before the first write, so every write breaks.
    process = _run_repro("-m", "repro", "list",
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    process.stdout.close()
    stderr = process.stderr.read()
    process.stderr.close()
    assert process.wait(timeout=60) != 0
    assert stderr == b""


def test_list_imports_no_subsystem_package():
    probe = ("import io, contextlib, sys\n"
             "from repro.__main__ import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    main(['list'])\n"
             "print(' '.join(sorted(sys.modules)))")
    process = _run_repro("-c", probe, stdout=subprocess.PIPE, text=True)
    loaded = process.communicate(timeout=60)[0].split()
    assert process.returncode == 0
    for package in ("net", "telemetry", "forwarding", "synth"):
        assert not [name for name in loaded if name.startswith(f"repro.{package}")], package


def test_experiments_smoke_run(capsys):
    assert main(["experiments", "--scale", "smoke", "E6_rounding"]) == 0
    out = capsys.readouterr().out
    assert "E6_rounding" in out
    assert "completed in" in out


def test_experiments_unknown_id(capsys):
    assert main(["experiments", "not-an-experiment"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_quickstart(capsys):
    assert main(["quickstart", "--dimension", "3", "--alpha", "2"]) == 0
    out = capsys.readouterr().out
    assert "ratio=" in out


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_experiments_json(capsys):
    assert main(["experiments", "--scale", "smoke", "--json", "E6_rounding"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["experiment_id"] == "E6_rounding"
    assert "tables" in payload[0]


def test_schemes_lists_registry(capsys):
    assert main(["schemes"]) == 0
    out = capsys.readouterr().out
    for name in ("semi-oblivious", "ksp", "spf", "optimal", "racke"):
        assert name in out


def test_te_default_schemes(capsys):
    assert main(["te", "--topology", "hypercube:3", "--snapshots", "2"]) == 0
    out = capsys.readouterr().out
    for label in ("semi-oblivious", "oblivious", "ksp", "spf", "optimal"):
        assert label in out
    assert "optimal MCF solve" in out


def test_te_explicit_schemes_json(capsys):
    assert main([
        "te", "--topology", "hypercube:3", "--snapshots", "2", "--json",
        "--scheme", "semi-oblivious(racke, alpha=2)", "--scheme", "spf",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["schemes"]) == {"semi-oblivious", "spf"}
    assert payload["optimal_mcf_solves"] == 2
    ratios = payload["schemes"]["semi-oblivious"]["utilization_ratios"]
    assert len(ratios) == 2 and all(r >= 1.0 - 1e-9 for r in ratios)


def test_te_bad_scheme_spec(capsys):
    assert main(["te", "--topology", "hypercube:3", "--scheme", "nonsense"]) == 2
    assert "bad scheme spec" in capsys.readouterr().err


def test_te_unknown_topology():
    with pytest.raises(SystemExit):
        main(["te", "--topology", "moebius:3"])


def test_te_non_integer_topology_size():
    with pytest.raises(SystemExit):
        main(["te", "--topology", "hypercube:abc"])


def test_topology_shorthand_builds_the_direct_network():
    # ``name:arg`` goes through the kind registry and must build exactly
    # what the generator or catalog call builds with the same seed.
    from repro.cli import _build_te_network
    from repro.graphs import topologies
    from repro.graphs.generators import waxman_isp
    from repro.net import load_network

    seed = 5
    direct = {
        "hypercube:3": topologies.hypercube(3),
        "torus:4": topologies.torus_2d(4),
        "expander:12": topologies.random_regular_expander(12, rng=seed),
        "waxman:14": waxman_isp(14, rng=seed),
        "zoo:abilene": load_network("zoo(abilene)"),
    }
    for topology, expected in direct.items():
        built = _build_te_network(topology, seed)
        assert built.edges == expected.edges, topology
        assert [built.capacity_of(edge) for edge in built.edges] == [
            expected.capacity_of(edge) for edge in expected.edges
        ], topology


def test_te_bad_scheme_param(capsys):
    assert main(["te", "--topology", "hypercube:3", "--scheme", "ksp(k=0)"]) == 2
    assert "bad scheme spec" in capsys.readouterr().err


def test_te_zero_snapshots(capsys):
    assert main(["te", "--topology", "hypercube:3", "--snapshots", "0"]) == 2
    assert "bad traffic series" in capsys.readouterr().err


def test_stream_list(capsys):
    assert main(["stream", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("random-walk", "flash-crowd", "adversarial-shift", "diurnal",
                 "static", "periodic", "threshold", "semi-oblivious"):
        assert name in out


def test_stream_describe(capsys):
    assert main(["stream", "describe", "random-walk"]) == 0
    assert "random-walk" in capsys.readouterr().out
    assert main(["stream", "describe", "periodic"]) == 0
    assert "MCF" in capsys.readouterr().out
    assert main(["stream", "describe", "nope"]) == 2
    assert "unknown stream or policy" in capsys.readouterr().err


def test_stream_run_table(capsys):
    assert main([
        "stream", "run", "--topology", "torus:3", "--stream", "random-walk",
        "--steps", "8", "--policy", "static", "--seed", "1",
    ]) == 0
    out = capsys.readouterr().out
    assert "static" in out and "cum.cong" in out


def test_stream_run_json_is_bit_identical(capsys):
    args = ["stream", "run", "--topology", "torus:3", "--stream", "flash-crowd",
            "--steps", "10", "--policy", "static", "--policy", "semi-oblivious(every=4)",
            "--seed", "3", "--json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["num_steps"] == 10
    assert set(payload["policies"]) == {"static", "semi-oblivious(every=4)"}


def test_stream_run_bad_policy(capsys):
    assert main([
        "stream", "run", "--topology", "torus:3", "--steps", "4",
        "--policy", "warp-speed",
    ]) == 2
    assert "stream run failed" in capsys.readouterr().err


def test_stream_run_writes_output(tmp_path, capsys):
    target = tmp_path / "stream.json"
    assert main([
        "stream", "run", "--topology", "torus:3", "--steps", "4",
        "--policy", "static", "--no-steps", "--output", str(target),
    ]) == 0
    capsys.readouterr()
    payload = json.loads(target.read_text())
    assert "steps" not in payload["policies"]["static"]


def test_bench_list_includes_stream(capsys):
    assert main(["bench", "list"]) == 0
    assert "stream" in capsys.readouterr().out


def test_bench_list_includes_obs(capsys):
    assert main(["bench", "list"]) == 0
    out = capsys.readouterr().out
    assert "obs" in out and "tracing overhead" in out


def test_scenarios_run_unknown_suite_exits_2(capsys):
    assert main(["scenarios", "run", "--suite", "nope"]) == 2
    err = capsys.readouterr().err
    assert "unknown suite" in err
    assert len(err.strip().splitlines()) == 1


def test_stream_run_unknown_stream_exits_2(capsys):
    assert main([
        "stream", "run", "--topology", "torus:3", "--stream", "nope", "--steps", "4",
    ]) == 2
    err = capsys.readouterr().err
    assert "stream run failed" in err and "unknown stream" in err
    assert len(err.strip().splitlines()) == 1


def test_forwarding_quantize_table(capsys):
    assert main([
        "forwarding", "quantize", "--topology", "hypercube:3", "--buckets", "4",
    ]) == 0
    out = capsys.readouterr().out
    assert "quantized" in out and "next-hop rules" in out


def test_forwarding_gap_json_is_bit_identical(capsys):
    args = ["forwarding", "gap", "--topology", "zoo(abilene)", "--buckets", "8",
            "--flows", "32", "--json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["schema"] == "repro-forwarding/v1"
    [row] = payload["rows"]
    assert row["buckets"] == 8
    assert row["gap"] == pytest.approx(
        row["quantized_congestion"] / row["fractional_congestion"]
    )
    assert row["analytic"]["bins"] == 8


def test_forwarding_realize_rejects_bucketless_scheme(capsys):
    assert main([
        "forwarding", "realize", "--topology", "hypercube:3",
        "--scheme", "optimal",
    ]) == 2
    assert "does not materialize a routing" in capsys.readouterr().err


def test_stream_run_churn_buckets_summary(capsys):
    assert main([
        "stream", "run", "--topology", "torus:3", "--steps", "6",
        "--policy", "static", "--churn-buckets", "4", "--json", "--no-steps",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    summary = payload["policies"]["static"]["summary"]
    assert summary["churn_buckets"] == 4
    assert summary["forwarding_churn"] >= summary["forwarding_rules"] > 0


def test_bench_list_includes_ecmp(capsys):
    assert main(["bench", "list"]) == 0
    out = capsys.readouterr().out
    assert "ecmp" in out and "fractional-vs-ECMP" in out


def test_te_trace_writes_parseable_file(tmp_path, capsys):
    from repro.obs import load_trace, span_records, tracing_enabled

    trace_path = tmp_path / "te.jsonl"
    assert main([
        "te", "--topology", "hypercube:3", "--snapshots", "2",
        "--scheme", "spf", "--trace", str(trace_path),
    ]) == 0
    captured = capsys.readouterr()
    assert f"wrote trace to {trace_path}" in captured.err
    assert not tracing_enabled()  # CLI uninstalls its tracer on the way out
    records = load_trace(str(trace_path))
    names = {record["name"] for record in span_records(records)}
    assert "cli.te" in names
    assert any(name.startswith("mcf.") for name in names)


def test_trace_summarize_and_export_cli(tmp_path, capsys):
    trace_path = tmp_path / "te.jsonl"
    assert main([
        "te", "--topology", "hypercube:3", "--snapshots", "1",
        "--scheme", "spf", "--trace", str(trace_path),
    ]) == 0
    capsys.readouterr()

    assert main(["trace", "summarize", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "span" in out and "self_s" in out and "cli.te" in out

    chrome_path = tmp_path / "te.chrome.json"
    assert main([
        "trace", "export", str(trace_path), "--chrome", "--output", str(chrome_path),
    ]) == 0
    capsys.readouterr()
    document = json.loads(chrome_path.read_text())
    assert document["traceEvents"]
    phases = {event["ph"] for event in document["traceEvents"]}
    assert phases == {"M", "X"}

    # default output path derives from the trace path
    assert main(["trace", "export", str(trace_path), "--chrome"]) == 0
    capsys.readouterr()
    assert (tmp_path / "te.chrome.json").exists()


def test_trace_summarize_missing_file_exits_2(tmp_path, capsys):
    assert main(["trace", "summarize", str(tmp_path / "absent.jsonl")]) == 2
    assert "cannot read trace file" in capsys.readouterr().err
