"""The ``repro bench`` harness: target table, envelope and gates.

The committed ``BENCH_*.json`` baselines are deterministic data, so
their gates run here on every tier-1 leg; each gate condition is also
broken on purpose once to show the gate names it.
"""

import json
import shutil
import sys
from pathlib import Path

import pytest

from repro import bench
from repro.__main__ import main

REPO_ROOT = Path(__file__).resolve().parent.parent
COMMITTED = sorted(str(path) for path in REPO_ROOT.glob("BENCH_*.json"))


def _committed(name):
    return json.loads((REPO_ROOT / f"BENCH_{name}.json").read_text())


def test_committed_artifacts_pass_every_gate(capsys):
    assert sorted(json.loads(Path(path).read_text())["name"] for path in COMMITTED) == sorted(
        bench.TARGETS
    )
    assert main(["bench", "check", *COMMITTED]) == 0
    assert "every gate holds" in capsys.readouterr().out


def _set(*keys):
    """A mutation writing ``keys[-1]`` at the key path ``keys[:-1]``."""
    *path, value = keys

    def mutate(payload):
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return mutate


def _shift_first_gap(payload):
    payload["topologies"][0]["gaps"]["8"] += 1e-5


def _shrink_ladder(payload):
    for points in payload["curves"].values():
        for point in points:
            point["nodes"] = 999


def _first_point(key, value):
    def mutate(payload):
        next(iter(payload["curves"].values()))[0][key] = value

    return mutate


#: (target, scale, mutation, the condition the gate must name).  A
#: non-full payload is a copy of the committed one at that scale, checked
#: beside the committed baseline as CI checks a fresh smoke run.
BROKEN = [
    ("linalg", "full", _set("max_abs_difference", 1e-3), "max_abs_difference <= 1e-9"),
    ("rebase", "full", _set("max_abs_difference", 1e-3), "max_abs_difference <= 1e-9"),
    ("rebase", "full", _set("finiteness_mismatches", 1), "finiteness_mismatches == 0"),
    ("stream", "smoke", _set("max_abs_difference", 1e-3), "max_abs_difference <= 1e-9"),
    ("net", "full", _set("max_abs_difference", 1e-3), "max_abs_difference <= 1e-9"),
    ("odme", "full", _set("max_abs_difference", 1e-3), "max_abs_difference <= 1e-9"),
    ("sweep", "smoke", _set("artifacts_identical", False), "artifacts_identical"),
    ("obs", "smoke", _set("overhead_disabled_pct", -26.0), "|overhead_disabled_pct| < 25"),
    ("obs", "smoke", _set("overhead_enabled_pct", 26.0), "|overhead_enabled_pct| < 25"),
    ("obs", "smoke", _set("sweep", "num_spans", 0), "sweep.num_spans > 0"),
    ("obs", "full", _set("overhead_disabled_pct", -6.0), "|overhead_disabled_pct| < 5"),
    ("obs", "full", _set("overhead_enabled_pct", 6.0), "overhead_enabled_pct < 5"),
    ("obs", "full", _set("sweep", "overhead_pct", 11.0), "|sweep.overhead_pct| < 10"),
    ("ecmp", "smoke", _set("workload", "buckets", [2, 4, 8]), "buckets == [2, 4, 8, 16]"),
    ("ecmp", "full", _set("max_gap", 1.0 - 1e-6), "max_gap >= 1 - 1e-9"),
    ("ecmp", "smoke", _shift_first_gap, "not within 1e-6 of the full-scale gap"),
    ("scale", "smoke", _set("max_abs_difference", 1e-3), "max_abs_difference <= 1e-9"),
    ("scale", "smoke", _set("within_budget", False), "within_budget"),
    ("scale", "smoke", _set("curves", "sparse", []), "every backend has curve points"),
    ("scale", "smoke", _first_point("within_budget", False), "every curve point within budget"),
    (
        "scale",
        "full",
        _first_point("max_abs_difference", 1e-3),
        "every curve point's max_abs_difference <= 1e-9",
    ),
    ("scale", "full", _shrink_ladder, "a >= 1000-node point per backend"),
]


@pytest.mark.parametrize(
    "name, scale, mutate, condition",
    BROKEN,
    ids=[f"{name}-{scale}-{condition}" for name, scale, _, condition in BROKEN],
)
def test_gate_names_the_broken_condition(tmp_path, capsys, name, scale, mutate, condition):
    payload = {**_committed(name), "scale": scale}
    mutate(payload)
    paths = [bench.write(payload, output_dir=str(tmp_path))]
    if scale != "full":
        paths.append(str(REPO_ROOT / f"BENCH_{name}.json"))
    assert main(["bench", "check", *paths]) == 1
    violated = capsys.readouterr().err.strip().splitlines()
    assert len(violated) == 1, violated
    assert violated[0].startswith(f"violated: {name}: {scale}: ") and condition in violated[0]


def test_check_rejects_missing_and_misnamed_artifacts(tmp_path):
    fresh = bench.write({**_committed("linalg"), "scale": "smoke"}, output_dir=str(tmp_path))
    committed = [str(REPO_ROOT / "BENCH_linalg.json"), str(REPO_ROOT / "BENCH_obs.json")]
    assert bench.check([fresh, *committed]) == ["obs: no smoke-scale artifact given"]
    # A committed baseline must hold a full-scale run of its target.
    misnamed = tmp_path / "BENCH_obs.json"
    misnamed.write_text(json.dumps({**_committed("obs"), "scale": "smoke"}))
    assert "named BENCH_obs_smoke.json" in bench.check([str(misnamed)])[0]
    shutil.copy(REPO_ROOT / "BENCH_obs.json", tmp_path / "BENCH_net.json")
    assert "named BENCH_obs.json" in bench.check([str(tmp_path / "BENCH_net.json")])[0]
    assert "unreadable" in bench.check([str(tmp_path / "BENCH_absent.json")])[0]



def test_failing_target_does_not_stop_the_later_ones(tmp_path, monkeypatch, capsys):
    from repro.exceptions import ReproError

    def broken(scale, seed):
        raise ReproError("target broke on purpose")

    monkeypatch.setattr(bench.target("ecmp"), "run", broken)
    monkeypatch.setattr(bench.target("linalg"), "run", lambda scale, seed: {"backends": {}})
    monkeypatch.setattr(bench.target("linalg"), "headline", lambda payload: "stub")
    monkeypatch.setattr(bench.target("net"), "run", lambda scale, seed: {"backends": {}})
    monkeypatch.setattr(bench.target("net"), "headline", lambda payload: "stub")
    argv = ["bench", "ecmp", "linalg", "net", "--scale", "smoke", "--output-dir", str(tmp_path)]
    assert main(argv) == 1
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "BENCH_linalg_smoke.json",
        "BENCH_net_smoke.json",
    ]
    err = capsys.readouterr().err
    assert "bench 'ecmp' failed: target broke on purpose" in err
    assert "1 bench target(s) failed: ['ecmp']" in err


def test_readme_bench_table_is_the_rendered_baselines():
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        import check_docs
    finally:
        sys.path.remove(str(REPO_ROOT / "tools"))
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    failures = []
    check_docs.check_bench_table(readme, failures)
    assert failures == []
    check_docs.check_bench_table(readme.replace("| `scale` |", "| `scale` | stale", 1), failures)
    assert len(failures) == 1 and "differs from tools/render_bench_table.py" in failures[0]
    assert "+| `scale` | isp-182x11" in failures[0]


def test_check_docs_fails_on_a_docstring_reference_that_does_not_import(tmp_path):
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        import check_docs
    finally:
        sys.path.remove(str(REPO_ROOT / "tools"))
    (tmp_path / "module.py").write_text(
        '"""See :class:`~repro.core.routing.Routing` and :mod:`repro.linalg`.\n\n'
        'Also :func:`repro.core.path_system.audit_paths`, the constant\n'
        ':data:`repro.core.path_system.PROBABILITY_TOL` and\n'
        ':meth:`the old one <repro.core.routing.Routing.set_distribution>`.\n"""\n'
        "\n\ndef helper():\n"
        '    """Calls :func:`repro.core.no_such_module.thing`."""\n',
        encoding="utf-8",
    )
    failures = []
    assert check_docs.check_docstring_references(tmp_path, failures) == 6
    assert [failure.split(": ", 1)[1] for failure in failures] == [
        "docstring refers to repro.core.routing.Routing.set_distribution, which does not import",
        "docstring refers to repro.core.no_such_module.thing, which does not import",
    ]
    failures = []
    assert check_docs.check_docstring_references(REPO_ROOT / "src", failures) > 100
    assert failures == []
