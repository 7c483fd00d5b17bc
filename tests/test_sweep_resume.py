"""Crash/kill hardening and worker-count equivalence tests for the sweep runner.

The claims under test, in order of importance:

1. A sweep SIGKILLed mid-flight resumes from its artifact store and
   produces a **byte-identical** artifact to an uninterrupted run.
2. A worker exception (injected via ``REPRO_SWEEP_FAIL_CELL``) aborts
   the sweep but keeps every already-completed cell; the resume is again
   bit-identical.
3. Every worker count (1 inline, more on the spawn pool) assembles
   the same artifact bit for bit — on the built-in catalog-backed
   suites too, not just synthetic grids.
4. More workers than topologies actually get used (the cell-granular
   queue is not capped at the topology count).
"""

import contextlib
import hashlib
import json
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.engine import RoutingEngine
from repro.exceptions import ArtifactError
from repro.graphs import topologies
from repro.linalg import CompiledRouting
from repro.scenarios import (
    ArtifactStore,
    DemandSpec,
    FailureSpec,
    ScenarioSuite,
    TopologySpec,
    get_suite,
    run_suite,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def probe_suite(**overrides) -> ScenarioSuite:
    """A cheap 1-topology suite with enough cells to spread over workers."""
    payload = dict(
        name="resume-probe",
        topologies=[TopologySpec("hypercube", 3)],
        demands=[DemandSpec("permutation"), DemandSpec("gravity")],
        failures=[
            FailureSpec("none"),
            FailureSpec("k-edge", params=(("k", 1),)),
            FailureSpec("k-edge", params=(("k", 2),)),
        ],
        schemes=("ksp(k=2)", "spf"),
        num_snapshots=1,
        seed=11,
    )
    payload.update(overrides)
    return ScenarioSuite(**payload)


def cli_env(**extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_SWEEP_DELAY_MS", None)
    env.pop("REPRO_SWEEP_FAIL_CELL", None)
    env.update(extra)
    return env


def run_cli(args, env=None, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=REPO_ROOT,
        env=env or cli_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def process_group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def store_record_count(store_dir: Path) -> int:
    return sum(
        1
        for chunk in store_dir.glob("cells-*.jsonl")
        for line in chunk.read_bytes().splitlines()
        if line.strip()
    )


# --------------------------------------------------------------------- #
# 1. SIGKILL mid-sweep, then resume
# --------------------------------------------------------------------- #
def test_sigkilled_sweep_resumes_bit_identical(tmp_path):
    baseline = tmp_path / "baseline.json"
    resumed = tmp_path / "resumed.json"
    store_dir = tmp_path / "store"
    suite_args = ["scenarios", "run", "--suite", "smoke", "--workers", "2"]

    completed = run_cli([*suite_args, "--output", str(baseline)])
    assert completed.returncode == 0, completed.stderr

    # Launch the same sweep against a store, slowed enough that the kill
    # lands mid-flight, in its own session so its process group holds
    # exactly the sweep, its pool workers and multiprocessing's resource
    # tracker.
    victim = subprocess.Popen(
        [sys.executable, "-m", "repro", *suite_args,
         "--artifact-dir", str(store_dir), "--output", str(tmp_path / "never.json")],
        cwd=REPO_ROOT,
        env=cli_env(REPRO_SWEEP_DELAY_MS="500"),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    pgid = victim.pid
    try:
        deadline = time.monotonic() + 120
        while store_record_count(store_dir) < 1:
            assert victim.poll() is None, "sweep finished before it could be killed"
            assert time.monotonic() < deadline, "no store records before timeout"
            time.sleep(0.05)
        # SIGKILL only the sweep itself.  Its workers and the resource
        # tracker see it die and exit on their own; the tracker unlinks
        # the pool's named semaphores on the way out, which it cannot do
        # when the whole group is killed at once.
        victim.kill()
        victim.wait(timeout=30)
        deadline = time.monotonic() + 60
        while process_group_alive(pgid):
            assert time.monotonic() < deadline, "the killed sweep's processes outlived it"
            time.sleep(0.05)
    finally:
        if process_group_alive(pgid):  # an assertion failed above
            with contextlib.suppress(ProcessLookupError):
                os.killpg(pgid, signal.SIGKILL)
        victim.wait(timeout=30)

    partial = store_record_count(store_dir)
    assert 1 <= partial < 12, f"kill landed outside the sweep ({partial} records)"
    assert not (tmp_path / "never.json").exists()

    completed = run_cli([*suite_args, "--resume", str(store_dir), "--output", str(resumed)])
    assert completed.returncode == 0, completed.stderr
    assert resumed.read_bytes() == baseline.read_bytes()
    # The resume evaluated only the missing cells on top of the survivors.
    assert store_record_count(store_dir) == 12


def test_resume_against_different_suite_is_rejected(tmp_path):
    store_dir = tmp_path / "store"
    suite = probe_suite()
    run_suite(suite, workers=1, artifact_dir=str(store_dir))
    completed = run_cli(
        ["scenarios", "run", "--suite", "smoke", "--resume", str(store_dir)]
    )
    assert completed.returncode == 2
    assert "different sweep" in completed.stderr


def test_resume_of_a_version_1_store_is_refused(tmp_path):
    # A store written before the evaluation form left the manifest: the
    # version-1 layout recorded "backend": "sparse" and hashed it with
    # the suite.  Resuming into it is refused by the version check.
    suite = probe_suite()
    canonical = json.dumps(
        {"suite": suite.to_dict(), "backend": "sparse"}, sort_keys=True, default=str
    )
    manifest = {
        "artifact": "sweep-store",
        "version": 1,
        "suite_hash": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "backend": "sparse",
        "num_cells": suite.num_cells(),
        "chunk_lines": 512,
        "suite": json.loads(json.dumps(suite.to_dict(), default=str)),
    }
    store_dir = tmp_path / "store"
    store_dir.mkdir()
    (store_dir / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ArtifactError, match="schema version 1; this build reads version 2"):
        run_suite(suite, workers=1, resume=str(store_dir))
    assert sorted(path.name for path in store_dir.iterdir()) == ["manifest.json"]


# --------------------------------------------------------------------- #
# 2. Injected worker exception, then resume
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("workers", [1, 2], ids=["inline-1", "pool-2"])
def test_injected_cell_failure_keeps_completed_cells(tmp_path, monkeypatch, workers):
    suite = probe_suite()
    store_dir = tmp_path / "store"
    uninterrupted = run_suite(suite, workers=1)

    monkeypatch.setenv("REPRO_SWEEP_FAIL_CELL", "4")
    with pytest.raises(RuntimeError, match="injected failure in cell 4"):
        run_suite(suite, workers=workers, artifact_dir=str(store_dir))
    monkeypatch.delenv("REPRO_SWEEP_FAIL_CELL")

    survivors = ArtifactStore.open_existing(str(store_dir))
    completed_before = survivors.completed_indices()
    assert completed_before, "the abort must not wipe completed cells"
    assert 4 not in completed_before
    survivors.close()

    resumed = run_suite(suite, workers=workers, resume=str(store_dir))
    assert resumed.to_json() == uninterrupted.to_json()
    after = ArtifactStore.open_existing(str(store_dir))
    assert after.is_complete()
    # The resume only filled the gaps: the surviving records kept their
    # original payload bytes (spot-check one).
    assert after.payload(completed_before[0]) == survivors.payload(completed_before[0])
    after.close()


# --------------------------------------------------------------------- #
# 3. Worker-count / backend equivalence
# --------------------------------------------------------------------- #
def test_executor_equivalence_on_probe_suite():
    suite = probe_suite()
    reference = run_suite(suite, workers=1).to_json()
    assert run_suite(suite, workers=4).to_json() == reference
    assert run_suite(suite, workers=2).to_json() == reference


def test_backend_equivalence_across_executors():
    # The parent compiles the CSR operators at install and the pool
    # workers evaluate through exactly those, unpickled with the engines:
    # the compile travels inside its routing's evaluator cache.
    suite = probe_suite()
    inline = run_suite(suite, workers=1)
    pooled = run_suite(suite, workers=2)
    assert pooled.to_json() == inline.to_json()
    engine = RoutingEngine(topologies.hypercube(3), ["spf"], rng=0)
    engine.install()
    routing = pickle.loads(pickle.dumps(engine["spf"].routing))
    compiled = routing._evaluators["auto"]
    assert isinstance(compiled, CompiledRouting)
    assert compiled.network is routing.network
    assert compiled.pairs == tuple(sorted(routing.pairs(), key=repr))
    assert routing.evaluator("auto") is compiled


def test_real_world_suite_bit_identical_across_executors(tmp_path):
    suite = get_suite("real-world").with_overrides(num_snapshots=1)
    reference = run_suite(suite, workers=1).to_json()
    pooled = run_suite(suite, workers=4, artifact_dir=str(tmp_path / "store"))
    assert pooled.to_json() == reference


def test_odme_suite_bit_identical_across_executors():
    suite = get_suite("odme").with_overrides(num_snapshots=1)
    reference = run_suite(suite, workers=1).to_json()
    assert run_suite(suite, workers=3).to_json() == reference


def test_streamed_store_and_memory_path_agree(tmp_path):
    suite = probe_suite()
    direct = run_suite(suite, workers=1)
    streamed = run_suite(suite, workers=1, artifact_dir=str(tmp_path / "store"))
    assert streamed.to_json() == direct.to_json()
    # Round trip purely from the store: a no-op resume re-assembles the
    # artifact from disk records without evaluating anything.
    resumed = run_suite(suite, workers=1, resume=str(tmp_path / "store"))
    assert resumed.to_json() == direct.to_json()


# --------------------------------------------------------------------- #
# 4. Pool sizing: more workers than topologies are used
# --------------------------------------------------------------------- #
def test_more_workers_than_topologies_are_used(tmp_path, monkeypatch):
    # One topology, nine cells: a one-task-per-topology pool would
    # collapse this to a single process no matter what; the cell-granular
    # queue must fan it out.  The delay keeps early workers from draining the
    # queue before late ones finish spawning.
    suite = probe_suite(
        failures=[
            FailureSpec("none"),
            FailureSpec("k-edge", params=(("k", 1),)),
            FailureSpec("k-edge", params=(("k", 2),)),
        ],
        demands=[DemandSpec("permutation"), DemandSpec("gravity"), DemandSpec("uniform")],
    )
    assert len(suite.topologies) == 1 and suite.num_cells() == 9
    monkeypatch.setenv("REPRO_SWEEP_DELAY_MS", "400")
    run_suite(suite, workers=4, artifact_dir=str(tmp_path / "store"))
    monkeypatch.delenv("REPRO_SWEEP_DELAY_MS")
    store = ArtifactStore.open_existing(str(tmp_path / "store"))
    pids = {pid for pid in store.completed_pids().values() if pid is not None}
    store.close()
    assert len(pids) > 1, (
        "a 4-worker sweep over a 1-topology suite ran in a single process; "
        "the pool is being capped at the topology count again"
    )

