"""The ``sweep`` bench target: shared-memory executor vs rebuild baseline.

The bench runs one install-heavy scenario suite twice through
:func:`repro.scenarios.runner.run_suite` with identical worker counts:

* ``rebuild`` — the honest baseline the shared executor replaces: a
  cell-granular work queue whose workers rebuild and re-install every
  topology's engine on first touch, so ``W`` workers pay up to ``W``
  oblivious-routing constructions per topology;
* ``shared`` — the production path: the parent installs each engine
  once, ships it lean through pool initargs, and publishes the compiled
  fixed-ratio operators through ``multiprocessing.shared_memory``
  (zero-copy read-only views in the workers).

The suite is deliberately construction-dominated: hop-constrained
oblivious routing (the paper's central object) with a deep tree
ensemble makes installation expensive, while single-snapshot
``permutation`` demands keep the per-cell LP evaluations cheap — the
regime real catalog sweeps live in once topologies stop being toys.
Every failure axis has at least as many cells per topology as workers,
so the rebuild baseline genuinely touches each topology from (almost)
every worker.

Two correctness gates ride along in the payload: ``artifacts_identical``
records that both executors serialized bit-identical suite artifacts,
and ``leaked_segments`` counts ``repro_shm_*`` segments still alive
after both runs in this process tree (must be zero — the parent
unlinks on exit).  :func:`gate` holds both.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List

from repro.bench import legs, speedup, violations
from repro.utils.timing import Stopwatch, timing_entry

from repro.scenarios.runner import _STREAM_TOPOLOGY, _derived_rng, run_suite
from repro.scenarios.shm import cleanup_stale_segments, owned_segments
from repro.scenarios.spec import (
    DemandSpec,
    FailureSpec,
    ScenarioSuite,
    TopologySpec,
)

DESCRIPTION = "sweep executors: shared-memory operators vs rebuild-per-worker engines"

#: Per-scale suite shape: topology axis, hop-constrained ensemble depth,
#: failure axis length, and pool size.  Failure cells per topology stay
#: >= workers so every rebuild worker pays installs for every topology.
_SWEEP_SCALES: Dict[str, Dict[str, Any]] = {
    "smoke": {
        "topologies": (("torus", 4), ("hypercube", 3)),
        "hop_bound": 6,
        "num_trees": 4,
        "num_failures": 2,
        "workers": 2,
    },
    "small": {
        "topologies": (("torus", 5), ("hypercube", 4)),
        "hop_bound": 8,
        "num_trees": 16,
        "num_failures": 4,
        "workers": 2,
    },
    "full": {
        "topologies": (("torus", 6), ("torus", 5), ("hypercube", 4)),
        "hop_bound": 10,
        "num_trees": 64,
        "num_failures": 4,
        "workers": 4,
    },
}


def _suite(scale: str, seed: int) -> ScenarioSuite:
    """The install-heavy suite a given bench scale executes."""
    config = _SWEEP_SCALES[scale]
    failures = [FailureSpec("none")]
    failures += [
        FailureSpec("k-edge", params=(("k", k),))
        for k in range(1, int(config["num_failures"]))
    ]
    return ScenarioSuite(
        name=f"bench-sweep-{scale}",
        description=(
            "install-dominated executor benchmark: hop-constrained oblivious "
            f"routing ({config['num_trees']} trees) across "
            f"{len(config['topologies'])} topologies"
        ),
        topologies=[TopologySpec(kind, size) for kind, size in config["topologies"]],
        demands=[DemandSpec("permutation")],
        failures=failures,
        schemes=(
            "oblivious(hop-constrained, hop_bound="
            f"{config['hop_bound']}, num_trees={config['num_trees']})",
            "spf",
        ),
        num_snapshots=1,
        seed=seed,
    )


def run(scale: str, seed: int) -> Dict[str, Any]:
    """Time the shared-memory executor against the rebuild-per-worker baseline."""
    config = _SWEEP_SCALES[scale]
    suite = _suite(scale, seed)
    workers = int(config["workers"])

    networks = [
        spec.build(_derived_rng(suite.seed, _STREAM_TOPOLOGY, index))
        for index, spec in enumerate(suite.topologies)
    ]

    cleanup_stale_segments()
    with Stopwatch() as rebuild_watch:
        rebuild_result = run_suite(suite, workers=workers, executor="rebuild")
    with Stopwatch() as shared_watch:
        shared_result = run_suite(suite, workers=workers, executor="shared")
    # Only this process tree's segments: a concurrent sweep's are not leaks.
    leaked = owned_segments(os.getpid())

    num_cells = suite.num_cells()
    rebuild_seconds = rebuild_watch.elapsed
    shared_seconds = shared_watch.elapsed
    return {
        "network": {
            "name": "+".join(network.name for network in networks),
            "n": sum(network.num_vertices for network in networks),
            "m": sum(network.num_edges for network in networks),
        },
        "workload": {
            "num_topologies": len(suite.topologies),
            "num_cells": num_cells,
            "num_snapshots": suite.num_snapshots,
            "workers": workers,
            "schemes": list(suite.schemes),
            "backend": shared_result.backend,
        },
        "backends": {
            "rebuild": {
                "backend": "rebuild-per-worker",
                **timing_entry(rebuild_seconds, count=num_cells, rate_key="cells_per_sec"),
            },
            "shared": {
                "backend": "shared-memory",
                **timing_entry(shared_seconds, count=num_cells, rate_key="cells_per_sec"),
            },
        },
        "speedup_shared_over_rebuild": (
            rebuild_seconds / shared_seconds if shared_seconds > 0 else None
        ),
        "artifacts_identical": rebuild_result.to_json() == shared_result.to_json(),
        "leaked_segments": len(leaked),
    }


def headline(payload: Dict[str, Any]) -> str:
    workload = payload["workload"]
    return (
        f"{workload['num_cells']} cells x {workload['workers']} workers; {legs(payload)}; "
        f"speedup {speedup(payload['speedup_shared_over_rebuild'])}; "
        f"identical={payload['artifacts_identical']}, leaked={payload['leaked_segments']}"
    )


def gate(payloads: List[Dict[str, Any]]) -> List[str]:
    return violations(
        payloads,
        ("artifacts_identical", lambda payload: payload["artifacts_identical"] is True),
        ("leaked_segments == 0", lambda payload: payload["leaked_segments"] == 0),
    )
