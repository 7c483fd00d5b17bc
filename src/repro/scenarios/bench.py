"""The ``sweep`` bench target: the spawn pool against the inline sweep.

The bench runs one install-heavy scenario suite twice through
:func:`repro.scenarios.runner.run_suite`:

* ``inline`` — ``workers=1``: one process installs every topology's
  engine and evaluates every cell in canonical order;
* ``pool`` — ``workers=W``: the parent installs each engine once (the
  fixed-ratio schemes compile their operators at install) and hands the
  engines, compiled operators included, to a ``W``-process spawn pool
  through its initargs; the workers drain a cell-granular queue.

The suite is deliberately construction-dominated: hop-constrained
oblivious routing (the paper's central object) with a deep tree
ensemble makes installation expensive, while single-snapshot
``permutation`` demands keep the per-cell LP evaluations cheap — the
regime real catalog sweeps live in once topologies stop being toys.
Both legs pay every install once, in one process, so
``speedup_pool_over_inline`` measures what fanning the cells out buys
after installation, net of spawning the pool and pickling the engines.

``artifacts_identical`` records that both legs serialized bit-identical
suite artifacts; :func:`gate` holds it.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.bench import legs, speedup, violations
from repro.utils.timing import Stopwatch, timing_entry

from repro.scenarios.runner import _STREAM_TOPOLOGY, _derived_rng, run_suite
from repro.scenarios.spec import (
    DemandSpec,
    FailureSpec,
    ScenarioSuite,
    TopologySpec,
)

DESCRIPTION = "sweep: spawn pool over parent-installed engines vs the inline sweep"

#: Per-scale suite shape: topology axis, hop-constrained ensemble depth,
#: failure axis length, and pool size.
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
            "install-dominated sweep benchmark: hop-constrained oblivious "
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
    """Time the inline sweep against the spawn pool on the same suite."""
    config = _SWEEP_SCALES[scale]
    suite = _suite(scale, seed)
    workers = int(config["workers"])

    networks = [
        spec.build(_derived_rng(suite.seed, _STREAM_TOPOLOGY, index))
        for index, spec in enumerate(suite.topologies)
    ]

    with Stopwatch() as inline_watch:
        inline_result = run_suite(suite, workers=1)
    with Stopwatch() as pool_watch:
        pool_result = run_suite(suite, workers=workers)

    num_cells = suite.num_cells()
    inline_seconds = inline_watch.elapsed
    pool_seconds = pool_watch.elapsed
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
            "backend": pool_result.backend,
        },
        "backends": {
            "inline": {
                "backend": "inline",
                **timing_entry(inline_seconds, count=num_cells, rate_key="cells_per_sec"),
            },
            "pool": {
                "backend": f"spawn-pool-{workers}",
                **timing_entry(pool_seconds, count=num_cells, rate_key="cells_per_sec"),
            },
        },
        "speedup_pool_over_inline": (
            inline_seconds / pool_seconds if pool_seconds > 0 else None
        ),
        "artifacts_identical": inline_result.to_json() == pool_result.to_json(),
    }


def headline(payload: Dict[str, Any]) -> str:
    workload = payload["workload"]
    return (
        f"{workload['num_cells']} cells x {workload['workers']} workers; {legs(payload)}; "
        f"speedup {speedup(payload['speedup_pool_over_inline'])}; "
        f"identical={payload['artifacts_identical']}"
    )


def gate(payloads: List[Dict[str, Any]]) -> List[str]:
    return violations(
        payloads,
        ("artifacts_identical", lambda payload: payload["artifacts_identical"] is True),
    )
