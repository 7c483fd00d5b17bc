"""The ``odme`` bench target: demand estimation across the real catalog.

For each bundled real topology the bench compiles the shortest-path-tree
routing, generates fitted-gravity truth snapshots, observes them through
noise-free full-coverage ingress telemetry, and times the two estimator
legs against each other:

* ``nnls`` — per-source non-negative least squares on the compiled
  pair × edge operator (``scipy.optimize.nnls``), and
* ``entropy`` — marginal extraction plus IPF projection in plain
  numpy.

``max_abs_difference`` is the worst NNLS recovery error against the
known truth over the whole catalog — the committed baseline therefore
doubles as a standing proof that noise-free closed-loop estimation is
exact on every bundled real topology, not just the test trio.

The aggregate ``backends`` / ``speedup`` / ``max_abs_difference`` keys
follow the ``repro-bench/v1`` schema; the per-topology breakdown lives
under the additive ``topologies`` key.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from repro.bench import AGREEMENT, legs, speedup, violations
from repro.linalg.compiled import CompiledRouting
from repro.net.catalog import catalog_entries, load_catalog_topology
from repro.net.fitting import fitted_gravity_series
from repro.oblivious.shortest_path import shortest_path_tree_routing
from repro.utils.timing import Stopwatch, timing_entry

from repro.telemetry.observation import ObservationModel
from repro.telemetry.odme import estimate_demand

DESCRIPTION = "demand estimation: NNLS vs entropy-IPF over the real-topology catalog"

#: Truth snapshots estimated per topology, per scale.
_ODME_SCALES: Dict[str, int] = {"smoke": 1, "small": 2, "full": 4}

#: The smoke scale trims the catalog to its smallest entries so the CI
#: leg stays in seconds; other scales sweep the full catalog.
_SMOKE_TOPOLOGIES = 3


def run(scale: str, seed: int) -> Dict[str, Any]:
    """Time NNLS vs entropy-IPF demand estimation on the real catalog."""
    num_snapshots = _ODME_SCALES[scale]
    entries = sorted(catalog_entries(), key=lambda entry: (entry.nodes, entry.name))
    if scale == "smoke":
        entries = entries[:_SMOKE_TOPOLOGIES]

    model = ObservationModel(noise=0.0, coverage=1.0, granularity="ingress")
    per_topology: List[Dict[str, Any]] = []
    observe_total = 0.0
    nnls_total = 0.0
    entropy_total = 0.0
    compile_total = 0.0
    max_error = 0.0
    total_nodes = 0
    total_edges = 0
    total_pairs = 0
    for index, entry in enumerate(entries):
        network = load_catalog_topology(entry.qualified_name)
        routing = shortest_path_tree_routing(network)
        with Stopwatch() as compile_watch:
            compiled = CompiledRouting.from_routing(routing)
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), index]))
        truths = [
            snapshot
            for snapshot in fitted_gravity_series(network, num_snapshots, rng=rng)
        ]

        with Stopwatch() as observe_watch:
            observations = [
                model.observe(compiled, truth, rng=rng) for truth in truths
            ]

        topology_error = 0.0
        with Stopwatch() as nnls_watch:
            for truth, observation in zip(truths, observations):
                estimate = estimate_demand(compiled, observation, method="nnls")
                truth_vector = compiled.demand_vector(truth, missing="drop")
                topology_error = max(
                    topology_error,
                    float(np.max(np.abs(estimate.vector - truth_vector), initial=0.0)),
                )
        with Stopwatch() as entropy_watch:
            for observation in observations:
                estimate_demand(compiled, observation, method="entropy")

        per_topology.append(
            {
                "name": entry.qualified_name,
                "format": entry.format,
                "n": network.num_vertices,
                "m": network.num_edges,
                "num_pairs": compiled.num_pairs,
                "num_snapshots": num_snapshots,
                "compile_seconds": compile_watch.elapsed,
                "observe_seconds": observe_watch.elapsed,
                "nnls_seconds": nnls_watch.elapsed,
                "entropy_seconds": entropy_watch.elapsed,
                "max_recovery_error": topology_error,
            }
        )
        compile_total += compile_watch.elapsed
        observe_total += observe_watch.elapsed
        nnls_total += nnls_watch.elapsed
        entropy_total += entropy_watch.elapsed
        max_error = max(max_error, topology_error)
        total_nodes += network.num_vertices
        total_edges += network.num_edges
        total_pairs += compiled.num_pairs

    estimations = num_snapshots * len(entries)
    return {
        "network": {"name": "catalog", "n": total_nodes, "m": total_edges},
        "workload": {
            "num_topologies": len(entries),
            "num_snapshots": num_snapshots,
            "num_estimations": estimations,
            "num_pairs": total_pairs,
            "granularity": "ingress",
            "representation": "sparse",
            "compile_seconds": compile_total,
            "observe_seconds": observe_total,
        },
        "backends": {
            "entropy": {
                "backend": "entropy-ipf",
                **timing_entry(entropy_total, count=estimations, rate_key="demands_per_sec"),
            },
            "nnls": {
                "backend": "nnls-scipy",
                **timing_entry(nnls_total, count=estimations, rate_key="demands_per_sec"),
            },
        },
        "speedup_nnls_over_entropy": (
            entropy_total / nnls_total if nnls_total > 0 else None
        ),
        "max_abs_difference": max_error,
        "topologies": per_topology,
    }


def headline(payload: Dict[str, Any]) -> str:
    return (
        f"{payload['workload']['num_estimations']} estimations; {legs(payload)}; "
        f"speedup {speedup(payload['speedup_nnls_over_entropy'])}; "
        f"max recovery error {payload['max_abs_difference']:.1e}"
    )


def gate(payloads: List[Dict[str, Any]]) -> List[str]:
    return violations(payloads, AGREEMENT)
