"""The ``rebase`` bench target: post-failure evaluation, renormalize loops vs compiled rebase.

Samples k-edge failure events on the ``linalg`` target's torus workload
and, per event, re-evaluates the whole demand batch on the degraded
routing.  The dict side renormalizes each pair's surviving distribution
per demand (:func:`_renormalized_congestion`); the sparse side masks
failed-edge columns and rescales once, then evaluates the batch with one
matmul — the path the scenario runner's failure cells take.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.bench import AGREEMENT, legs, speedup, violations
from repro.core.routing import Routing
from repro.graphs.network import Network
from repro.linalg.bench import _workload
from repro.linalg.compiled import CompiledRouting
from repro.te.failures import KEdgeFailureProcess, apply_failure
from repro.utils.rng import ensure_rng
from repro.utils.timing import Stopwatch, timing_entry

DESCRIPTION = "post-failure evaluation: renormalize loops vs compiled rebase"


def _renormalized_congestion(routing: Routing, demand, degraded: Network) -> float:
    """Reference leg: the failure rebase as dict loops.

    Per demand, drops every path crossing a failed edge, renormalizes
    each pair's surviving split ratios and sums the loads on the
    degraded network; ``inf`` when a demanded pair lost every path.
    This is what the compiled rebase replaces.
    """
    weighted: List[Tuple[Sequence, float]] = []
    for source, target in demand.pairs():
        if not routing.covers(source, target):
            return float("inf")
        surviving = {
            path: probability
            for path, probability in routing.distribution(source, target).items()
            if all(degraded.has_edge(u, v) for u, v in zip(path, path[1:]))
        }
        if not surviving:
            return float("inf")
        total = sum(surviving.values())
        amount = demand.value(source, target)
        for path, probability in surviving.items():
            weighted.append((path, amount * probability / total))
    return degraded.congestion(weighted)


def run(scale: str, seed: int) -> Dict[str, Any]:
    network, routing, demands = _workload(scale, seed)
    num_events = {"smoke": 2, "small": 4, "full": 8}[scale]
    process = KEdgeFailureProcess(k=2)
    rng = ensure_rng(seed + 1)
    events = [
        event
        for event in (process.sample(network, rng) for _ in range(num_events * 2))
        if apply_failure(network, event) is not None
    ][:num_events]

    dict_results: List[float] = []
    with Stopwatch() as dict_watch:
        for event in events:
            degraded = apply_failure(network, event)
            for demand in demands:
                dict_results.append(_renormalized_congestion(routing, demand, degraded))
    dict_seconds = dict_watch.elapsed

    sparse_evaluator = CompiledRouting.from_routing(routing)
    sparse_results: List[float] = []
    with Stopwatch() as sparse_watch:
        # The pair index is shared across rebases: vectorize the batch once.
        batch = sparse_evaluator.demand_matrix(demands)
        for event in events:
            rebased = sparse_evaluator.rebased(event)
            sparse_results.extend(rebased.congestions_from_matrix(batch).tolist())
    sparse_seconds = sparse_watch.elapsed

    finite = [
        abs(a - b)
        for a, b in zip(dict_results, sparse_results)
        if np.isfinite(a) and np.isfinite(b)
    ]
    max_diff = float(max(finite, default=0.0))
    # A backend disagreeing on *coverage* (inf vs finite) would be
    # invisible in the finite-only diff; count those mismatches so the
    # artifact cannot claim agreement while masking a real divergence.
    finiteness_mismatches = sum(
        1
        for a, b in zip(dict_results, sparse_results)
        if np.isfinite(a) != np.isfinite(b)
    )
    evaluations = len(events) * len(demands)
    return {
        "network": {"name": network.name, "n": network.num_vertices, "m": network.num_edges},
        "workload": {
            "num_demands": len(demands),
            "num_events": len(events),
            "num_evaluations": evaluations,
            "num_pairs": sparse_evaluator.num_pairs,
            "num_paths": sparse_evaluator.num_paths,
        },
        "backends": {
            "dict": {
                "backend": "dict",
                **timing_entry(dict_seconds, count=evaluations, rate_key="demands_per_sec"),
            },
            "sparse": {
                "backend": "sparse",
                **timing_entry(sparse_seconds, count=evaluations, rate_key="demands_per_sec"),
            },
        },
        "speedup_sparse_over_dict": dict_seconds / sparse_seconds if sparse_seconds > 0 else None,
        "max_abs_difference": max_diff,
        "finiteness_mismatches": finiteness_mismatches,
    }


def headline(payload: Dict[str, Any]) -> str:
    workload = payload["workload"]
    return (
        f"{workload['num_demands']} demands x {workload['num_events']} failures; "
        f"{legs(payload)}; speedup {speedup(payload['speedup_sparse_over_dict'])}; "
        f"max diff {payload['max_abs_difference']:.1e}, "
        f"{payload['finiteness_mismatches']} coverage mismatches"
    )


def gate(payloads: List[Dict[str, Any]]) -> List[str]:
    return violations(
        payloads,
        AGREEMENT,
        ("finiteness_mismatches == 0", lambda payload: payload["finiteness_mismatches"] == 0),
    )
