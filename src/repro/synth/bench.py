"""``repro bench scale`` — nodes-vs-seconds / nodes-vs-peak-MB curves.

For a ladder of synthetic ISP networks (:func:`repro.synth.generators.isp`)
this target measures the full end-to-end pipeline on the compiled
``sparse`` backend — generate → install routes → compile → batched
evaluate — and records, per ladder point, wall time and the tracemalloc
peak of compile plus evaluate.  Every point is also evaluated by the
``dict`` oracle, which the compiled congestions must match.

The artifact extends the common ``repro-bench/v1`` schema with:

* ``curves`` — one ``sparse`` list of ladder points (``nodes``,
  ``edges``, ``pairs``, ``generate_seconds``, ``install_seconds``,
  ``compile_seconds``, ``evaluate_seconds``, ``mem_peak_mb``,
  ``within_budget``, ``dict_seconds``, ``max_abs_difference``);
* ``memory_budget_mb`` — the fixed peak ceiling every point is held to
  (``within_budget`` compares the point's peak against it);
* the usual baseline-first ``backends`` block (``dict`` oracle vs
  ``sparse`` at the largest point) with the compiled leg's
  ``mem_peak_kb``.

:func:`gate` holds every artifact to oracle agreement ≤ 1e-9 with every
point under the ceiling, and a full-scale one to a ≥ 1k-node point.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.routing import Routing
from repro.demands.demand import Demand
from repro.graphs.network import Network
from repro.bench import AGREEMENT, legs, violations
from repro.linalg.evaluator import DictEvaluator, build_evaluator
from repro.synth.generators import isp
from repro.utils.rng import ensure_rng
from repro.utils.timing import PeakMemory, Stopwatch, timing_entry

DESCRIPTION = "scale frontier: nodes-vs-seconds/peak-MB curves, compiled vs dict oracle"

#: The peak-memory ceiling of every ladder point's compile + evaluate;
#: ``within_budget`` compares the measured peak against it.
MEMORY_BUDGET_MB = 64.0

#: Per-scale ladder: PoP counts (11 vertices per PoP with the default
#: tier widths), demand-batch size and targets sampled per source.
#: ``full`` tops out at 2002 vertices — the committed ≥ 1k-node baseline.
_SCALE_CONFIG: Dict[str, Dict[str, Any]] = {
    "smoke": {"pops": [4, 8], "num_demands": 4, "targets": 8},
    "small": {"pops": [8, 16, 32], "num_demands": 8, "targets": 16},
    "full": {"pops": [23, 45, 91, 182], "num_demands": 8, "targets": 32},
}


def _sample_pairs(
    network: Network, rng, targets_per_source: int
) -> List[Tuple[Any, Any]]:
    """A demanded-pair set that grows linearly with the node count:
    about ``n / 16`` sources, each sending to ``targets_per_source``
    distinct other vertices."""
    vertices = list(network.vertices)
    n = len(vertices)
    num_sources = max(4, min(n, n // 16))
    sources = rng.choice(n, size=num_sources, replace=False)
    pairs: List[Tuple[Any, Any]] = []
    for source_index in sources:
        others = rng.choice(n - 1, size=min(targets_per_source, n - 1), replace=False)
        for offset in others:
            target_index = int(offset) + (int(offset) >= int(source_index))
            pairs.append((vertices[int(source_index)], vertices[target_index]))
    return sorted(set(pairs))


def _spf_routing(network: Network, pairs: Sequence[Tuple[Any, Any]]) -> Routing:
    """Single shortest path per demanded pair, via one BFS tree per
    distinct source — the demanded-pairs-only install that keeps the
    offline phase linear instead of all-pairs quadratic."""
    import networkx as nx

    by_source: Dict[Any, List[Any]] = {}
    for source, target in pairs:
        by_source.setdefault(source, []).append(target)
    mapping = {}
    for source, targets in by_source.items():
        paths = nx.single_source_shortest_path(network.graph, source)
        for target in targets:
            mapping[(source, target)] = paths[target]
    return Routing.single_path(network, mapping)


def _demand_batch(
    pairs: Sequence[Tuple[Any, Any]], num_demands: int, rng
) -> List[Demand]:
    """``num_demands`` gravity-ish snapshots over one fixed pair set."""
    demands = []
    for _ in range(num_demands):
        amounts = rng.random(len(pairs)) + 0.05
        demands.append(Demand(dict(zip(pairs, amounts))))
    return demands


def run(scale: str, seed: int) -> Dict[str, Any]:
    """Scale-frontier curve of the compiled evaluation, checked against the dict oracle."""
    config = _SCALE_CONFIG[scale]
    num_demands = int(config["num_demands"])

    curve: List[Dict[str, Any]] = []
    summary: Dict[str, Any] = {}
    max_abs_difference = 0.0
    largest: Optional[Network] = None
    pairs_max = 0

    for pops in config["pops"]:
        rng = ensure_rng(
            np.random.default_rng(np.random.SeedSequence([int(seed), 2, int(pops)]))
        )
        with Stopwatch() as generate_watch:
            network = isp(pops, seed=seed * 1000 + pops)
        largest = network
        sample_rng = ensure_rng(
            np.random.default_rng(np.random.SeedSequence([int(seed), 3, int(pops)]))
        )
        pairs = _sample_pairs(network, sample_rng, int(config["targets"]))
        pairs_max = max(pairs_max, len(pairs))
        with Stopwatch() as install_watch:
            routing = _spf_routing(network, pairs)
        demands = _demand_batch(pairs, num_demands, rng)

        # Peak memory spans compile + evaluate: the dominant allocation
        # is the operator built at compile time, which an evaluate-only
        # window would miss.
        with PeakMemory() as mem:
            with Stopwatch() as compile_watch:
                evaluator = build_evaluator(routing, backend="sparse")
            with Stopwatch() as evaluate_watch:
                congestions = evaluator.congestions(demands)
        mem_peak_mb = mem.peak_kb / 1024.0
        with Stopwatch() as dict_watch:
            oracle = DictEvaluator(routing, cache_size=1).congestions(demands)
        difference = float(np.max(np.abs(congestions - oracle), initial=0.0))
        max_abs_difference = max(max_abs_difference, difference)
        curve.append(
            {
                "nodes": network.num_vertices,
                "edges": network.num_edges,
                "pairs": len(pairs),
                "generate_seconds": generate_watch.elapsed,
                "install_seconds": install_watch.elapsed,
                "compile_seconds": compile_watch.elapsed,
                "evaluate_seconds": evaluate_watch.elapsed,
                "mem_peak_mb": mem_peak_mb,
                "within_budget": bool(mem_peak_mb <= MEMORY_BUDGET_MB),
                "dict_seconds": dict_watch.elapsed,
                "max_abs_difference": difference,
            }
        )
        # The baseline-first backends block reports the largest point.
        summary = {
            "dict": timing_entry(
                dict_watch.elapsed, count=num_demands, rate_key="demands_per_sec"
            ),
            "sparse": timing_entry(
                evaluate_watch.elapsed,
                count=num_demands,
                rate_key="demands_per_sec",
                mem_peak_kb=mem.peak_kb,
                compile_seconds=compile_watch.elapsed,
            ),
        }

    assert largest is not None
    return {
        "network": {
            "name": largest.name,
            "n": largest.num_vertices,
            "m": largest.num_edges,
        },
        "workload": {
            "num_networks": len(config["pops"]),
            "node_counts": [point["nodes"] for point in curve],
            "num_demands": num_demands,
            "pairs_max": pairs_max,
        },
        "memory_budget_mb": MEMORY_BUDGET_MB,
        "within_budget": bool(all(point["within_budget"] for point in curve)),
        "curves": {"sparse": curve},
        "backends": {
            "dict": {"backend": "dict", **summary["dict"]},
            "sparse": {"backend": "sparse", **summary["sparse"]},
        },
        "max_abs_difference": max_abs_difference,
    }


def _points(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    return [point for points in payload["curves"].values() for point in points]


def headline(payload: Dict[str, Any]) -> str:
    counts = payload["workload"]["node_counts"]
    peak = max(point["mem_peak_mb"] for point in _points(payload))
    return (
        f"{counts[0]}-{counts[-1]} nodes x {payload['workload']['num_demands']} demands; "
        f"{legs(payload)}; peak {peak:.1f} / {payload['memory_budget_mb']:.0f} MB; "
        f"max diff {payload['max_abs_difference']:.1e}"
    )


def gate(payloads: List[Dict[str, Any]]) -> List[str]:
    def points_agree(payload):
        return all(point["max_abs_difference"] <= 1e-9 for point in _points(payload))

    def reaches_1k_nodes(payload):
        return all(
            any(point["nodes"] >= 1000 for point in points)
            for points in payload["curves"].values()
        )

    return violations(
        payloads,
        AGREEMENT,
        ("within_budget", lambda p: p["within_budget"] is True),
        ("every backend has curve points", lambda p: all(p["curves"].values()) and p["curves"]),
        ("every curve point within budget", lambda p: all(q["within_budget"] for q in _points(p))),
        ("every curve point's max_abs_difference <= 1e-9", points_agree),
    ) + violations(
        # The subsystem's acceptance bar: a >= 1k-node network evaluated
        # end-to-end under the memory ceiling on every backend.
        [payload for payload in payloads if payload["scale"] == "full"],
        ("a >= 1000-node point per backend", reaches_1k_nodes),
    )
