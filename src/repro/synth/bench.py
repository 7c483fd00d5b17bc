"""``repro bench scale`` — nodes-vs-seconds / nodes-vs-peak-MB curves.

For a ladder of synthetic ISP networks (:func:`repro.synth.generators.isp`)
this target measures the full end-to-end pipeline on the compiled
``sparse`` backend — generate → install routes → compile → batched
evaluate — and records, per ladder point, wall time and tracemalloc peak
memory for the memory-bounded *tiled* evaluation path next to the
untiled reference.

The artifact extends the common ``repro-bench/v1`` schema with:

* ``curves`` — per-backend lists of ladder points (``nodes``, ``edges``,
  ``pairs``, ``generate_seconds``, ``install_seconds``,
  ``compile_seconds``, ``evaluate_seconds``, ``mem_peak_mb``,
  ``within_budget``, ``untiled_seconds``, ``untiled_mem_peak_mb``,
  ``max_abs_difference``), one ``sparse`` curve per run (the committed
  full-scale artifact also holds a ``dense`` curve of the removed numpy
  backend, partly without the untiled keys, which :func:`gate` accepts);
* ``memory_budget_mb`` — the tiling budget every tiled evaluation ran
  under (``within_budget`` gates its peak against it);
* the usual baseline-first ``backends`` block (untiled vs tiled at the
  largest point where both ran) with ``mem_peak_kb`` fields.

:func:`gate` holds every artifact to tiled-vs-untiled agreement
≤ 1e-9 with every point under budget, and a full-scale one to a
≥ 1k-node point per backend.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.routing import Routing
from repro.demands.demand import Demand
from repro.graphs.network import Network
from repro.bench import AGREEMENT, violations
from repro.linalg.evaluator import build_evaluator
from repro.synth.generators import isp
from repro.utils.rng import ensure_rng
from repro.utils.timing import PeakMemory, Stopwatch, timing_entry

DESCRIPTION = "scale frontier: nodes-vs-seconds/peak-MB curves, tiled vs untiled"

#: Every tiled evaluation in this bench runs under this working-set
#: budget; ``within_budget`` compares the measured peak against it.
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
    """Scale-frontier curve: tiled vs untiled compiled evaluation."""
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

        # Peak memory spans compile + evaluate: the untiled leg's
        # dominant allocation is the operator materialized at compile
        # time, which an evaluate-only window would miss.
        with PeakMemory() as tiled_mem:
            with Stopwatch() as compile_watch:
                tiled = build_evaluator(
                    routing, backend="sparse", memory_budget_mb=MEMORY_BUDGET_MB
                )
            with Stopwatch() as tiled_watch:
                tiled_congestions = tiled.congestions(demands)
        mem_peak_mb = tiled_mem.peak_kb / 1024.0
        with PeakMemory() as untiled_mem:
            untiled = build_evaluator(routing, backend="sparse")
            with Stopwatch() as untiled_watch:
                untiled_congestions = untiled.congestions(demands)
        difference = float(
            np.max(np.abs(tiled_congestions - untiled_congestions), initial=0.0)
        )
        max_abs_difference = max(max_abs_difference, difference)
        curve.append(
            {
                "nodes": network.num_vertices,
                "edges": network.num_edges,
                "pairs": len(pairs),
                "generate_seconds": generate_watch.elapsed,
                "install_seconds": install_watch.elapsed,
                "compile_seconds": compile_watch.elapsed,
                "evaluate_seconds": tiled_watch.elapsed,
                "mem_peak_mb": mem_peak_mb,
                "within_budget": bool(mem_peak_mb <= MEMORY_BUDGET_MB),
                "untiled_seconds": untiled_watch.elapsed,
                "untiled_mem_peak_mb": untiled_mem.peak_kb / 1024.0,
                "max_abs_difference": difference,
            }
        )
        # The baseline-first backends block reports the largest point.
        summary = {
            "untiled": timing_entry(
                untiled_watch.elapsed,
                count=num_demands,
                rate_key="demands_per_sec",
                mem_peak_kb=untiled_mem.peak_kb,
            ),
            "tiled": timing_entry(
                tiled_watch.elapsed,
                count=num_demands,
                rate_key="demands_per_sec",
                mem_peak_kb=tiled_mem.peak_kb,
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
            "untiled": {"backend": "untiled", **summary["untiled"]},
            "tiled": {"backend": "tiled", **summary["tiled"]},
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
        f"tiled peak {peak:.1f} / {payload['memory_budget_mb']:.0f} MB; "
        f"max diff {payload['max_abs_difference']:.1e}"
    )


def gate(payloads: List[Dict[str, Any]]) -> List[str]:
    def points_agree(payload):
        return all(
            point["max_abs_difference"] <= 1e-9
            for point in _points(payload)
            if "max_abs_difference" in point  # where the untiled reference ran
        )

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
        # end-to-end under the memory budget on every backend.
        [payload for payload in payloads if payload["scale"] == "full"],
        ("a >= 1000-node point per backend", reaches_1k_nodes),
    )
