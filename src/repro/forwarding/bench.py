"""The ``ecmp`` bench target: fractional-vs-realized gaps on the catalog.

For each bundled real topology the bench installs the
``oblivious(ksp, k=4)`` fixed-ratio routing (LP-free), fits one seeded
gravity demand, and
measures the max-congestion ratio between the fractional routing and its
ECMP quantization for k in {2, 4, 8, 16}, plus a flow-level realization
at k=8 and the exact analytic non-congestion probability of the matching
random flow placement.

The quantized gaps depend only on (topology, scheme, seed, k) — demand
generation is scale-invariant by construction (one snapshot, the same
per-topology SeedSequence streams at every scale) — so :func:`gate`
compares a fresh smoke run against the committed full-scale
``BENCH_ecmp.json`` on the shared topologies with a tight tolerance.
Only the flow count (and hence runtime) grows with scale.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List

import numpy as np

from repro.bench import legs, violations
from repro.engine.registry import build_router
from repro.linalg.evaluator import build_evaluator
from repro.net.catalog import catalog_entries, load_catalog_topology
from repro.net.fitting import fitted_gravity_series
from repro.utils.timing import Stopwatch, timing_entry

from repro.forwarding.analytic import analyze_placement
from repro.forwarding.quantize import quantize_routing
from repro.forwarding.realize import realize_flows

DESCRIPTION = "fractional-vs-ECMP-realized congestion gaps on the real-topology catalog"

#: Discrete flows per pair in the flow-level leg, per scale.  Gaps from
#: the quantized (flow-free) leg are scale-invariant; only this grows.
_FLOW_SCALES: Dict[str, int] = {"smoke": 32, "small": 128, "full": 256}

#: ECMP group sizes swept by the bench (the committed-artifact contract).
_BUCKET_SWEEP = (2, 4, 8, 16)

#: The fixed-ratio base scheme: k-shortest-path splitting, which needs
#: no LP.
_BASE_SCHEME = "oblivious(ksp, k=4)"

#: The smoke scale trims the catalog to its smallest entries so the CI
#: leg stays in seconds; other scales sweep the full catalog.
_SMOKE_TOPOLOGIES = 3


def run(scale: str, seed: int) -> Dict[str, Any]:
    """Quantize and realize the catalog; report per-topology ECMP gaps."""
    flows = _FLOW_SCALES[scale]
    entries = sorted(catalog_entries(), key=lambda entry: (entry.nodes, entry.name))
    if scale == "smoke":
        entries = entries[:_SMOKE_TOPOLOGIES]

    per_topology: List[Dict[str, Any]] = []
    fractional_total = 0.0
    realized_total = 0.0
    quantize_total = 0.0
    total_nodes = 0
    total_edges = 0
    gap_by_buckets: Dict[str, float] = {str(k): 0.0 for k in _BUCKET_SWEEP}
    mean_gap_k8 = 0.0
    for index, entry in enumerate(entries):
        network = load_catalog_topology(entry.qualified_name)
        router = build_router(
            _BASE_SCHEME,
            network,
            rng=np.random.default_rng(np.random.SeedSequence([int(seed), index, 1])),
        )
        router.install()
        routing = router.routing
        demand = list(
            fitted_gravity_series(
                network, 1,
                rng=np.random.default_rng(np.random.SeedSequence([int(seed), index])),
            )
        )[0]

        with Stopwatch() as fractional_watch:
            fractional_evaluator = build_evaluator(routing, backend="sparse")
            fractional = float(fractional_evaluator.congestion(demand))
        fractional_total += fractional_watch.elapsed

        gaps: Dict[str, float] = {}
        table_k8 = None
        for buckets in _BUCKET_SWEEP:
            with Stopwatch() as quantize_watch:
                table = quantize_routing(routing, buckets=buckets)
            quantize_total += quantize_watch.elapsed
            with Stopwatch() as realized_watch:
                quantized = float(
                    build_evaluator(table.routing(), backend="sparse").congestion(demand)
                )
            realized_total += realized_watch.elapsed
            gaps[str(buckets)] = quantized / fractional
            gap_by_buckets[str(buckets)] = max(
                gap_by_buckets[str(buckets)], quantized / fractional
            )
            if buckets == 8:
                table_k8 = table

        flow_seed = int(
            np.random.default_rng(
                np.random.SeedSequence([int(seed), index, 2])
            ).integers(0, 2**63)
        )
        with Stopwatch() as flow_watch:
            empirical = realize_flows(table_k8, flows, seed=flow_seed)
            flow_congestion = float(
                build_evaluator(empirical, backend="sparse").congestion(demand)
            )
        realized_total += flow_watch.elapsed

        analytic = analyze_placement(
            bins=8,
            flows=flows,
            limit=math.ceil(flows / 8) + 1,
            method="auto",
            seed=int(seed),
        )

        total_nodes += network.num_vertices
        total_edges += network.num_edges
        mean_gap_k8 += gaps["8"]
        per_topology.append(
            {
                "name": entry.qualified_name,
                "n": network.num_vertices,
                "m": network.num_edges,
                "fractional_congestion": fractional,
                "gaps": gaps,
                "flow_congestion": flow_congestion,
                "flow_gap": flow_congestion / fractional,
                "rules_k8": table_k8.num_rules(),
                "fallback_pairs": len(table_k8.fallback_pairs()),
                "analytic": analytic,
            }
        )

    num_tables = len(entries) * len(_BUCKET_SWEEP)
    return {
        "network": {"name": "catalog", "n": total_nodes, "m": total_edges},
        "workload": {
            "num_topologies": len(entries),
            "buckets": list(_BUCKET_SWEEP),
            "flows": flows,
            "scheme": _BASE_SCHEME,
        },
        "backends": {
            "fractional": {
                "backend": "sparse",
                **timing_entry(
                    fractional_total,
                    count=len(entries),
                    rate_key="topologies_per_sec",
                ),
            },
            "realized": {
                "backend": "sparse",
                **timing_entry(
                    realized_total,
                    count=num_tables,
                    rate_key="tables_per_sec",
                    quantize_seconds=quantize_total,
                ),
            },
        },
        "max_gap": max(gap_by_buckets.values()),
        "mean_gap_k8": mean_gap_k8 / len(entries),
        "gap_by_buckets": gap_by_buckets,
        "topologies": per_topology,
    }


def headline(payload: Dict[str, Any]) -> str:
    workload = payload["workload"]
    return (
        f"{workload['num_topologies']} topologies x {len(workload['buckets'])} bucket sizes; "
        f"{legs(payload)}; max gap {payload['max_gap']:.3f}x, "
        f"mean k=8 gap {payload['mean_gap_k8']:.3f}x"
    )


def gate(payloads: List[Dict[str, Any]]) -> List[str]:
    problems = violations(
        payloads,
        ("buckets == [2, 4, 8, 16]", lambda p: p["workload"]["buckets"] == list(_BUCKET_SWEEP)),
        ("max_gap >= 1 - 1e-9", lambda p: p["max_gap"] >= 1.0 - 1e-9),
    )
    # Gaps are seeded and scale-invariant, so any other scale must
    # reproduce the full-scale per-topology gaps on shared topologies:
    # drift is a quantizer or realization regression.
    committed = {
        topology["name"]: topology["gaps"]
        for payload in payloads
        if payload["scale"] == "full"
        for topology in payload["topologies"]
    }
    if not committed:
        return problems
    for payload in payloads:
        if payload["scale"] == "full":
            continue
        for topology in payload["topologies"]:
            baseline = committed.get(topology["name"], {})
            for buckets, gap in topology["gaps"].items():
                if buckets not in baseline or not abs(gap - baseline[buckets]) <= 1e-6:
                    problems.append(
                        f"{payload['scale']}: {topology['name']} k={buckets} gap {gap!r} "
                        f"not within 1e-6 of the full-scale gap {baseline.get(buckets)!r}"
                    )
    return problems
