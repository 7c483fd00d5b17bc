"""The ``net`` bench target: compile + evaluate every catalog topology.

For each bundled real topology the bench parses the catalog file,
installs the shortest-path-tree routing, fits a gravity demand batch,
and measures congestion evaluation through the ``dict`` reference
evaluator against the compiled ``sparse`` backend — so the committed
``BENCH_net.json`` baseline records, per real topology, the parse,
compile, and batch-evaluate costs on heterogeneous real capacities
(where utilization division actually exercises the capacity vector,
unlike the unit-capacity synthetic workloads).

The aggregate ``backends`` / ``speedup`` / ``max_abs_difference`` keys
follow the ``repro-bench/v1`` schema; the per-topology breakdown lives
under the additive ``topologies`` key.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from repro.bench import AGREEMENT, legs, speedup, violations
from repro.linalg import CompiledRouting, DictEvaluator
from repro.net.catalog import catalog_entries, load_catalog_topology
from repro.net.fitting import fitted_gravity_series
from repro.oblivious.shortest_path import shortest_path_tree_routing
from repro.utils.timing import Stopwatch, timing_entry

DESCRIPTION = "real-topology catalog: parse + compile + batch evaluation per entry"

#: Demand matrices evaluated per topology, per scale.
_NET_SCALES: Dict[str, int] = {"smoke": 20, "small": 100, "full": 400}

#: The smoke scale trims the catalog to its smallest entries so the CI
#: leg stays in seconds; other scales sweep the full catalog.
_SMOKE_TOPOLOGIES = 3


def run(scale: str, seed: int) -> Dict[str, Any]:
    """Parse, compile, and batch-evaluate the bundled real-topology catalog."""
    num_demands = _NET_SCALES[scale]
    entries = sorted(catalog_entries(), key=lambda entry: (entry.nodes, entry.name))
    if scale == "smoke":
        entries = entries[:_SMOKE_TOPOLOGIES]

    per_topology: List[Dict[str, Any]] = []
    dict_total = 0.0
    sparse_total = 0.0
    compile_total = 0.0
    parse_total = 0.0
    max_diff = 0.0
    total_nodes = 0
    total_edges = 0
    for index, entry in enumerate(entries):
        with Stopwatch() as parse_watch:
            network = load_catalog_topology(entry.qualified_name)
        routing = shortest_path_tree_routing(network)
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), index]))
        demands = list(fitted_gravity_series(network, num_demands, rng=rng))

        dict_evaluator = DictEvaluator(routing, cache_size=1)
        with Stopwatch() as dict_watch:
            dict_congestions = dict_evaluator.congestions(demands)
        with Stopwatch() as compile_watch:
            sparse_evaluator = CompiledRouting.from_routing(routing)
        with Stopwatch() as sparse_watch:
            sparse_congestions = sparse_evaluator.congestions(demands)

        topology_diff = float(
            np.max(np.abs(dict_congestions - sparse_congestions), initial=0.0)
        )
        per_topology.append(
            {
                "name": entry.qualified_name,
                "format": entry.format,
                "n": network.num_vertices,
                "m": network.num_edges,
                "capacity_units": entry.capacity_units,
                "num_demands": num_demands,
                "parse_seconds": parse_watch.elapsed,
                "compile_seconds": compile_watch.elapsed,
                "dict_seconds": dict_watch.elapsed,
                "sparse_seconds": sparse_watch.elapsed,
                "speedup_sparse_over_dict": (
                    dict_watch.elapsed / sparse_watch.elapsed
                    if sparse_watch.elapsed > 0
                    else None
                ),
                "max_abs_difference": topology_diff,
            }
        )
        parse_total += parse_watch.elapsed
        dict_total += dict_watch.elapsed
        compile_total += compile_watch.elapsed
        sparse_total += sparse_watch.elapsed
        max_diff = max(max_diff, topology_diff)
        total_nodes += network.num_vertices
        total_edges += network.num_edges

    evaluations = num_demands * len(entries)
    return {
        "network": {"name": "catalog", "n": total_nodes, "m": total_edges},
        "workload": {
            "num_topologies": len(entries),
            "num_demands": num_demands,
            "num_evaluations": evaluations,
            "parse_seconds": parse_total,
        },
        "backends": {
            "dict": {
                "backend": "dict",
                **timing_entry(dict_total, count=evaluations, rate_key="demands_per_sec"),
            },
            "sparse": {
                "backend": "sparse",
                **timing_entry(
                    sparse_total,
                    count=evaluations,
                    rate_key="demands_per_sec",
                    compile_seconds=compile_total,
                ),
            },
        },
        "speedup_sparse_over_dict": dict_total / sparse_total if sparse_total > 0 else None,
        "max_abs_difference": max_diff,
        "topologies": per_topology,
    }


def headline(payload: Dict[str, Any]) -> str:
    workload = payload["workload"]
    return (
        f"{workload['num_topologies']} topologies x {workload['num_demands']} demands; "
        f"{legs(payload)}; speedup {speedup(payload['speedup_sparse_over_dict'])}; "
        f"max diff {payload['max_abs_difference']:.1e}"
    )


def gate(payloads: List[Dict[str, Any]]) -> List[str]:
    return violations(payloads, AGREEMENT)
