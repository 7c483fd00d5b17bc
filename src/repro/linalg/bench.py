"""The ``linalg`` bench target: batched demand evaluation, dict loops vs one matmul.

Routes a batch of random permutation demands through a shortest-path
routing on a 2-D torus and measures end-to-end congestion evaluation
per backend (the sparse figure includes demand vectorization but not
the one-time compile, reported separately as ``compile_seconds``).
``max_abs_difference`` is the measured agreement between the ``dict``
reference evaluator and the compiled ``sparse`` backend.  The torus
workload (:func:`_workload`) is shared with the ``rebase`` and ``obs``
targets.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from repro.bench import AGREEMENT, legs, speedup, violations
from repro.demands.generators import random_permutation_demand
from repro.graphs.topologies import torus_2d
from repro.linalg import CompiledRouting, DictEvaluator
from repro.oblivious.shortest_path import shortest_path_tree_routing
from repro.utils.rng import ensure_rng
from repro.utils.timing import Stopwatch, timing_entry

DESCRIPTION = "batched demand evaluation: dict loops vs sparse matmul"

#: Per-scale (torus side, batch size).  ``full`` is the committed
#: baseline: a 15x15 torus has 225 vertices (>= 200) and the batch holds
#: 1000 demand matrices (>= 1000), matching the acceptance criteria.
_LINALG_SCALES: Dict[str, Tuple[int, int]] = {
    "smoke": (6, 50),
    "small": (10, 200),
    "full": (15, 1000),
}


def _workload(scale: str, seed: int):
    side, num_demands = _LINALG_SCALES[scale]
    network = torus_2d(side)
    routing = shortest_path_tree_routing(network)
    rng = ensure_rng(seed)
    demands = [random_permutation_demand(network, rng=rng) for _ in range(num_demands)]
    return network, routing, demands


def run(scale: str, seed: int) -> Dict[str, Any]:
    network, routing, demands = _workload(scale, seed)

    dict_evaluator = DictEvaluator(routing, cache_size=1)
    with Stopwatch() as dict_watch:
        dict_congestions = dict_evaluator.congestions(demands)
    dict_seconds = dict_watch.elapsed

    with Stopwatch() as compile_watch:
        sparse_evaluator = CompiledRouting.from_routing(routing)
    compile_seconds = compile_watch.elapsed
    with Stopwatch() as sparse_watch:
        sparse_congestions = sparse_evaluator.congestions(demands)
    sparse_seconds = sparse_watch.elapsed

    max_diff = float(np.max(np.abs(dict_congestions - sparse_congestions), initial=0.0))
    return {
        "network": {"name": network.name, "n": network.num_vertices, "m": network.num_edges},
        "workload": {
            "num_demands": len(demands),
            "num_pairs": sparse_evaluator.num_pairs,
            "num_paths": sparse_evaluator.num_paths,
        },
        "backends": {
            "dict": {
                "backend": "dict",
                **timing_entry(dict_seconds, count=len(demands), rate_key="demands_per_sec"),
            },
            "sparse": {
                "backend": "sparse",
                **timing_entry(
                    sparse_seconds,
                    count=len(demands),
                    rate_key="demands_per_sec",
                    compile_seconds=compile_seconds,
                ),
            },
        },
        "speedup_sparse_over_dict": dict_seconds / sparse_seconds if sparse_seconds > 0 else None,
        "max_abs_difference": max_diff,
    }


def headline(payload: Dict[str, Any]) -> str:
    return (
        f"{payload['workload']['num_demands']} demands; {legs(payload)}; "
        f"speedup {speedup(payload['speedup_sparse_over_dict'])}; "
        f"max diff {payload['max_abs_difference']:.1e}"
    )


def gate(payloads: List[Dict[str, Any]]) -> List[str]:
    return violations(payloads, AGREEMENT)
