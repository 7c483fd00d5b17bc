"""Benchmark targets behind the ``repro bench`` CLI subcommand.

Each target compares the ``dict`` reference evaluator against the
compiled ``sparse`` backend on a reproducible workload and emits a
schema-stable artifact (``BENCH_<name>.json``) recording wall time,
topology size, achieved demands/sec per backend, and the measured
numerical agreement.  The artifacts are the repository's performance
trajectory: committed baselines live at the repo root, CI regenerates a
smoke-scale variant per run.

Artifact schema (``repro-bench/v1``)::

    {
      "schema": "repro-bench/v1",
      "name": "linalg",             # bench target
      "scale": "full",              # smoke | small | full
      "seed": 0,
      "network":  {"name": ..., "n": ..., "m": ...},
      "workload": {"num_demands": ..., "num_pairs": ..., "num_paths": ...},
      "backends": {
        "dict":   {"backend": "dict",   "seconds": ..., "demands_per_sec": ...},
        "sparse": {"backend": "sparse", "seconds": ..., "demands_per_sec": ...,
                   "compile_seconds": ...}
      },
      "speedup_sparse_over_dict": ...,
      "max_abs_difference": ...,    # agreement between the two backends
      "environment": {"python": ..., "numpy": ..., "scipy": true|false}
    }

Keys are only ever added, never renamed, so downstream tooling (the
README performance table, CI artifact diffing) can rely on them.
"""

from __future__ import annotations

import platform
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.routing import Routing
from repro.demands.generators import random_permutation_demand
from repro.exceptions import LinalgError
from repro.graphs.network import Network
from repro.graphs.topologies import torus_2d
from repro.linalg._matrix import HAVE_SCIPY
from repro.linalg.evaluator import DictEvaluator, SparseEvaluator, build_evaluator
from repro.te.failures import KEdgeFailureProcess
from repro.utils.rng import ensure_rng
from repro.utils.serialization import dumps as json_dumps
from repro.utils.timing import Stopwatch, timing_entry

BENCH_SCHEMA = "repro-bench/v1"

SCALES = ("smoke", "small", "full")

#: Per-scale (torus side, batch size).  ``full`` is the committed
#: baseline: a 15x15 torus has 225 vertices (>= 200) and the batch holds
#: 1000 demand matrices (>= 1000), matching the acceptance criteria.
_LINALG_SCALES: Dict[str, Tuple[int, int]] = {
    "smoke": (6, 50),
    "small": (10, 200),
    "full": (15, 1000),
}


def _shortest_path_routing(network: Network) -> Routing:
    """Single shortest path per ordered pair (the SMORE ``spf`` baseline)."""
    import networkx as nx

    trees = dict(nx.all_pairs_shortest_path(network.graph))
    mapping = {
        (source, target): trees[source][target]
        for source in network.vertices
        for target in network.vertices
        if source != target
    }
    return Routing.single_path(network, mapping)


def _workload(scale: str, seed: int):
    side, num_demands = _LINALG_SCALES[scale]
    network = torus_2d(side)
    routing = _shortest_path_routing(network)
    rng = ensure_rng(seed)
    demands = [random_permutation_demand(network, rng=rng) for _ in range(num_demands)]
    return network, routing, demands


def _renormalized_congestion(routing: Routing, demand, degraded: Network) -> float:
    """Reference leg of :func:`bench_rebase`: the failure rebase as dict loops.

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


def environment_info() -> Dict[str, Any]:
    """The ``environment`` block shared by every bench artifact."""
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:  # pragma: no cover
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version if HAVE_SCIPY else False,
    }


def bench_linalg(scale: str = "small", seed: int = 0) -> Dict[str, Any]:
    """Batched demand evaluation: dict loops vs one sparse matmul.

    Routes a batch of random permutation demands through a shortest-path
    routing on a 2-D torus and measures end-to-end congestion evaluation
    per backend (the sparse figure includes demand vectorization but not
    the one-time compile, reported separately as ``compile_seconds``).
    """
    network, routing, demands = _workload(scale, seed)

    dict_evaluator = DictEvaluator(routing, cache_size=1)
    with Stopwatch() as dict_watch:
        dict_congestions = dict_evaluator.congestions(demands)
    dict_seconds = dict_watch.elapsed

    with Stopwatch() as compile_watch:
        sparse_evaluator = build_evaluator(routing, backend="sparse")
    compile_seconds = compile_watch.elapsed
    with Stopwatch() as sparse_watch:
        sparse_congestions = sparse_evaluator.congestions(demands)
    sparse_seconds = sparse_watch.elapsed

    max_diff = float(np.max(np.abs(dict_congestions - sparse_congestions), initial=0.0))
    return {
        "schema": BENCH_SCHEMA,
        "name": "linalg",
        "scale": scale,
        "seed": seed,
        "network": {"name": network.name, "n": network.num_vertices, "m": network.num_edges},
        "workload": {
            "num_demands": len(demands),
            "num_pairs": sparse_evaluator.compiled.num_pairs,
            "num_paths": sparse_evaluator.compiled.num_paths,
        },
        "backends": {
            "dict": {
                "backend": "dict",
                **timing_entry(dict_seconds, count=len(demands), rate_key="demands_per_sec"),
            },
            "sparse": {
                "backend": sparse_evaluator.backend,
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
        "environment": environment_info(),
    }


def bench_rebase(scale: str = "small", seed: int = 0) -> Dict[str, Any]:
    """Incremental failure rebase: renormalize loops vs compiled masking.

    Samples k-edge failure events and, per event, re-evaluates the whole
    demand batch on the degraded routing.  The dict side renormalizes
    each pair's surviving distribution per demand
    (:func:`_renormalized_congestion`); the sparse side masks failed-edge
    columns and rescales once, then evaluates the batch with one matmul
    — the path the scenario runner's failure cells take.
    """
    from repro.te.failures import apply_failure

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

    sparse_evaluator = build_evaluator(routing, backend="sparse")
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
        "schema": BENCH_SCHEMA,
        "name": "rebase",
        "scale": scale,
        "seed": seed,
        "network": {"name": network.name, "n": network.num_vertices, "m": network.num_edges},
        "workload": {
            "num_demands": len(demands),
            "num_events": len(events),
            "num_evaluations": evaluations,
            "num_pairs": sparse_evaluator.compiled.num_pairs,
            "num_paths": sparse_evaluator.compiled.num_paths,
        },
        "backends": {
            "dict": {
                "backend": "dict",
                **timing_entry(dict_seconds, count=evaluations, rate_key="demands_per_sec"),
            },
            "sparse": {
                "backend": sparse_evaluator.backend,
                **timing_entry(sparse_seconds, count=evaluations, rate_key="demands_per_sec"),
            },
        },
        "speedup_sparse_over_dict": dict_seconds / sparse_seconds if sparse_seconds > 0 else None,
        "max_abs_difference": max_diff,
        "finiteness_mismatches": finiteness_mismatches,
        "environment": environment_info(),
    }


#: name -> (runner, one-line description).  Extended at import time by
#: higher layers through :func:`register_bench` (the streaming layer
#: registers ``stream``); :func:`_ensure_registered` pulls those layers
#: in lazily so ``repro bench`` always sees the full target list without
#: this module importing upward eagerly.
BENCH_TARGETS: Dict[str, Tuple[Callable[..., Dict[str, Any]], str]] = {
    "linalg": (bench_linalg, "batched demand evaluation: dict loops vs sparse matmul"),
    "rebase": (bench_rebase, "post-failure evaluation: renormalize loops vs compiled rebase"),
}

#: Modules above linalg that register bench targets on import.
_EXTERNAL_BENCH_MODULES = (
    "repro.stream.bench",
    "repro.net.bench",
    "repro.telemetry.bench",
    "repro.scenarios.bench",
    "repro.obs.bench",
    "repro.forwarding.bench",
    "repro.synth.bench",
)


def register_bench(
    name: str,
    runner: Callable[..., Dict[str, Any]],
    description: str,
    overwrite: bool = False,
) -> None:
    """Register a bench target (``runner(scale=..., seed=...) -> payload``)."""
    if name in BENCH_TARGETS and not overwrite:
        raise LinalgError(f"bench target {name!r} is already registered (pass overwrite=True)")
    BENCH_TARGETS[name] = (runner, description)


def _ensure_registered() -> None:
    import importlib

    for module in _EXTERNAL_BENCH_MODULES:
        importlib.import_module(module)


def available_benches() -> List[str]:
    _ensure_registered()
    return sorted(BENCH_TARGETS)


def run_bench(name: str, scale: str = "small", seed: int = 0) -> Dict[str, Any]:
    """Run one registered bench target and return its artifact payload."""
    _ensure_registered()
    if name not in BENCH_TARGETS:
        raise LinalgError(f"unknown bench target {name!r}; available: {available_benches()}")
    if scale not in SCALES:
        raise LinalgError(f"unknown bench scale {scale!r}; available: {list(SCALES)}")
    runner, _ = BENCH_TARGETS[name]
    return runner(scale=scale, seed=seed)


def write_bench_artifact(payload: Dict[str, Any], output_dir: str = ".") -> str:
    """Write the bench artifact under ``output_dir``; returns the path.

    Full-scale runs write the canonical ``BENCH_<name>.json`` (the
    committed baselines); other scales write
    ``BENCH_<name>_<scale>.json``, so a casual ``repro bench`` from the
    repository root can never clobber a committed full-scale baseline
    with smaller numbers.
    """
    import os

    os.makedirs(output_dir, exist_ok=True)
    scale = payload.get("scale", "full")
    suffix = "" if scale == "full" else f"_{scale}"
    path = os.path.join(output_dir, f"BENCH_{payload['name']}{suffix}.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json_dumps(payload) + "\n")
    return path


__all__ = [
    "BENCH_SCHEMA",
    "BENCH_TARGETS",
    "SCALES",
    "available_benches",
    "bench_linalg",
    "bench_rebase",
    "environment_info",
    "register_bench",
    "run_bench",
    "write_bench_artifact",
]
