"""Command-line interface: ``python -m repro``.

Subcommands
-----------

``experiments``
    Run one or more experiments from the registry and print their tables::

        python -m repro experiments --scale small E1_sparsity_tradeoff E3_lower_bound
        python -m repro experiments --scale paper            # all of them
        python -m repro experiments --json E8_smore_te       # machine-readable

``te``
    Traffic-engineering simulation through the scheme registry: pick a
    topology, a traffic-matrix series length, and any number of scheme
    specs (``--scheme`` is repeatable)::

        python -m repro te --topology hypercube:4 --snapshots 6 \
            --scheme "semi-oblivious(racke, alpha=4)" --scheme "ksp(k=4)" --scheme spf
        python -m repro te --topology waxman:14 --json
        python -m repro te --topology "isp(pops=16, seed=3)" --scheme spf

    Any registered scenario topology kind works here (and on every other
    ``--topology`` flag), including the synthetic ISP-scale generators
    ``isp(pops=...)`` and ``backbone:N``.

``scenarios``, ``stream``, ``net``, ``forwarding``, ``trace``, ``bench``
    The subsystem command groups, one module each in :mod:`repro.cli`
    (their docstrings show usage).

``schemes``
    List the registered scheme names and oblivious sampling sources.

``list``
    List the available experiment ids with one-line descriptions.

``quickstart``
    Run the quickstart pipeline on a hypercube (same as
    ``examples/quickstart.py``) — useful as an installation check.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from repro.cli import _build_te_network, _tracing
from repro.cli import bench, forwarding, net, scenarios, stream, trace
from repro.experiments import REGISTRY
from repro.experiments.harness import ExperimentConfig
from repro.utils.serialization import dumps as json_dumps

_DESCRIPTIONS = {
    "E1_sparsity_tradeoff": "sparsity vs competitiveness sweep (Theorem 2.5)",
    "E2_log_sparsity": "logarithmic sparsity suffices (Theorem 2.3)",
    "E3_lower_bound": "C(n,k) lower bound and Figure 1 (Lemma 8.1)",
    "E4_deterministic_hypercube": "deterministic single path vs sampled paths (KKT91)",
    "E5_weak_routing_process": "the Lemma 5.6 deletion process",
    "E6_rounding": "randomized rounding guarantee (Lemma 6.3)",
    "E7_completion_time": "completion-time competitive sampling (Section 7)",
    "E8_smore_te": "SMORE-style traffic engineering",
    "E9_arbitrary_demands": "(alpha+cut)-sparsity for arbitrary demands (Lemma 2.7)",
    "E10_oblivious_baselines": "quality of the oblivious sampling sources",
    "E11_ablation_selection": "ablation of the path-selection rule",
    "E12_robustness": "link-failure robustness of sampled candidate paths",
}

#: Default scheme specs for the ``te`` subcommand (the SMORE line-up).
_DEFAULT_TE_SCHEMES = [
    "semi-oblivious(racke, alpha=4)",
    "oblivious(racke)",
    "ksp(k=4)",
    "spf",
    "optimal",
]


#: The subsystem command groups, registered after ``te`` in this order.
_COMMAND_MODULES = (scenarios, stream, net, forwarding, trace, bench)


def _cmd_list(args) -> int:
    for name in REGISTRY:
        print(f"{name:30s} {_DESCRIPTIONS.get(name, '')}")
    return 0


def _cmd_schemes(args) -> int:
    from repro.engine import available_sources, scheme_descriptions

    print("schemes:")
    for name, description in scheme_descriptions().items():
        print(f"  {name:18s} {description}")
    print("oblivious sources:")
    for name in available_sources():
        print(f"  {name}")
    return 0


def _cmd_experiments(args) -> int:
    chosen = args.ids or list(REGISTRY)
    unknown = [name for name in chosen if name not in REGISTRY]
    if unknown:
        print(f"unknown experiment id(s): {unknown}", file=sys.stderr)
        return 2
    config = ExperimentConfig(seed=args.seed, scale=args.scale)
    payloads = []
    for name in chosen:
        start = time.perf_counter()
        result = REGISTRY[name](config)
        elapsed = time.perf_counter() - start
        if args.json:
            payload = result.to_dict()
            payload["elapsed_seconds"] = round(elapsed, 3)
            payload["scale"] = args.scale
            payloads.append(payload)
        else:
            print(result.render())
            print(f"\n[{name} completed in {elapsed:.1f}s at scale={args.scale}]\n")
    if args.json:
        print(json_dumps(payloads))
    return 0


def _cmd_te(args) -> int:
    from repro.demands.traffic_matrix import diurnal_gravity_series
    from repro.engine import RoutingEngine
    from repro.exceptions import ReproError

    with _tracing(args.trace, "cli.te"):
        network = _build_te_network(args.topology, args.seed)
        try:
            series = diurnal_gravity_series(
                network, num_snapshots=args.snapshots, rng=args.seed + 1
            )
        except ReproError as error:
            print(f"bad traffic series: {error}", file=sys.stderr)
            return 2
        try:
            engine = RoutingEngine(
                network, args.schemes or _DEFAULT_TE_SCHEMES, rng=args.seed
            )
        except ReproError as error:
            print(f"bad scheme spec: {error}", file=sys.stderr)
            return 2
        start = time.perf_counter()
        report = engine.evaluate_matrix_series(series)
        elapsed = time.perf_counter() - start
    if args.json:
        payload = report.to_dict()
        payload["elapsed_seconds"] = round(elapsed, 3)
        payload["optimal_mcf_solves"] = engine.num_optimal_solves
        print(json_dumps(payload))
        return 0
    print(f"{network.name}: {network.num_vertices} vertices, {network.num_edges} edges, "
          f"{len(series)} snapshots")
    header = f"{'scheme':22s} {'mean':>8s} {'p90':>8s} {'worst':>8s}"
    print(header)
    print("-" * len(header))
    for label in report.ranking():
        result = report.results[label]
        print(f"{label:22s} {result.mean_ratio():8.3f} "
              f"{result.percentile_ratio(90.0):8.3f} {result.worst_ratio():8.3f}")
    print(f"[{engine.num_optimal_solves} optimal MCF solve(s) shared across "
          f"{len(report.results)} scheme(s), {elapsed:.1f}s]")
    return 0


def _cmd_quickstart(args) -> int:
    from repro import build_router, topologies
    from repro.core.competitive import congestion_ratio
    from repro.demands import random_permutation_demand
    from repro.mcf import min_congestion_lp

    network = topologies.hypercube(args.dimension)
    router = build_router(f"semi-oblivious(valiant, alpha={args.alpha})", network, rng=0)
    router.install()
    demand = random_permutation_demand(network, rng=1)
    achieved = router.route(demand).congestion
    optimum = min_congestion_lp(network, demand).congestion
    print(f"{network.name}: alpha={args.alpha}, achieved={achieved:.3f}, "
          f"optimum={optimum:.3f}, ratio={congestion_ratio(achieved, optimum):.3f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` parser; every leaf command carries its ``handler``."""
    parser = argparse.ArgumentParser(prog="repro", description="Sparse semi-oblivious routing reproduction")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments").set_defaults(
        handler=_cmd_list
    )
    subparsers.add_parser(
        "schemes", help="list registered routing schemes and sources"
    ).set_defaults(handler=_cmd_schemes)

    exp_parser = subparsers.add_parser("experiments", help="run experiments and print their tables")
    exp_parser.add_argument("ids", nargs="*", help="experiment ids (default: all)")
    exp_parser.add_argument("--scale", choices=("smoke", "small", "paper"), default="small")
    exp_parser.add_argument("--seed", type=int, default=0)
    exp_parser.add_argument("--json", action="store_true", help="print JSON instead of tables")
    exp_parser.set_defaults(handler=_cmd_experiments)

    te_parser = subparsers.add_parser("te", help="traffic-engineering simulation via scheme specs")
    te_parser.add_argument("--topology", default="waxman:14",
                           help="any registered topology kind: hypercube:K, torus:K, waxman:N, "
                                "isp(pops=P), backbone:N, zoo:NAME, ... (default waxman:14); "
                                "a bare kind name takes the registry default size")
    te_parser.add_argument("--scheme", action="append", default=[], dest="schemes",
                           help="scheme spec, repeatable (default: the SMORE line-up)")
    te_parser.add_argument("--snapshots", type=int, default=4)
    te_parser.add_argument("--seed", type=int, default=0)
    te_parser.add_argument("--json", action="store_true", help="print the report as JSON")
    te_parser.add_argument("--trace", default=None, metavar="PATH",
                           help="write a span trace (JSONL) of the run to this path")
    te_parser.set_defaults(handler=_cmd_te)

    for module in _COMMAND_MODULES:
        module.register(subparsers)

    quick_parser = subparsers.add_parser("quickstart", help="tiny end-to-end pipeline check")
    quick_parser.add_argument("--dimension", type=int, default=3)
    quick_parser.add_argument("--alpha", type=int, default=3)
    quick_parser.set_defaults(handler=_cmd_quickstart)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


def _run() -> int:
    """``main`` for the shell: a reader that closes the pipe early ends it quietly."""
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Later writes, and the flush at interpreter exit, go to devnull
        # instead of raising a second BrokenPipeError.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(_run())
