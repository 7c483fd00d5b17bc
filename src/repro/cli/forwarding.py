"""``repro forwarding``: ECMP realization of a scheme's routing.

Quantize any scheme's routing into per-node next-hop buckets (split
ratios in multiples of 1/k), hash discrete flows onto the table, and
measure the fractional-vs-realized congestion gap with analytic
non-congestion probabilities::

    python -m repro forwarding quantize --topology "zoo(abilene)" --buckets 8
    python -m repro forwarding realize --scheme "oblivious(ksp, k=4)" --flows 128
    python -m repro forwarding gap --topology "zoo(abilene)" --buckets 8 --json

Seeded ``--json`` artifacts are bit-identical across runs.  The
``realized(...)`` scheme wrapper exposes the same realization to every
other subcommand, e.g.
``repro te --scheme "realized(oblivious(ksp, k=4), buckets=8)"``.
"""

from __future__ import annotations

import sys

from repro.cli import _build_te_network, _emit_net_artifact, _tracing
from repro.utils.serialization import dumps as json_dumps

_FORWARDING_SCHEMA = "repro-forwarding/v1"


def _forwarding_setup(topology: str, scheme: str, seed: int):
    """Build (network, routing, demand) for the forwarding subcommands.

    The demand is one fitted-gravity snapshot (capacity marginals on
    synthetic topologies, bundled marginals on catalog entries) and the
    routing is whatever the scheme installs — both seeded through
    ``SeedSequence`` so repeated invocations are bit-identical.
    """
    from numpy.random import SeedSequence, default_rng

    from repro.engine import build_router
    from repro.exceptions import ForwardingError
    from repro.net import fitted_gravity_series

    network = _build_te_network(topology, seed)
    demand = list(
        fitted_gravity_series(network, 1, rng=default_rng(SeedSequence([seed, 0])))
    )[0]
    router = build_router(scheme, network, rng=default_rng(SeedSequence([seed, 1])))
    router.install()
    result = router.route(demand)
    if result.routing is None:
        raise ForwardingError(
            f"scheme {scheme!r} does not materialize a routing to quantize "
            "(the optimal MCF router solves per demand); pick a path-based scheme"
        )
    return network, result.routing, demand


def _header(artifact: str, args) -> dict:
    """The fields every forwarding artifact starts with."""
    return {
        "artifact": artifact,
        "schema": _FORWARDING_SCHEMA,
        "topology": args.topology,
        "scheme": args.scheme,
        "seed": args.seed,
    }


def _cmd_quantize(args) -> int:
    from repro.exceptions import ReproError
    from repro.forwarding import quantize_routing

    try:
        with _tracing(args.trace, "cli.forwarding.quantize"):
            network, routing, _ = _forwarding_setup(args.topology, args.scheme, args.seed)
            table = quantize_routing(routing, buckets=args.buckets, on_cycle=args.on_cycle)
    except ReproError as error:
        print(error, file=sys.stderr)
        return 2
    payload = {
        **_header("forwarding-table", args),
        "on_cycle": args.on_cycle,
        **table.to_dict(),
    }
    if args.output or args.json:
        _emit_net_artifact(json_dumps(payload), args.output, args.json, "forwarding-table")
    if not args.json:
        print(f"{network.name}: quantized {len(table.entries)} pair(s) at 1/{args.buckets} "
              f"granularity -> {table.num_rules()} next-hop rules, "
              f"{len(table.fallback_pairs())} path-mode fallback(s), "
              f"max TV error {table.max_error():.4f}")
    return 0


def _cmd_realize(args) -> int:
    from repro.exceptions import ReproError
    from repro.forwarding import evaluate_realization

    try:
        with _tracing(args.trace, "cli.forwarding.realize"):
            network, routing, demand = _forwarding_setup(args.topology, args.scheme, args.seed)
            _, result = evaluate_realization(
                routing, demand, buckets=args.buckets, flows=args.flows, seed=args.seed
            )
    except ReproError as error:
        print(error, file=sys.stderr)
        return 2
    payload = {**_header("forwarding-realization", args), **result.to_dict()}
    if args.output or args.json:
        _emit_net_artifact(json_dumps(payload), args.output, args.json, "realization")
    if not args.json:
        print(f"{network.name}: fractional {result.fractional_congestion:.4f} vs "
              f"quantized {result.quantized_congestion:.4f} "
              f"(gap {result.gap:.4f}) at k={args.buckets}; "
              f"{args.flows} hashed flow(s) -> {result.flow_congestion:.4f} "
              f"(gap {result.flow_gap:.4f})")
    return 0


def _cmd_gap(args) -> int:
    from repro.exceptions import ReproError
    from repro.forwarding import analyze_placement, evaluate_realization

    buckets_list = sorted(set(args.buckets_list)) if args.buckets_list else [2, 4, 8, 16]
    rows = []
    try:
        with _tracing(args.trace, "cli.forwarding.gap"):
            network, routing, demand = _forwarding_setup(args.topology, args.scheme, args.seed)
            for buckets in buckets_list:
                _, result = evaluate_realization(
                    routing, demand, buckets=buckets, flows=args.flows, seed=args.seed
                )
                analytic = analyze_placement(buckets, args.flows, seed=args.seed)
                rows.append({"buckets": buckets, **result.to_dict(),
                             "analytic": analytic})
    except ReproError as error:
        print(error, file=sys.stderr)
        return 2
    payload = {
        **_header("forwarding-gap", args),
        "flows": args.flows,
        "network": {"n": network.num_vertices, "m": network.num_edges},
        "rows": rows,
        "max_gap": max(row["gap"] for row in rows),
    }
    if args.output or args.json:
        _emit_net_artifact(json_dumps(payload), args.output, args.json, "forwarding-gap")
    if not args.json:
        print(f"{network.name}: fractional congestion "
              f"{rows[0]['fractional_congestion']:.4f} ({args.scheme})")
        header = (f"{'k':>4s} {'quantized':>10s} {'gap':>8s} {'flow-gap':>9s} "
                  f"{'rules':>6s} {'P(no congest)':>14s}")
        print(header)
        print("-" * len(header))
        for row in rows:
            print(f"{row['buckets']:4d} {row['quantized_congestion']:10.4f} "
                  f"{row['gap']:8.4f} {row['flow_gap']:9.4f} {row['rules']:6d} "
                  f"{row['analytic']['non_congestion_probability']:14.4f}")
    return 0


def _common_arguments(sub, handler) -> None:
    sub.add_argument("--topology", default="zoo(abilene)",
                     help="synthetic (hypercube:K, isp(pops=P), ...) or catalog "
                          "name (default zoo(abilene))")
    sub.add_argument("--scheme", default="oblivious(ksp, k=4)",
                     help="scheme whose routing is realized "
                          "(default 'oblivious(ksp, k=4)')")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--json", action="store_true",
                     help="print the artifact (bit-identical per seed)")
    sub.add_argument("--output", default=None,
                     help="write the JSON artifact to this path")
    sub.add_argument("--trace", default=None, metavar="PATH",
                     help="write a span trace (JSONL) to this path")
    sub.set_defaults(handler=handler)


def register(subparsers) -> None:
    fwd_parser = subparsers.add_parser(
        "forwarding", help="ECMP-realizable forwarding tables and congestion gaps"
    )
    fwd_sub = fwd_parser.add_subparsers(dest="forwarding_command", required=True)
    fwd_quantize = fwd_sub.add_parser(
        "quantize", help="emit the ECMP forwarding table for a scheme's routing"
    )
    fwd_quantize.add_argument("--buckets", type=int, default=8,
                              help="split-ratio granularity 1/k (default 8)")
    fwd_quantize.add_argument("--on-cycle", choices=("decompose", "error"),
                              default="decompose", dest="on_cycle",
                              help="cyclic/non-confluent pairs: fall back to "
                                   "per-path quantization or raise (default decompose)")
    _common_arguments(fwd_quantize, _cmd_quantize)
    fwd_realize = fwd_sub.add_parser(
        "realize", help="hash discrete flows onto the table and report realized congestion"
    )
    fwd_realize.add_argument("--buckets", type=int, default=8,
                             help="split-ratio granularity 1/k (default 8)")
    fwd_realize.add_argument("--flows", type=int, default=64,
                             help="discrete flows hashed per pair (default 64)")
    _common_arguments(fwd_realize, _cmd_realize)
    fwd_gap = fwd_sub.add_parser(
        "gap", help="fractional-vs-ECMP congestion gap across bucket granularities"
    )
    fwd_gap.add_argument("--buckets", type=int, action="append", default=[],
                         dest="buckets_list",
                         help="bucket count, repeatable (default: 2 4 8 16)")
    fwd_gap.add_argument("--flows", type=int, default=64,
                         help="discrete flows hashed per pair (default 64)")
    _common_arguments(fwd_gap, _cmd_gap)
