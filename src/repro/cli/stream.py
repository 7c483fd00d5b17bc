"""``repro stream``: streaming traffic replay.

Play a time-varying demand stream through one scheme under online
rerouting policies, evaluated incrementally on the compiled routing::

    python -m repro stream list
    python -m repro stream describe random-walk
    python -m repro stream run --topology torus:5 --stream flash-crowd \\
        --steps 96 --policy static --policy "periodic(k=16)" --optimal
    python -m repro stream run --stream adversarial-shift --json

Seeded runs are bit-identical however often they are replayed (the
artifact carries no wall-clock fields).
"""

from __future__ import annotations

import sys
import time

from repro.cli import _build_te_network, _tracing


def _cmd_list(args) -> int:
    from repro.stream import policy_descriptions, stream_descriptions

    print("streams:")
    for name, description in stream_descriptions().items():
        print(f"  {name:18s} {description}")
    print("policies:")
    for name, description in policy_descriptions().items():
        print(f"  {name:18s} {description}")
    return 0


def _cmd_describe(args) -> int:
    from repro.stream import policy_descriptions, stream_descriptions

    streams = stream_descriptions()
    policies = policy_descriptions()
    if args.name in streams:
        print(f"stream {args.name}: {streams[args.name]}")
        return 0
    if args.name in policies:
        print(f"policy {args.name}: {policies[args.name]}")
        return 0
    print(
        f"unknown stream or policy {args.name!r}; "
        f"streams: {sorted(streams)}; policies: {sorted(policies)}",
        file=sys.stderr,
    )
    return 2


def _cmd_run(args) -> int:
    from repro.engine import RoutingEngine
    from repro.exceptions import ReproError
    from repro.stream import build_stream

    policies = args.policies or ["static"]
    with _tracing(args.trace, "cli.stream"):
        network = _build_te_network(args.topology, args.seed)
        try:
            stream = build_stream(
                args.stream_kind, network, num_steps=args.steps, seed=args.seed + 1
            )
            engine = RoutingEngine(network, [args.scheme], rng=args.seed)
            start = time.perf_counter()
            report = engine.run_stream(
                stream,
                policies=policies,
                window=args.window,
                threshold=args.threshold,
                with_optimal=args.optimal,
                record_steps=not args.no_steps,
                churn_buckets=args.churn_buckets,
            )
            elapsed = time.perf_counter() - start
        except ReproError as error:
            print(f"stream run failed: {error}", file=sys.stderr)
            return 2
    # The artifact deliberately excludes wall time: seeded runs are
    # bit-identical however often they are replayed.
    artifact = report.to_json(include_steps=not args.no_steps)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(artifact + "\n")
        print(f"wrote stream artifact to {args.output}", file=sys.stderr)
    if args.json:
        print(artifact)
    else:
        print(report.render())
        print(f"\n[{len(policies)} policy replay(s) over "
              f"{report.num_steps} steps, {elapsed:.1f}s]")
    return 0


def register(subparsers) -> None:
    stream_parser = subparsers.add_parser(
        "stream", help="streaming traffic replay with online rerouting policies"
    )
    stream_sub = stream_parser.add_subparsers(dest="stream_command", required=True)
    stream_sub.add_parser(
        "list", help="list the registered streams and policies"
    ).set_defaults(handler=_cmd_list)
    stream_describe = stream_sub.add_parser("describe", help="describe one stream or policy")
    stream_describe.add_argument("name", help="stream or policy name (see 'stream list')")
    stream_describe.set_defaults(handler=_cmd_describe)
    stream_run = stream_sub.add_parser("run", help="replay a stream and print the policy table")
    stream_run.add_argument("--topology", default="torus:5",
                            help="any registered topology kind: hypercube:K, torus:K, waxman:N, "
                                 "isp(pops=P), backbone:N, ... (default torus:5)")
    stream_run.add_argument("--stream", default="random-walk", dest="stream_kind",
                            help="stream kind (see 'stream list'; default random-walk)")
    stream_run.add_argument("--steps", type=int, default=64,
                            help="number of timesteps (default 64)")
    stream_run.add_argument("--policy", action="append", default=[], dest="policies",
                            help="rerouting policy spec, repeatable (default: static)")
    stream_run.add_argument("--scheme", default="spf",
                            help="scheme spec routed through (default spf)")
    stream_run.add_argument("--seed", type=int, default=0)
    stream_run.add_argument("--window", type=int, default=16,
                            help="rolling metric window in steps (default 16)")
    stream_run.add_argument("--threshold", type=float, default=1.0,
                            help="overload utilization threshold (default 1.0)")
    stream_run.add_argument("--optimal", action="store_true",
                            help="normalize each step by the per-step optimal MCF (needs LP)")
    stream_run.add_argument("--json", action="store_true",
                            help="print the JSON artifact instead of the table")
    stream_run.add_argument("--no-steps", action="store_true",
                            help="omit per-step records from the artifact (summaries only)")
    stream_run.add_argument("--output", default=None,
                            help="also write the JSON artifact to this path")
    stream_run.add_argument("--trace", default=None, metavar="PATH",
                            help="write a span trace (JSONL) of the replay to this path")
    stream_run.add_argument("--churn-buckets", type=int, default=None, metavar="K",
                            help="also charge each policy re-solve its ECMP "
                                 "forwarding-table churn at 1/K split granularity "
                                 "(default: off)")
    stream_run.set_defaults(handler=_cmd_run)
