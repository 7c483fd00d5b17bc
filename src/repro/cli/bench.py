"""``repro bench``: run benchmark targets and check their artifacts.

Runs :mod:`repro.bench` targets and writes schema-stable
``BENCH_<name>.json`` artifacts comparing a reference and a fast
evaluation path (``dict`` vs ``sparse``, per-step batch vs incremental
streaming, the real-topology catalog); ``check`` runs every target's
gate over given artifacts and exits 1 on a violation::

    python -m repro bench list
    python -m repro bench linalg --scale smoke
    python -m repro bench scale --scale small     # nodes-vs-seconds/peak-MB
    python -m repro bench --scale full --output-dir .
    python -m repro bench check bench-artifacts/BENCH_*_smoke.json BENCH_*.json
"""

from __future__ import annotations

import sys
from typing import List

from repro.utils.serialization import dumps as json_dumps


def _list() -> int:
    from repro.bench import TARGETS, target

    for name in sorted(TARGETS):
        print(f"{name:12s} {target(name).DESCRIPTION}")
    return 0


def _check(paths: List[str]) -> int:
    from repro.bench import check

    if not paths:
        print("bench check needs at least one BENCH_*.json path", file=sys.stderr)
        return 2
    problems = check(paths)
    for problem in problems:
        print(f"violated: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"bench check: {len(paths)} artifact(s), every gate holds")
    return 0


def _cmd_bench(args) -> int:
    import os

    from repro import bench
    from repro.exceptions import ReproError

    # ``list`` and ``check`` are words of the one positional list, so the
    # help keeps a single usage line.
    if args.names == ["list"]:
        return _list()
    if args.names[:1] == ["check"]:
        return _check(args.names[1:])
    # Resolve the artifact directory up front so a relative --output-dir
    # means "relative to where the user invoked the CLI" even if a bench
    # target chdirs or the path is consumed late.
    output_dir = os.path.abspath(os.path.expanduser(args.output_dir))
    chosen = args.names or sorted(bench.TARGETS)
    unknown = [name for name in chosen if name not in bench.TARGETS]
    if unknown:
        print(f"unknown bench target(s): {unknown}; available: {sorted(bench.TARGETS)}",
              file=sys.stderr)
        return 2
    payloads = []
    failed = []
    for name in chosen:
        # A failing target does not stop the others: each still runs
        # and writes its artifact, and the exit status reports failures.
        try:
            payload = bench.run(name, scale=args.scale, seed=args.seed)
        except ReproError as error:
            print(f"bench {name!r} failed: {error}", file=sys.stderr)
            failed.append(name)
            continue
        path = bench.write(payload, output_dir=output_dir)
        payloads.append(payload)
        if not args.json:
            print(f"{name}: {bench.headline(payload)}")
            print(f"  wrote {path}", file=sys.stderr)
    if args.json:
        print(json_dumps(payloads))
    if failed:
        print(f"{len(failed)} bench target(s) failed: {failed}", file=sys.stderr)
        return 1
    return 0


def register(subparsers) -> None:
    bench_parser = subparsers.add_parser(
        "bench", help="run benchmark targets and write BENCH_<name>.json artifacts"
    )
    bench_parser.add_argument("names", nargs="*",
                              help="bench targets (default: all); 'list' enumerates them, "
                                   "'check PATH...' runs every target's gate on artifacts")
    bench_parser.add_argument("--scale", choices=("smoke", "small", "full"), default="small")
    bench_parser.add_argument("--seed", type=int, default=0)
    bench_parser.add_argument("--output-dir", default=".",
                              help="directory for BENCH_<name>.json artifacts (default: .)")
    bench_parser.add_argument("--json", action="store_true",
                              help="print the artifact payloads as JSON")
    bench_parser.set_defaults(handler=_cmd_bench)
