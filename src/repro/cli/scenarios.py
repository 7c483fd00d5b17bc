"""``repro scenarios``: declarative failure × demand × topology sweeps.

::

    python -m repro scenarios list
    python -m repro scenarios describe smoke
    python -m repro scenarios run --suite smoke --workers 2 --json
    python -m repro scenarios run --suite failures --output sweep.json
    python -m repro scenarios run --suite real-world --workers 4 \\
        --artifact-dir sweeps/rw            # killable: streams cell results
    python -m repro scenarios run --suite real-world --workers 4 \\
        --resume sweeps/rw                  # finishes only the missing cells

``run`` executes every grid cell (candidate paths installed once per
topology, deterministic per-cell seeds) and prints the harness table
rendering — or, with ``--json``, the artifact itself, which is
bit-identical for any ``--workers`` value or kill-and-resume history.
"""

from __future__ import annotations

import sys
import time

from repro.cli import _tracing


def _cmd_list(args) -> int:
    from repro.scenarios import available_suites, get_suite

    for name in available_suites():
        suite = get_suite(name)
        print(f"{name:12s} {suite.num_cells():4d} cells  {suite.description}")
    return 0


def _cmd_describe(args) -> int:
    from repro.exceptions import ReproError
    from repro.scenarios import get_suite

    try:
        suite = get_suite(args.suite)
    except ReproError as error:
        print(error, file=sys.stderr)
        return 2
    print(suite.describe())
    return 0


def _cmd_run(args) -> int:
    from repro.exceptions import ReproError
    from repro.scenarios import get_suite, run_suite

    if args.workers < 1:
        print("--workers must be at least 1", file=sys.stderr)
        return 2
    try:
        suite = get_suite(args.suite).with_overrides(
            seed=args.seed, num_snapshots=args.snapshots
        )
    except ReproError as error:
        print(error, file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        with _tracing(args.trace, "cli.scenarios"):
            result = run_suite(
                suite,
                workers=args.workers,
                artifact_dir=args.artifact_dir,
                resume=args.resume,
            )
    except (ReproError, ValueError) as error:
        print(error, file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start
    artifact = result.to_json()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(artifact + "\n")
        print(f"wrote {len(result.cells)}-cell artifact to {args.output}", file=sys.stderr)
    if args.json:
        print(artifact)
    else:
        print(result.render())
        print(f"\n[{suite.num_cells()} cells on {args.workers} worker(s), {elapsed:.1f}s]")
    return 0


def register(subparsers) -> None:
    scenario_parser = subparsers.add_parser(
        "scenarios", help="failure x demand x topology sweeps through the engine"
    )
    scenario_sub = scenario_parser.add_subparsers(dest="scenario_command", required=True)
    scenario_sub.add_parser(
        "list", help="list the built-in scenario suites"
    ).set_defaults(handler=_cmd_list)
    describe_parser = scenario_sub.add_parser("describe", help="show one suite's grid")
    describe_parser.add_argument("suite", help="suite name (see 'scenarios list')")
    describe_parser.set_defaults(handler=_cmd_describe)
    run_parser = scenario_sub.add_parser("run", help="execute a suite and print its report")
    run_parser.add_argument("--suite", default="smoke", help="suite name (default smoke)")
    run_parser.add_argument("--workers", type=int, default=1,
                            help="worker processes for the sweep cells (default 1: "
                                 "inline; more: one spawn pool sharing the "
                                 "parent-installed engines)")
    run_parser.add_argument("--seed", type=int, default=None,
                            help="override the suite's master seed")
    run_parser.add_argument("--snapshots", type=int, default=None,
                            help="override demand snapshots per cell")
    run_parser.add_argument("--json", action="store_true",
                            help="print the JSON artifact instead of tables")
    run_parser.add_argument("--output", default=None,
                            help="also write the JSON artifact to this path")
    run_parser.add_argument("--artifact-dir", default=None,
                            help="stream per-cell results into a resumable store "
                                 "at this directory")
    run_parser.add_argument("--resume", default=None,
                            help="resume from the store at this directory, "
                                 "skipping completed cells")
    run_parser.add_argument("--trace", default=None, metavar="PATH",
                            help="write a span trace (JSONL) of the sweep to this path; "
                                 "worker spans are merged into the one file")
    run_parser.set_defaults(handler=_cmd_run)
