"""``repro trace``: inspect trace files written by ``--trace``.

``--trace`` is available on ``te``, ``scenarios run``, ``stream run``,
``net fit``, ``net odme`` and the ``forwarding`` commands::

    python -m repro scenarios run --suite smoke --workers 4 --trace run.jsonl
    python -m repro trace summarize run.jsonl
    python -m repro trace export run.jsonl --chrome

``summarize`` prints the hot-span table (count, self/total time,
p50/p95); ``export --chrome`` writes a Chrome/Perfetto trace-event file
loadable at ``chrome://tracing`` or https://ui.perfetto.dev.
"""

from __future__ import annotations

import sys


def _cmd_summarize(args) -> int:
    from repro.exceptions import ObsError
    from repro.obs import load_trace, render_summary, summarize_trace

    try:
        records = load_trace(args.path)
        rows = summarize_trace(records)
    except ObsError as error:
        print(error, file=sys.stderr)
        return 2
    if not rows:
        print(f"{args.path}: no spans recorded", file=sys.stderr)
        return 0
    print(render_summary(rows, limit=args.limit))
    return 0


def _cmd_export(args) -> int:
    from repro.exceptions import ObsError
    from repro.obs import load_trace, write_chrome_trace

    try:
        records = load_trace(args.path)
    except ObsError as error:
        print(error, file=sys.stderr)
        return 2
    output = args.output
    if output is None:
        stem = args.path[:-6] if args.path.endswith(".jsonl") else args.path
        output = stem + ".chrome.json"
    write_chrome_trace(records, output)
    print(f"wrote Chrome trace-event file to {output} "
          "(load at chrome://tracing or https://ui.perfetto.dev)", file=sys.stderr)
    return 0


def register(subparsers) -> None:
    trace_parser = subparsers.add_parser(
        "trace", help="summarize or export span traces written by --trace"
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)
    trace_summarize = trace_sub.add_parser(
        "summarize", help="print the hot-span table for a trace file"
    )
    trace_summarize.add_argument("path", help="trace file written by --trace")
    trace_summarize.add_argument("--limit", type=int, default=30,
                                 help="max span names to print (default 30)")
    trace_summarize.set_defaults(handler=_cmd_summarize)
    trace_export = trace_sub.add_parser(
        "export", help="convert a trace to another format"
    )
    trace_export.add_argument("path", help="trace file written by --trace")
    trace_export.add_argument("--chrome", action="store_true", required=True,
                              help="emit the Chrome trace-event format (the only format)")
    trace_export.add_argument("--output", default=None,
                              help="output path (default: <trace>.chrome.json)")
    trace_export.set_defaults(handler=_cmd_export)
