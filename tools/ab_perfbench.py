#!/usr/bin/env python
"""A/B the pipeline benchmark: alternating parent/change runs of ``perfbench/run.py``.

Usage::

    python tools/ab_perfbench.py PARENT_DIR CHANGE_DIR --workload adapt-isp \\
        --pairs 10 --seconds 20 [--seed 101] [--smoke]

``PARENT_DIR`` and ``CHANGE_DIR`` are two checkouts (a ``git archive``
of each commit will do).  Pair ``i`` runs the benchmark command that
``BENCHMARK.json`` declares once in each checkout, the parent first
when ``i`` is even and the change first when it is odd, with this
interpreter and without ``PYTHONPATH``, so each run imports its own
``src/``.  Two lines of each run's output are read: the last, the
result object, and the ``# digest:`` report line, the seeded digest of
the routed results; nothing under ``perfbench/`` is touched.

For every end-to-end metric of the parent's ``BENCHMARK.json`` it
prints each side's median and quartiles, how many pairs the change won
(ties count for neither), and whether a gain may be claimed: the change
won at least nine tenths of the pairs and the medians differ by more
than the parent's interquartile range.  It also prints how far the
change's median moved against the metric's declared bound, as a
fraction of the parent's median.  It prints each side's set of digests
and whether the two sets are equal, so a change that should keep the
seeded results can be seen to keep them; the digests do not enter the
exit status.  Exit status 0 when every run reported
``correct``; 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np


def reported(lines, key: str):
    """The value of the ``# key: value`` report line among ``lines``, or None without one."""
    prefix = f"# {key}: "
    return next((line[len(prefix):] for line in lines if line.startswith(prefix)), None)


def run_once(tree: Path, command, args) -> tuple:
    """One benchmark run in ``tree``: its result object (the last output line) and its digest."""
    argv = [sys.executable, *command[1:], "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0"]
    if args.smoke:
        argv.append("--smoke")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    completed = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(f"ab_perfbench: run in {tree} failed:\n{completed.stderr}")
    return json.loads(lines[-1]), reported(lines, "digest")


def compare(metric: dict, parent, change) -> dict:
    """The A/B summary of one metric over paired runs ``parent[i]``/``change[i]``."""
    sign = -1.0 if metric["better"] == "lower" else 1.0
    p_q1, p_med, p_q3 = np.percentile(parent, [25, 50, 75])
    c_q1, c_med, c_q3 = np.percentile(change, [25, 50, 75])
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gain = sign * (c_med - p_med)
    return {
        "parent": (p_med, p_q1, p_q3),
        "change": (c_med, c_q1, c_q3),
        "wins": wins,
        "gain_holds": wins >= 0.9 * len(parent) and gain > p_q3 - p_q1,
        # Positive when the change is worse, in units of the parent's median.
        "worse_by": -gain / p_med if p_med else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--smoke", action="store_true", help="test-size inputs")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    with open(args.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    runs = {"parent": [], "change": []}
    digests = {"parent": set(), "change": set()}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result, digest = run_once(getattr(args, side), benchmark["command"], args)
            runs[side].append(result)
            digests[side].add(str(digest))
        print(f"# pair {i + 1}/{args.pairs} done ({order[0]} first)", flush=True)

    for side, results in runs.items():
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"# {side}: {failed}/{attempted} operations failed")
    for side, seen in digests.items():
        print(f"# {side} digests: {' '.join(sorted(seen))}")
    print(f"# digests equal: {'yes' if digests['parent'] == digests['change'] else 'no'}")
    print(f"{'metric':<16} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} "
          f"{'wins':>7} {'gain':>5} {'worse_by/bound':>15}")
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        row = compare(metric, *([r["metrics"][name]["value"] for r in runs[side]] for side in runs))
        parent, change = ("{:.4g} [{:.4g}, {:.4g}]".format(*row[side]) for side in runs)
        print(f"{name:<16} {parent:>30} {change:>30} "
              f"{row['wins']:>3}/{args.pairs:<3} {'yes' if row['gain_holds'] else 'no':>5} "
              f"{row['worse_by']:>+8.3f}/{metric['bound']:<6g}")
    return 0 if all(r["correct"] for results in runs.values() for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
