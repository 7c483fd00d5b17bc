#!/usr/bin/env python
"""Render the README performance table from BENCH_*.json artifacts.

Usage::

    PYTHONPATH=src python tools/render_bench_table.py [BENCH_linalg.json BENCH_rebase.json ...]

With no arguments, reads every ``BENCH_*.json`` at the repository root.
Prints a GitHub-flavored markdown table, one row per artifact with the
target's own headline; paste the output into the "Evaluation backends"
section of README.md after regenerating baselines with
``python -m repro bench --scale full``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.bench import SCHEMA, headline

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_artifacts(paths):
    artifacts = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        if payload.get("schema") != SCHEMA:
            raise SystemExit(f"{path}: unknown bench schema {payload.get('schema')!r}")
        artifacts.append(payload)
    return artifacts


def render(artifacts) -> str:
    lines = ["| bench | topology | result |", "|---|---|---|"]
    for payload in artifacts:
        network = payload["network"]
        lines.append(
            f"| `{payload['name']}` "
            f"| {network['name']} (n={network['n']}, m={network['m']}) "
            f"| {headline(payload)} |"
        )
    return "\n".join(lines)


def main(argv) -> int:
    paths = argv or sorted(str(path) for path in REPO_ROOT.glob("BENCH_*.json"))
    if not paths:
        print("no BENCH_*.json artifacts found; run: python -m repro bench --scale full",
              file=sys.stderr)
        return 1
    print(render(load_artifacts(paths)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
