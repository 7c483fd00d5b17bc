#!/usr/bin/env python3
"""Run every experiment (E1–E10) and print the EXPERIMENTS.md tables.

Scales:

* ``smoke`` — seconds, tiny instances (what the test suite uses),
* ``small`` — seconds (what the headline-shape tests use; default),
* ``paper`` — minutes, the sizes recorded in EXPERIMENTS.md.

Run with::

    python examples/run_all_experiments.py [scale] [experiment_id ...]
"""

from __future__ import annotations

import sys
import time

from repro.experiments import REGISTRY
from repro.experiments.harness import ExperimentConfig


def main(scale: str = "small", only: list[str] | None = None, seed: int = 0) -> None:
    chosen = only or sorted(REGISTRY)
    unknown = [name for name in chosen if name not in REGISTRY]
    if unknown:
        raise SystemExit(f"unknown experiment id(s): {unknown}; available: {sorted(REGISTRY)}")
    config = ExperimentConfig(seed=seed, scale=scale)
    for name in chosen:
        start = time.perf_counter()
        result = REGISTRY[name](config)
        elapsed = time.perf_counter() - start
        print(result.render())
        print(f"\n[{name} completed in {elapsed:.1f}s at scale={scale}]\n" + "=" * 78 + "\n")


if __name__ == "__main__":
    scale_arg = sys.argv[1] if len(sys.argv) > 1 else "small"
    only_arg = sys.argv[2:] if len(sys.argv) > 2 else None
    main(scale_arg, only_arg)
