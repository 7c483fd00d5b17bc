"""End-to-end pipeline benchmark: install -> route (path LP) -> optimum -> ratio.

Run from the repository root::

    python3 perfbench/run.py --workload ratio-torus4 --seed 0 --seconds 20 --trace 0

Workloads, sizes and the layer-metric table live in
``perfbench/manifest.json``.  With ``--trace 0`` the run times the
closed loop with tracing off and reports the end-to-end metrics; with
``--trace 1`` it also replays the same inputs through each layer's
entry point with spans on and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--smoke`` shrinks every
workload to test size.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

WORKLOADS = ("ratio-torus4", "adapt-isp", "install-isp")

# Route latency in units of the reference work rather than in ms: on a
# shared 2-vCPU Xeon VM the CPU runs, seconds to minutes at a time, up to
# ~1.7x slower, so raw p10/p50 swung 15-45% between runs of the same code
# with the phase mix.  Raw p10, p50, p90 and throughput are still printed.
END_TO_END_UNITS = {
    "setup_s": "s",
    "route_rel_p50": "ref",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "mcf.optimal_ms": "ms",
    "mcf.lp_setup_ms": "ms",
    "mcf.lp_solve_ms": "ms",
    "mcf.optimal_cols": "count",
    "mcf.optimal_solves": "count",
    "core.rate_adapt_ms": "ms",
    "mcf.path_lp_cols": "count",
    "oblivious.build_s": "s",
    "oblivious.materialize_s": "s",
    "core.sample_s": "s",
    "linalg.compile_s": "s",
    "linalg.evaluate_ms": "ms",
    "engine.route_self_ms": "ms",
    "core.paths_per_pair": "count",
    "trace_overhead_pct": "%",
    "unattributed_pct": "%",
}


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One benchmark run; returns the result object plus report-only fields."""
    # Imported here because closed_loop imports repro, and main() puts src/ on the path.
    import numpy as np
    from closed_loop import ReferenceWork, closed_loop, cross_check_fixed, digest
    from closed_loop import load_manifest, make_inputs, set_up, workload_spec

    def percentile_ms(q: float) -> float:
        return float(np.percentile(latencies, q)) * 1000.0

    manifest = load_manifest()
    spec = workload_spec(workload, smoke=smoke)
    inputs = make_inputs(spec, seed, manifest["instance_seed"])
    reference = ReferenceWork()
    # Set up at least setup_repeats times and for setup_min_seconds, so the
    # median of cheap set-ups rests on more samples than that of slow ones.
    repeats = 1 if trace else manifest["setup_repeats"]
    min_seconds = 0.0 if trace or smoke else manifest["setup_min_seconds"]
    setups = []
    while len(setups) < repeats or sum(setups) < min_seconds:
        engine = None  # drop the previous engine so two never share the RSS peak
        gc.collect()
        engine, elapsed = set_up(inputs)
        setups.append(elapsed)

    loop = closed_loop(engine, inputs, seconds, reference)
    cross_check_fixed(engine, inputs, loop)
    latencies = loop.latencies or [float("nan")]
    relative = np.divide(loop.latencies, loop.reference) if loop.latencies else [float("nan")]
    if trace:
        from layer_trace import traced_replay

        values, units = traced_replay(inputs, loop), LAYER_UNITS
    else:
        values = {
            "setup_s": statistics.median(setups),
            "route_rel_p50": float(np.median(relative)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    first = [row for row in loop.rows[: spec["min_demands"]] if row is not None]
    ratios = [row["semi-oblivious"] / row["optimal"] for row in first
              if "optimal" in row and "semi-oblivious" in row]
    return {
        "result": {
            "correct": loop.failed == 0,
            "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": metrics,
        },
        "report": {
            "workload": workload,
            "seed": seed,
            "n": inputs.network.num_vertices,
            "m": inputs.network.num_edges,
            "pairs": len(inputs.pairs),
            "schemes": len(spec["schemes"]),
            "demands_routed": len(loop.latencies),
            "route_ms_p10": percentile_ms(10),
            "route_ms_p50": percentile_ms(50),
            "route_ms_p90": percentile_ms(90),
            "demands_per_s": len(loop.latencies) / sum(latencies),
            "reference_ms_p50": float(np.median(loop.reference or [float("nan")])) * 1000.0,
            "setup_runs_s": setups,
            "ratio_mean": sum(ratios) / len(ratios) if ratios else None,
            "failed_frac": loop.failed / max(loop.attempted, 1),
            "digest": digest(loop, spec["min_demands"]),
            "errors": loop.errors,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="test-size inputs")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace), smoke=args.smoke)
    report = outcome["report"]
    for key, value in report.items():
        print(f"# {key}: {value}")
    for name, metric in outcome["result"]["metrics"].items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
