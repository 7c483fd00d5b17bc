"""The ``obs`` bench target: what the tracing layer itself costs.

The instrumentation threaded through the hot paths is only acceptable
if it is effectively free when no tracer is installed and cheap when one
is; this target measures both, so the observability layer is
perf-regression-gated like every other subsystem.

Two legs:

``batched``
    The tightest instrumented loop in the repository — batched demand
    evaluation through the compiled routing.  Three timings over the
    identical workload, interleaved round-robin; the gated overhead
    figures are medians of per-round paired ratios (see
    :func:`_paired_overhead_pct`):

    * ``baseline`` — ``compiled.congestions_from_matrix(
      compiled.demand_matrix(demands))``, the work below the
      instrumented call (no ``trace_span`` at all);
    * ``disabled`` — ``compiled.congestions(demands)`` with **no
      tracer installed**: the production default, one no-op
      ``trace_span`` check per batch;
    * ``enabled`` — the same call with a recording tracer installed:
      the full span lifecycle (clock reads, contextvar swap, record
      assembly) per batch.

``sweep``
    One coarse-grained end-to-end run — the ``smoke`` scenario suite
    executed inline, untraced vs traced (single repetition each; the
    figure is informational, the gated numbers come from the batched
    leg where min-of-reps makes them stable).

Gate (:func:`gate`): at full scale, the committed ``BENCH_obs.json``,
``overhead_disabled_pct`` must stay ≈ 0 (within ±5) and
``overhead_enabled_pct`` < 5; a fresh smoke run on a noisy shared
runner only has to stay within ±25.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.bench import legs, violations
from repro.linalg.bench import _workload
from repro.linalg.compiled import CompiledRouting
from repro.utils.timing import Stopwatch, timing_entry

from repro.obs.sinks import RecordingSink
from repro.obs.tracer import Tracer, install_tracer, uninstall_tracer

DESCRIPTION = "tracing overhead: untraced vs no-op spans vs a recording tracer"

#: Per-scale (rounds, inner evaluations per timed chunk) for the
#: batched leg.  Small scales need many inner evaluations to push each
#: timed chunk well past timer granularity (a single smoke batch is
#: ~1 ms, where per-chunk jitter runs multi-percent).
_OBS_REPS: Dict[str, Tuple[int, int]] = {
    "smoke": (15, 25),
    "small": (11, 5),
    "full": (31, 1),
}


def _interleaved_round_seconds(
    legs: Dict[str, Any], rounds: int, inner: int
) -> Dict[str, List[float]]:
    """Per-leg per-round chunk times, legs timed round-robin.

    Each round times one ``inner``-call chunk of every leg back to back
    before moving on, so slow drift (CPU frequency, co-tenant load) hits
    all legs alike instead of biasing whichever leg ran in the noisier
    window.  The leg order rotates every round — a fixed order would
    systematically tax whichever leg always ran while the clock slowed
    (turbo decay).  Returning the full per-round series lets the caller
    pair chunks *within* a round (see :func:`_paired_overhead_pct`),
    which is what actually survives shared-runner noise.

    Two further defenses against that noise, which is orders of
    magnitude larger than the effect under measurement:

    * chunks are timed with ``time.process_time`` rather than wall
      clock, so hypervisor steal and descheduled windows (hundreds of
      milliseconds on a busy single-vCPU box) do not count against
      whichever leg they happened to land on — the legs are pure CPU;
    * GC is paused during the timed chunks (as :mod:`timeit` does):
      the span's few extra allocations otherwise shift *whole
      collection passes* over the long-lived routing/network graph
      into whichever chunk crosses the threshold, charging
      milliseconds of unrelated work to microseconds of
      instrumentation.
    """
    import gc
    import time

    names = list(legs)
    samples: Dict[str, List[float]] = {name: [] for name in names}
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for round_index in range(rounds):
            offset = round_index % len(names)
            for name in names[offset:] + names[:offset]:
                callable_ = legs[name]
                with Stopwatch(clock=time.process_time) as watch:
                    for _ in range(inner):
                        callable_()
                samples[name].append(watch.elapsed / inner)
    finally:
        if gc_was_enabled:
            gc.enable()
    return samples


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _paired_overhead_pct(samples: Dict[str, List[float]], name: str) -> float:
    """Overhead of leg ``name`` vs ``baseline`` in percent, drift-immune.

    Per-leg aggregates (min or mean over rounds) still disagree by
    ±10% between *identical* legs on a contended box, because the
    machine's speed wanders over the run and each leg's aggregate
    samples a different mix of fast and slow phases.  Pairing instead
    compares each round's chunk against the *same round's* baseline
    chunk — measured within the same few hundred milliseconds, so
    drift cancels — and takes the median ratio over rounds, which
    throws away the rounds where a spike landed inside either chunk.
    """
    ratios = [
        leg / base
        for leg, base in zip(samples[name], samples["baseline"])
        if base > 0
    ]
    if not ratios:
        return 0.0
    return (_median(ratios) - 1.0) * 100.0


def _overhead_pct(seconds: float, baseline: float) -> float:
    """Relative overhead of ``seconds`` vs ``baseline`` in percent."""
    if baseline <= 0:
        return 0.0
    return (seconds / baseline - 1.0) * 100.0


def run(scale: str, seed: int) -> Dict[str, Any]:
    """Instrumentation overhead: untraced vs no-op-traced vs recording."""
    network, routing, demands = _workload(scale, seed)
    rounds, inner = _OBS_REPS[scale]

    compiled = CompiledRouting.from_routing(routing)
    tracer = Tracer(sink=RecordingSink(), role="bench")

    def run_baseline():
        # The same work as the other legs, minus their one span.
        compiled.congestions_from_matrix(compiled.demand_matrix(demands))

    def run_disabled():
        compiled.congestions(demands)

    def run_enabled():
        install_tracer(tracer)
        try:
            compiled.congestions(demands)
        finally:
            uninstall_tracer()

    # Warm every code path once before timing (lazy imports, caches).
    for leg in (run_baseline, run_disabled, run_enabled):
        leg()
    samples = _interleaved_round_seconds(
        {"baseline": run_baseline, "disabled": run_disabled, "enabled": run_enabled},
        rounds,
        inner,
    )
    # Reported per-leg times are the min over rounds (best-case
    # throughput); the gated overhead figures come from the paired
    # per-round ratios, which are the drift-immune statistic.
    baseline_seconds = min(samples["baseline"])
    disabled_seconds = min(samples["disabled"])
    enabled_seconds = min(samples["enabled"])
    spans_per_call = 1  # one linalg.batched_evaluate span per batch

    # Sweep leg: coarse spans over a real end-to-end run (inline, so the
    # tracer covers install + every cell in-process).  Single rep each —
    # LP solve jitter dominates, hence informational rather than gated.
    from repro.scenarios import get_suite, run_suite

    import time as _time

    suite = get_suite("smoke").with_overrides(num_snapshots=1)
    run_suite(suite, workers=1)  # warm caches/imports
    with Stopwatch(clock=_time.process_time) as sweep_plain_watch:
        run_suite(suite, workers=1)
    sweep_sink = RecordingSink()
    install_tracer(Tracer(sink=sweep_sink, role="bench"))
    try:
        with Stopwatch(clock=_time.process_time) as sweep_traced_watch:
            run_suite(suite, workers=1)
    finally:
        uninstall_tracer()
    sweep_plain = sweep_plain_watch.elapsed
    sweep_traced = sweep_traced_watch.elapsed
    sweep_spans = sum(1 for record in sweep_sink.records if record.get("kind") == "span")

    batch_size = len(demands)
    return {
        "network": {"name": network.name, "n": network.num_vertices, "m": network.num_edges},
        "workload": {
            "num_demands": batch_size,
            "num_pairs": compiled.num_pairs,
            "num_paths": compiled.num_paths,
            "rounds": rounds,
            "inner_evaluations": inner,
            "representation": "sparse",
        },
        "backends": {
            "baseline": {
                "backend": "untraced",
                **timing_entry(baseline_seconds, count=batch_size, rate_key="demands_per_sec"),
            },
            "disabled": {
                "backend": "noop-span",
                **timing_entry(disabled_seconds, count=batch_size, rate_key="demands_per_sec"),
            },
            "enabled": {
                "backend": "recording-span",
                **timing_entry(
                    enabled_seconds,
                    count=batch_size,
                    rate_key="demands_per_sec",
                    spans_per_call=spans_per_call,
                ),
            },
        },
        "overhead_disabled_pct": _paired_overhead_pct(samples, "disabled"),
        "overhead_enabled_pct": _paired_overhead_pct(samples, "enabled"),
        "sweep": {
            "suite": suite.name,
            "clock": "process_time",
            "num_cells": suite.num_cells(),
            "untraced_seconds": sweep_plain,
            "traced_seconds": sweep_traced,
            "overhead_pct": _overhead_pct(sweep_traced, sweep_plain),
            "num_spans": sweep_spans,
        },
    }


def headline(payload: Dict[str, Any]) -> str:
    return (
        f"{payload['workload']['num_demands']} demands; {legs(payload)}; "
        f"overhead disabled {payload['overhead_disabled_pct']:+.1f}%, "
        f"enabled {payload['overhead_enabled_pct']:+.1f}%, "
        f"sweep {payload['sweep']['overhead_pct']:+.1f}%"
    )


def gate(payloads: List[Dict[str, Any]]) -> List[str]:
    return violations(
        payloads,
        ("|overhead_disabled_pct| < 25", lambda p: abs(p["overhead_disabled_pct"]) < 25.0),
        ("|overhead_enabled_pct| < 25", lambda p: abs(p["overhead_enabled_pct"]) < 25.0),
        ("sweep.num_spans > 0", lambda p: p["sweep"]["num_spans"] > 0),
    ) + violations(
        # The contract the layer ships under: tracing disabled is free,
        # full recording stays under 5% on the batched-evaluation hot path.
        [payload for payload in payloads if payload["scale"] == "full"],
        ("|overhead_disabled_pct| < 5", lambda p: abs(p["overhead_disabled_pct"]) < 5.0),
        ("overhead_enabled_pct < 5", lambda p: p["overhead_enabled_pct"] < 5.0),
        ("|sweep.overhead_pct| < 10", lambda p: abs(p["sweep"]["overhead_pct"]) < 10.0),
    )
