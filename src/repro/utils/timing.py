"""Timing helpers shared by the harness and the benchmark targets.

All wall-clock measurement in the repository goes through
``time.perf_counter`` (monotonic, highest available resolution) via
:class:`Stopwatch`.
"""

from __future__ import annotations

import time
import tracemalloc
from typing import Dict, Optional


class Stopwatch:
    """Context manager measuring one block with ``time.perf_counter``.

    The bench targets (``repro bench linalg|rebase|stream``) and the
    tracing spans (:mod:`repro.obs`) all time their measured blocks
    through this class::

        with Stopwatch() as watch:
            run_workload()
        print(watch.elapsed)

    ``elapsed`` is live while the block runs and freezes on exit.
    ``clock`` swaps the time source — the overhead bench passes
    ``time.process_time`` so a stolen vCPU slice or a descheduled
    window does not count against the measured leg.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._start: float = 0.0
        self._elapsed: float = 0.0
        self._running = False

    def __enter__(self) -> "Stopwatch":
        self._start = self._clock()
        self._running = True
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._elapsed = self._clock() - self._start
        self._running = False

    @property
    def elapsed(self) -> float:
        """Seconds measured so far (final once the block has exited)."""
        if self._running:
            return self._clock() - self._start
        return self._elapsed

    @property
    def started_at(self) -> float:
        """``perf_counter`` value at ``__enter__`` (0.0 before entry).

        Trace spans use this to place themselves on the tracer's
        monotonic timeline without a second ``perf_counter`` call.
        """
        return self._start


class PeakMemory:
    """Context manager sampling tracemalloc peak allocation over a block.

    The same primitive the tracing spans use (:mod:`repro.obs` marks
    memory spans with ``tracemalloc.reset_peak()`` on entry), packaged
    for the bench targets: ``peak_kb`` is the block's allocation
    high-water mark *above the entry baseline*, which is exactly what a
    memory budget bounds::

        with PeakMemory() as mem, Stopwatch() as watch:
            evaluate()
        entry = timing_entry(watch.elapsed, mem_peak_kb=mem.peak_kb)

    Tracemalloc is started if not already running (and stopped again on
    exit if this instance started it).  numpy routes its allocations
    through ``PyTraceMalloc_Track``, so array workloads are visible.
    ``peak_kb`` is ``None`` until the block exits.
    """

    def __init__(self) -> None:
        self.peak_kb: Optional[float] = None
        self._started_tracing = False
        self._baseline = 0

    def __enter__(self) -> "PeakMemory":
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracing = True
        tracemalloc.reset_peak()
        self._baseline = tracemalloc.get_traced_memory()[0]
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        self.peak_kb = max(0.0, (peak - self._baseline) / 1024.0)
        if self._started_tracing:
            tracemalloc.stop()
            self._started_tracing = False


def timing_entry(
    seconds: float,
    count: int | None = None,
    rate_key: str | None = None,
    mem_peak_kb: float | None = None,
    **extra: object,
) -> Dict[str, object]:
    """Build one ``backends``-style timing record for a bench artifact.

    Every bench target stores per-backend measurements as a dict with a
    ``seconds`` field plus an optional throughput field derived from an
    item count (``demands_per_sec``, ``steps_per_sec``, ...).  This
    helper is the single place that derivation lives so the artifact
    schema (``repro-bench/v1``) stays consistent across targets::

        timing_entry(watch.elapsed, count=num_steps, rate_key="steps_per_sec")
        # -> {"seconds": ..., "steps_per_sec": ...}

    ``mem_peak_kb`` (typically from :class:`PeakMemory`) adds the peak
    tracemalloc allocation of the measured block, so any target can
    report memory with the same primitive the obs spans use.  ``extra``
    keys are copied through verbatim (after the rate, matching the
    historical key order of the committed artifacts).
    """
    entry: Dict[str, object] = {"seconds": seconds}
    if count is not None:
        if rate_key is None:
            raise ValueError("timing_entry needs rate_key when count is given")
        entry[rate_key] = count / seconds if seconds > 0 else None
    if mem_peak_kb is not None:
        entry["mem_peak_kb"] = float(mem_peak_kb)
    entry.update(extra)
    return entry


__all__ = ["PeakMemory", "Stopwatch", "timing_entry"]
