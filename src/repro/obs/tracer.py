"""Process-global span tracer with a zero-cost disabled path.

The repository's observability layer is built around three ideas:

* **Spans** are context managers measuring one named block with
  ``time.perf_counter`` (via the shared :class:`~repro.utils.timing.Stopwatch`
  primitive).  They nest through a :mod:`contextvars` variable, carry
  free-form attributes (set at open) and integer counters (accumulated
  while open), and may optionally sample peak memory via
  :mod:`tracemalloc`.

* **One process-global tracer.**  Instrumentation sites call the
  module-level :func:`trace_span`; when no tracer is installed that is
  one global read plus returning a shared no-op span, so the hot paths
  pay essentially nothing when tracing is off (gated by
  ``repro bench obs``).

* **Records, not objects.**  A finished span is emitted to the tracer's
  sink as a plain JSON-serializable dict, so traces stream to disk one
  line at a time (crash-robust, mergeable across worker processes) and
  the analysis side (:mod:`repro.obs.summary`, :mod:`repro.obs.chrome`)
  never needs live objects.

Timeline model: every tracer notes a ``perf_counter`` epoch and a
wall-clock epoch at construction and emits a ``kind="process"`` meta
record.  Span start offsets (``t0``) are relative to the per-process
monotonic epoch; the wall epochs let the Chrome exporter align multiple
processes onto one timeline.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
import tracemalloc
from typing import Any, Dict, List, Optional

from repro.exceptions import ObsError
from repro.utils.timing import Stopwatch

from .sinks import RecordingSink

TRACE_SCHEMA = "repro-trace/v1"

_CURRENT: contextvars.ContextVar[Optional["Span"]] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)

# The process-global active tracer.  ``None`` means tracing is disabled
# and trace_span() returns the shared no-op span.
_ACTIVE: Optional["Tracer"] = None


class _NoOpSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoOpSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def add(self, counter: str, value: int = 1) -> "_NoOpSpan":
        return self

    def set(self, key: str, value: Any) -> "_NoOpSpan":
        return self

    @property
    def recording(self) -> bool:
        return False


NO_OP_SPAN = _NoOpSpan()


class Span:
    """One timed, named block of work.

    Created by :meth:`Tracer.span` (usually via :func:`trace_span`) and
    used as a context manager.  Nesting is tracked per-execution-context
    so spans opened on worker threads or in callbacks attach to the
    right parent.
    """

    __slots__ = (
        "name",
        "attrs",
        "counters",
        "seq",
        "parent_seq",
        "depth",
        "duration",
        "mem_peak_kb",
        "_tracer",
        "_watch",
        "_memory",
        "_token",
        "_tid",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        memory: bool = False,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.counters: Dict[str, int] = {}
        self.seq = -1
        self.parent_seq: Optional[int] = None
        self.depth = 0
        self.duration = 0.0
        self.mem_peak_kb: Optional[float] = None
        self._tracer = tracer
        self._watch = Stopwatch()
        self._memory = memory and tracer.memory
        self._token: Optional[contextvars.Token] = None
        self._tid = 0

    @property
    def recording(self) -> bool:
        return True

    def add(self, counter: str, value: int = 1) -> "Span":
        """Accumulate an integer counter on this span."""
        self.counters[counter] = self.counters.get(counter, 0) + value
        return self

    def set(self, key: str, value: Any) -> "Span":
        """Set (or overwrite) an attribute on this span."""
        self.attrs[key] = value
        return self

    def __enter__(self) -> "Span":
        parent = _CURRENT.get()
        if parent is not None:
            self.parent_seq = parent.seq
            self.depth = parent.depth + 1
        self.seq = self._tracer._next_seq()
        self._tid = threading.get_ident()
        self._token = _CURRENT.set(self)
        if self._memory:
            # Peak is a process-global high-water mark: resetting here
            # means nested memory spans each see the peak since their
            # own entry (an outer span's recorded peak can therefore be
            # clipped by an inner reset; marked spans are expected to be
            # coarse, non-overlapping probes).
            tracemalloc.reset_peak()
        self._watch.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._watch.__exit__(exc_type, exc, tb)
        self.duration = self._watch.elapsed
        if self._memory:
            self.mem_peak_kb = tracemalloc.get_traced_memory()[1] / 1024.0
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._tracer._emit_span(self)
        return False


class Tracer:
    """Collects spans for one process and forwards them to a sink.

    Parameters
    ----------
    sink:
        Where records go; defaults to an in-memory
        :class:`~repro.obs.sinks.RecordingSink`.
    role:
        Free-form process label (``"main"``, ``"worker"``) recorded in
        the process meta record and shown by the Chrome exporter.
    memory:
        When true, spans opened with ``memory=True`` sample
        :mod:`tracemalloc` peak memory.  Tracemalloc is started if it is
        not already running (and stopped again on :meth:`close` if this
        tracer started it).
    """

    def __init__(self, sink=None, role: str = "main", memory: bool = False) -> None:
        self.sink = sink if sink is not None else RecordingSink()
        self.role = role
        self.memory = memory
        self.pid = os.getpid()
        self.epoch_perf = time.perf_counter()
        self.epoch_wall = time.time()
        self._seq = 0
        self._lock = threading.Lock()
        self._started_tracemalloc = False
        if memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True
        self.sink.emit(
            {
                "schema": TRACE_SCHEMA,
                "kind": "process",
                "pid": self.pid,
                "role": role,
                "epoch": self.epoch_wall,
            }
        )

    def span(self, name: str, memory: bool = False, **attrs: Any) -> Span:
        return Span(self, name, memory=memory, attrs=attrs)

    def current(self) -> Optional[Span]:
        """The innermost open span in this execution context, if any."""
        return _CURRENT.get()

    def _next_seq(self) -> int:
        with self._lock:
            seq = self._seq
            self._seq += 1
            return seq

    def _emit_span(self, span: Span) -> None:
        record: Dict[str, Any] = {
            "schema": TRACE_SCHEMA,
            "kind": "span",
            "name": span.name,
            "pid": self.pid,
            "tid": span._tid,
            "seq": span.seq,
            "parent": span.parent_seq,
            "depth": span.depth,
            "t0": round(span._watch.started_at - self.epoch_perf, 9),
            "dur": round(span.duration, 9),
        }
        if span.attrs:
            record["attrs"] = span.attrs
        if span.counters:
            record["counters"] = span.counters
        if span.mem_peak_kb is not None:
            record["mem_peak_kb"] = round(span.mem_peak_kb, 3)
        with self._lock:
            self.sink.emit(record)

    def adopt(self, record: Dict[str, Any]) -> None:
        """Forward a record produced by another process to this sink.

        Used by the sweep runner to merge per-worker trace part files
        into the parent's trace.
        """
        with self._lock:
            self.sink.emit(record)

    @property
    def records(self) -> List[Dict[str, Any]]:
        """Recorded records, for in-memory sinks (raises otherwise)."""
        records = getattr(self.sink, "records", None)
        if records is None:
            raise ObsError("the tracer's sink does not keep records in memory")
        return records

    def close(self) -> None:
        if self._started_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
            self._started_tracemalloc = False
        self.sink.close()


def active_tracer() -> Optional[Tracer]:
    """The installed process-global tracer, or ``None`` when disabled."""
    return _ACTIVE


def tracing_enabled() -> bool:
    return _ACTIVE is not None


def install_tracer(tracer: Tracer) -> Tracer:
    """Make ``tracer`` the process-global tracer.

    Exactly one tracer may be installed at a time; installing over an
    existing one raises :class:`~repro.exceptions.ObsError` (uninstall
    first).  Returns the tracer for one-line install-and-keep usage.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise ObsError(
            "a process-global tracer is already installed; call uninstall_tracer() first"
        )
    _ACTIVE = tracer
    return tracer


def uninstall_tracer() -> Optional[Tracer]:
    """Remove and return the process-global tracer (``None`` if absent)."""
    global _ACTIVE
    tracer = _ACTIVE
    _ACTIVE = None
    return tracer


def trace_span(name: str, memory: bool = False, **attrs: Any):
    """Open a span on the process-global tracer (no-op when disabled).

    This is the one function instrumentation sites call::

        with trace_span("linalg.rebase", failed=len(event.failed_edges)) as span:
            ...
            span.add("nnz", len(rows))

    Keyword attributes are evaluated by the *caller* even when tracing
    is disabled, so call sites must only pass O(1)-cheap values.
    """
    tracer = _ACTIVE
    if tracer is None:
        return NO_OP_SPAN
    return tracer.span(name, memory=memory, **attrs)


def add_counter(counter: str, value: int = 1) -> None:
    """Accumulate a counter on the innermost open span, if tracing."""
    tracer = _ACTIVE
    if tracer is not None:
        span = _CURRENT.get()
        if span is not None:
            span.add(counter, value)


__all__ = [
    "TRACE_SCHEMA",
    "NO_OP_SPAN",
    "Span",
    "Tracer",
    "active_tracer",
    "add_counter",
    "install_tracer",
    "trace_span",
    "tracing_enabled",
    "uninstall_tracer",
]
