"""repro.linalg — compiled sparse linear-algebra evaluation backend.

Turns a :class:`~repro.core.routing.Routing` into immutable index arrays
plus one CSR pair × edge operator ``M`` (the pair × path distribution
times the path × edge incidence), so that edge loads for a whole demand
matrix become one sparse matmul ``batch @ M`` and congestion / dilation
/ utilization metrics become vectorized reductions.  Exposed to the rest of the package as pluggable evaluator
backends (``dict`` reference loops vs compiled ``sparse``)::

    from repro.linalg import build_evaluator

    evaluator = build_evaluator(routing, backend="sparse")
    evaluator.congestion(demand)          # one demand
    evaluator.congestions(demands)        # whole batch, one matmul
    evaluator.rebased(event)              # post-failure, no recompile

No layer above this package takes a backend option; one rule picks the
evaluator by how a routing is used.  A routing installed once and
evaluated for many demands (fixed-ratio schemes, sweeps, streams, ODME,
ECMP realization) compiles through ``routing.evaluator("auto")`` —
scipy CSR.  A routing evaluated once (``Routing.congestion``, the
single-demand ``te.metrics``) keeps the ``dict`` memo, which is also the
test oracle.  Only
``Routing.evaluator(backend)`` and :func:`build_evaluator` name a
backend.  The ``linalg`` target of the :mod:`repro.bench` harness
(:mod:`repro.linalg.bench`, imported on demand, never here) measures the
``dict`` oracle against the compiled backend.
"""

from repro.linalg.compiled import CompiledRouting
from repro.linalg.evaluator import (
    BACKENDS,
    BACKEND_CHOICES,
    DictEvaluator,
    Evaluator,
    SparseEvaluator,
    available_backends,
    build_evaluator,
)

__all__ = [
    "BACKENDS",
    "BACKEND_CHOICES",
    "CompiledRouting",
    "Evaluator",
    "DictEvaluator",
    "SparseEvaluator",
    "available_backends",
    "build_evaluator",
]
