"""repro.linalg — compiled sparse linear-algebra evaluation.

Turns a :class:`~repro.core.routing.Routing` into immutable index arrays
plus one CSR pair × edge operator ``M`` (the pair × path distribution
times the path × edge incidence), so that edge loads for a whole demand
matrix become one sparse matmul ``batch @ M`` and congestion / dilation
/ utilization metrics become vectorized reductions.  The compiled form,
:class:`CompiledRouting`, is the evaluator::

    evaluator = routing.evaluator("auto")  # the cached CompiledRouting
    evaluator.congestion(demand)           # one demand
    evaluator.congestions(demands)         # whole batch, one matmul
    evaluator.rebased(event)               # post-failure, no recompile

No layer above this package takes an evaluator option; one rule picks
the form by how a routing is used.  A routing installed once and
evaluated for many demands (fixed-ratio schemes, sweeps, streams, ODME,
ECMP realization) compiles through ``routing.evaluator("auto")``.  A
routing evaluated once (``Routing.congestion``, the single-demand
``te.metrics``) keeps ``routing.evaluator("dict")``, the
:class:`DictEvaluator` memo, which is also the test oracle.  The
``linalg`` target of the :mod:`repro.bench` harness
(:mod:`repro.linalg.bench`, imported on demand, never here) measures the
``dict`` oracle against the compiled form.
"""

from repro.linalg.compiled import CompiledRouting
from repro.linalg.evaluator import DictEvaluator

__all__ = ["CompiledRouting", "DictEvaluator"]
