"""Telemetry & demand estimation: closed-loop ODME from observed link loads.

Everything below the scenario layer works from the *true* demand matrix;
real controllers only ever see link-load telemetry.  This package closes
that gap with three pieces:

* :class:`ObservationModel` — turn any compiled routing plus a demand
  into the per-link measurements a counter infrastructure would report,
  with configurable noise, sensor coverage, and granularity
  (per-ingress NetFlow-style rows or aggregate SNMP-style totals).
* :func:`estimate_demand` — origin–destination matrix estimation (ODME)
  by inverting the compiled pair × edge operator: non-negative least
  squares (``scipy.optimize.nnls``) or
  entropy projection via IPF on the inferred node marginals, optionally
  warm-started from the gravity prior (:func:`gravity_prior`).
* :func:`run_odme_loop` — the closed loop (route truth → observe →
  estimate → re-route on the estimate → score on the truth) behind
  ``repro net odme`` and :meth:`repro.engine.RoutingEngine.run_odme`;
  :class:`WindowedOdmeEstimator` runs the same estimation online from a
  :class:`~repro.stream.RollingStreamStats` load window.

Importing :mod:`repro.telemetry.scenario_axes` registers the
``estimated(...)`` demand kind, pulled in lazily by the scenario spec
layer; :mod:`repro.telemetry.bench` is the ``odme`` target of the
:mod:`repro.bench` harness, imported by name on use.
"""

from repro.telemetry.observation import (
    GRANULARITIES,
    LinkLoadObservation,
    ObservationModel,
)
from repro.telemetry.odme import (
    METHODS,
    OdmeEstimate,
    estimate_demand,
    gravity_prior,
)
from repro.telemetry.pipeline import OdmeLoopResult, run_odme_loop
from repro.telemetry.windowed import (
    WindowedOdmeEstimator,
    estimate_from_stats,
    observation_from_loads,
)

__all__ = [
    "GRANULARITIES",
    "METHODS",
    "LinkLoadObservation",
    "ObservationModel",
    "OdmeEstimate",
    "OdmeLoopResult",
    "WindowedOdmeEstimator",
    "estimate_demand",
    "estimate_from_stats",
    "gravity_prior",
    "observation_from_loads",
    "run_odme_loop",
]
