"""Core contribution: sparse semi-oblivious routing by sampling few paths.

The public entry points are:

* :class:`~repro.core.path_system.PathSystem` — a set of candidate paths
  per vertex pair (Definition 2.1),
* :class:`~repro.core.routing.Routing` — a distribution over paths per
  pair with congestion/dilation accounting (Section 4),
* :func:`~repro.core.sampling.alpha_sample` and
  :func:`~repro.core.sampling.alpha_plus_cut_sample` — Definition 5.2,
* :func:`~repro.core.rate_adaptation.optimal_rates` — Stage 4 rate
  adaptation on an installed path system,
* :func:`~repro.core.rounding.randomized_rounding` — Lemma 6.3,
* :func:`~repro.core.competitive.competitive_ratio` — Stage 5 evaluation,
* :mod:`~repro.core.completion_time` — the Section 7 extension.
"""

from repro.core.path_system import PathSystem
from repro.core.routing import Routing
from repro.core.sampling import alpha_sample, alpha_plus_cut_sample, deterministic_top_paths
from repro.core.rate_adaptation import optimal_rates
from repro.core.rounding import randomized_rounding, rounding_bound
from repro.core.integral_routing import integral_congestion, IntegralRoutingResult
from repro.core.weak_routing import WeakRoutingProcess, WeakRoutingOutcome
from repro.core.competitive import (
    competitive_ratio,
    CompetitiveReport,
    evaluate_path_system,
)
from repro.core.completion_time import (
    completion_time,
    completion_time_competitive_ratio,
    MultiScaleHopSample,
)

__all__ = [
    "PathSystem",
    "Routing",
    "alpha_sample",
    "alpha_plus_cut_sample",
    "deterministic_top_paths",
    "optimal_rates",
    "randomized_rounding",
    "rounding_bound",
    "integral_congestion",
    "IntegralRoutingResult",
    "WeakRoutingProcess",
    "WeakRoutingOutcome",
    "competitive_ratio",
    "CompetitiveReport",
    "evaluate_path_system",
    "completion_time",
    "completion_time_competitive_ratio",
    "MultiScaleHopSample",
]
