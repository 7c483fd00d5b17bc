"""Competitive-ratio evaluation (Stage 5 of the semi-oblivious pipeline).

Given a path system (or an oblivious routing) and a demand, compare the
achieved congestion against the offline optimum ``opt_{G,R}(d)`` computed
by the exact MCF LP.  The helpers here power every experiment table.

:func:`congestion_ratio` is the one rule every reported ratio passes
through: the engine's :class:`~repro.engine.router.RouteResult`, the
sweeps, the streams, the failure reports and the experiment tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.path_system import PathSystem
from repro.core.rate_adaptation import optimal_rates
from repro.core.routing import Routing
from repro.demands.demand import Demand
from repro.exceptions import SolverError
from repro.graphs.network import Network
from repro.mcf.lp import min_congestion_lp

# How far below the optimum a routing's congestion may read (LP tolerance).
RATIO_TOLERANCE = 1e-7


def congestion_ratio(achieved: float, optimal: Optional[float]) -> float:
    """``achieved / optimal`` with the TE-loop edge-case conventions.

    A zero optimum means the demand is routable at no cost: the ratio is
    1 when the scheme also achieves (essentially) zero congestion and
    infinite otherwise.  ``None``/missing optimum yields NaN.

    Every routing of the full demand congests at least the fractional
    optimum, so a finite ``achieved < optimal * (1 - RATIO_TOLERANCE)``
    means the normalizer is wrong and raises :class:`SolverError`.
    """
    if optimal is None:
        return float("nan")
    if optimal > 0:
        if math.isfinite(achieved) and math.isfinite(optimal) and (
            achieved < optimal * (1.0 - RATIO_TOLERANCE)
        ):
            raise SolverError(
                f"competitive ratio below 1: achieved congestion {achieved!r} is under "
                f"the optimum {optimal!r}"
            )
        return achieved / optimal
    return 1.0 if achieved <= 0 else float("inf")


@dataclass
class CompetitiveReport:
    """Competitiveness of one scheme on one demand.

    Attributes
    ----------
    achieved_congestion:
        Congestion achieved by the evaluated scheme.
    optimal_congestion:
        Offline optimal congestion ``opt_{G,R}(d)``.
    ratio:
        ``achieved / optimal`` (``inf`` when the optimum is 0 but the
        achieved congestion is positive; 1 when both are 0).
    demand_size:
        ``siz(d)`` for context.
    scheme:
        Label of the evaluated scheme.
    """

    achieved_congestion: float
    optimal_congestion: float
    ratio: float
    demand_size: float
    scheme: str = ""


def competitive_ratio(
    achieved_congestion: float,
    network: Network,
    demand: Demand,
    optimal_congestion: Optional[float] = None,
) -> float:
    """Ratio of an achieved congestion to the offline optimum for ``demand``."""
    if optimal_congestion is None:
        optimal_congestion = min_congestion_lp(network, demand).congestion
    return congestion_ratio(achieved_congestion, optimal_congestion)


def evaluate_path_system(
    system: PathSystem,
    demand: Demand,
    scheme: str = "semi-oblivious",
    optimal_congestion: Optional[float] = None,
) -> CompetitiveReport:
    """Adapt rates on ``system`` for ``demand`` and compare to the offline optimum."""
    network = system.network
    if optimal_congestion is None:
        optimal_congestion = min_congestion_lp(network, demand).congestion
    adaptation = optimal_rates(system, demand)
    return CompetitiveReport(
        achieved_congestion=adaptation.congestion,
        optimal_congestion=optimal_congestion,
        ratio=congestion_ratio(adaptation.congestion, optimal_congestion),
        demand_size=demand.size(),
        scheme=scheme,
    )


def evaluate_oblivious_routing(
    routing: Routing,
    demand: Demand,
    scheme: str = "oblivious",
    optimal_congestion: Optional[float] = None,
) -> CompetitiveReport:
    """Evaluate an oblivious routing (no rate adaptation) against the optimum."""
    network = routing.network
    if optimal_congestion is None:
        optimal_congestion = min_congestion_lp(network, demand).congestion
    achieved = routing.congestion(demand)
    return CompetitiveReport(
        achieved_congestion=achieved,
        optimal_congestion=optimal_congestion,
        ratio=congestion_ratio(achieved, optimal_congestion),
        demand_size=demand.size(),
        scheme=scheme,
    )


@dataclass
class WorstCaseReport:
    """Worst observed competitive ratio over a demand collection."""

    worst_ratio: float
    mean_ratio: float
    reports: List[CompetitiveReport] = field(default_factory=list)

    @property
    def num_demands(self) -> int:
        return len(self.reports)


def worst_case_over_demands(
    system: PathSystem,
    demands: Sequence[Demand],
    scheme: str = "semi-oblivious",
) -> WorstCaseReport:
    """Evaluate ``system`` over many demands and aggregate the ratios."""
    if not demands:
        raise SolverError("need at least one demand to evaluate")
    reports = [evaluate_path_system(system, demand, scheme=scheme) for demand in demands]
    finite = [report.ratio for report in reports if report.ratio != float("inf")]
    worst = max((report.ratio for report in reports), default=float("inf"))
    mean = sum(finite) / len(finite) if finite else float("inf")
    return WorstCaseReport(worst_ratio=worst, mean_ratio=mean, reports=reports)


__all__ = [
    "RATIO_TOLERANCE",
    "congestion_ratio",
    "CompetitiveReport",
    "WorstCaseReport",
    "competitive_ratio",
    "evaluate_path_system",
    "evaluate_oblivious_routing",
    "worst_case_over_demands",
]
