"""The :class:`Router` protocol and its :class:`RouteResult` outcome.

Every routing scheme in the repository — semi-oblivious sampling,
fixed-ratio oblivious routings, adaptive k-shortest-paths, the
per-demand optimal MCF — shares one operational shape (Section 1.1 /
[KYY+18]): *install* a candidate path system once (the slow, offline
step that updates forwarding state), then *route* each revealed demand
by re-optimizing only the sending rates.  The :class:`Router` protocol
captures exactly that shape so that the engine's TE loop, the CLI, the
experiments and the benchmarks can treat all schemes uniformly::

    router = build_router("semi-oblivious(racke, alpha=4)", network, rng=0)
    router.install()                   # offline: materialize paths
    result = router.route(demand)      # online: adapt rates
    print(result.congestion, result.ratio)

Concrete implementations live in :mod:`repro.engine.adapters`; they are
normally constructed through the scheme registry
(:mod:`repro.engine.registry`) rather than by hand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional, Protocol, Tuple, runtime_checkable

from repro.core.routing import Routing
from repro.demands.demand import Demand
from repro.exceptions import SolverError
from repro.graphs.network import Vertex

Pair = Tuple[Vertex, Vertex]

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
class RouteResult:
    """Outcome of routing one demand through one scheme.

    Attributes
    ----------
    scheme:
        Label of the scheme that produced the result.
    congestion:
        Maximum link utilization achieved by the scheme.
    optimal_congestion:
        The per-demand MCF optimum, when known (filled in by
        :class:`~repro.engine.engine.RoutingEngine`, which solves it at
        most once per snapshot and shares it across schemes).
    routing:
        The realizing fractional routing, when the scheme exposes one.
    method:
        How the congestion was obtained, informational: ``"lp"`` (path-LP
        rate adaptation), ``"fixed"`` (fixed split ratios), ``"mcf"``
        (the optimal multicommodity flow) or a wrapper's own tag.
    extra:
        Free-form scheme-specific metadata (e.g. sparsity).
    """

    scheme: str
    congestion: float
    optimal_congestion: Optional[float] = None
    routing: Optional[Routing] = None
    method: Optional[str] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def ratio(self) -> float:
        """Utilization ratio vs the optimum (>= 1; NaN when unknown)."""
        return congestion_ratio(self.congestion, self.optimal_congestion)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable summary (the routing itself is not embedded)."""
        payload: Dict[str, Any] = {
            "scheme": self.scheme,
            "congestion": self.congestion,
            "optimal_congestion": self.optimal_congestion,
            "ratio": None if self.optimal_congestion is None else self.ratio,
            "method": self.method,
        }
        if self.extra:
            payload["extra"] = dict(self.extra)
        return payload


@runtime_checkable
class Router(Protocol):
    """Structural interface every routing scheme implements.

    Anything with a ``name``, an ``install()`` and a
    ``route(demand) -> RouteResult`` is a router — user code can
    register plain classes with the scheme registry without inheriting
    from the package's base classes.
    """

    name: str

    def install(self, pairs: Optional[Iterable[Pair]] = None) -> None:
        """Materialize candidate paths (the slow, offline step)."""
        ...

    def route(self, demand: Demand) -> RouteResult:
        """Route one revealed demand over the installed paths."""
        ...


__all__ = ["Router", "RouteResult", "congestion_ratio", "Pair"]
