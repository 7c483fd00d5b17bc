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

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional, Protocol, Tuple, runtime_checkable

from repro.core.competitive import congestion_ratio
from repro.core.routing import Routing
from repro.demands.demand import Demand
from repro.graphs.network import Vertex

Pair = Tuple[Vertex, Vertex]

@dataclass(init=False)
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
        A result made by :meth:`deferred` builds it on first read.
    method:
        How the congestion was obtained, informational: ``"lp"`` (path-LP
        rate adaptation), ``"fixed"`` (fixed split ratios), ``"mcf"``
        (the optimal multicommodity flow) or a wrapper's own tag.
    extra:
        Free-form scheme-specific metadata (e.g. sparsity).
    """

    scheme: str
    congestion: float
    optimal_congestion: Optional[float]
    method: Optional[str]
    extra: Dict[str, Any]

    def __init__(
        self,
        scheme: str,
        congestion: float,
        optimal_congestion: Optional[float] = None,
        routing: Optional[Routing] = None,
        method: Optional[str] = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.scheme = scheme
        self.congestion = congestion
        self.optimal_congestion = optimal_congestion
        self.routing = routing
        self.method = method
        self.extra = {} if extra is None else extra

    @classmethod
    def deferred(cls, routing: Callable[[], Optional[Routing]], **fields: Any) -> "RouteResult":
        """A result whose ``routing`` is ``routing()``, called on its first read.

        For schemes whose routing costs more to build than the congestion
        (the path LP's per-pair distributions): a caller that reads only
        the congestion never pays for it.
        """
        result = cls(**fields)
        result._pending = routing
        return result

    @property
    def routing(self) -> Optional[Routing]:
        if self._pending is not None:
            self._routing, self._pending = self._pending(), None
        return self._routing

    @routing.setter
    def routing(self, routing: Optional[Routing]) -> None:
        self._routing, self._pending = routing, None

    def __getstate__(self) -> Dict[str, Any]:
        # The pending builder need not pickle: build the routing first.
        state = dict(self.__dict__)
        state["_routing"], state["_pending"] = self.routing, None
        return state

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
