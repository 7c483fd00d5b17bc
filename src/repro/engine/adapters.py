"""Concrete :class:`~repro.engine.router.Router` adapters.

Each adapter wraps one of the repository's existing constructions behind
the uniform install/route shape:

* :class:`AdaptivePathRouter` — the full support of any builder as the
  candidate set with adaptive rates (the classical k-shortest-paths TE
  baseline when wrapping :class:`KShortestPathRouting`),
* :class:`SemiObliviousRouter` — the paper's scheme: α-sample (or
  (α + cut)-sample) a competitive oblivious routing once, then adapt
  rates per demand (Definition 5.2 + Section 2.1 stage 4); it differs
  from :class:`AdaptivePathRouter` only in what it installs,
* :class:`FixedRatioRouter` — a materialized oblivious routing with
  *fixed* splitting ratios, no adaptation (covers Räcke, Valiant,
  electrical, shortest-path and hop-constrained sources),
* :class:`OptimalRouter` — the per-demand optimal MCF (ratio 1 by
  definition; the normalizer every other scheme is measured against).

Contracts
---------

**Determinism.**  All randomness is consumed from the ``rng`` handed to
the constructor (via :func:`repro.utils.rng.ensure_rng`), during
``install()`` only — ``route()`` never draws random bits.  Two routers
constructed with identically seeded generators therefore install
identical candidate paths and produce identical results forever after;
this is the property the engine's scheme-insertion-order seeding and
the scenario sweeps' bit-identical artifacts are built on.  The
sampling-free adapters (:class:`FixedRatioRouter` over deterministic
sources, :class:`OptimalRouter`) ignore ``rng`` entirely.

**Units.**  ``RouteResult.congestion`` is always a capacity-normalized
*utilization*: maximum over edges of load divided by edge capacity, so
1.0 means the busiest link runs exactly at capacity and values are
comparable across topologies with heterogeneous capacities.
``RouteResult.ratio`` divides that utilization by the same demand's
optimal-MCF utilization (>= 1 up to solver tolerance; NaN when the
optimum is unknown).

**Install-once.**  ``install()`` is the only slow step and the only
state change; calling it again re-materializes paths for the new pair
set.  The semi-oblivious router also solves its path system's
reference basis there (:func:`~repro.mcf.path_lp.warm_start`), so its
online re-solves start from it.
``route()`` must be preceded by ``install()`` and raises
:class:`~repro.exceptions.SolverError` otherwise.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.core.path_system import PathSystem
from repro.core.rate_adaptation import optimal_rates
from repro.core.routing import Routing
from repro.core.sampling import alpha_plus_cut_sample, alpha_sample, support_system
from repro.demands.demand import Demand
from repro.exceptions import RoutingError, SolverError
from repro.graphs.cuts import CutCache
from repro.graphs.network import Network
from repro.mcf.path_lp import warm_start
from repro.oblivious.base import ObliviousRoutingBuilder
from repro.utils.rng import RngLike, ensure_rng

from repro.engine.router import Pair, RouteResult


class BaseRouter(abc.ABC):
    """Shared install-once bookkeeping for the bundled adapters."""

    def __init__(self, network: Network, name: str) -> None:
        self._network = network
        self.name = name
        self._installed = False

    @property
    def network(self) -> Network:
        return self._network

    @property
    def installed(self) -> bool:
        return self._installed

    def install(self, pairs: Optional[Iterable[Pair]] = None) -> None:
        if pairs is None:
            pairs = list(self._network.vertex_pairs(ordered=True))
        else:
            pairs = list(pairs)
        self._install(pairs)
        self._installed = True

    def route(self, demand: Demand) -> RouteResult:
        if not self._installed:
            raise SolverError(f"router {self.name!r}: call install() before route()")
        return self._route(demand)

    @abc.abstractmethod
    def _install(self, pairs: List[Pair]) -> None:
        """Materialize candidate paths for ``pairs``."""

    @abc.abstractmethod
    def _route(self, demand: Demand) -> RouteResult:
        """Route ``demand`` over the installed paths."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, installed={self._installed})"


def _check_source(network: Network, source: ObliviousRoutingBuilder) -> ObliviousRoutingBuilder:
    """``source`` when it routes on ``network``'s vertices; :class:`RoutingError` otherwise."""
    if source.network is not network and set(source.network.vertices) != set(network.vertices):
        raise RoutingError("oblivious routing and network do not match")
    return source


class AdaptivePathRouter(BaseRouter):
    """Adaptive rates over an installed candidate path system.

    The system is the full support of a path-distribution builder;
    wrapping :class:`~repro.oblivious.shortest_path.KShortestPathRouting`
    yields the classical adaptive k-shortest-paths TE baseline.  Each
    demand is routed by the path LP over the installed paths
    (:func:`~repro.core.rate_adaptation.optimal_rates`).
    """

    def __init__(
        self,
        network: Network,
        builder: ObliviousRoutingBuilder,
        name: str = "adaptive",
    ) -> None:
        super().__init__(network, name)
        self._builder = _check_source(network, builder)
        self._system: Optional[PathSystem] = None
        self._extra: Dict[str, Any] = {}

    @property
    def builder(self) -> ObliviousRoutingBuilder:
        return self._builder

    @property
    def system(self) -> PathSystem:
        if self._system is None:
            raise SolverError(f"router {self.name!r}: call install() before reading the system")
        return self._system

    def _install(self, pairs: List[Pair]) -> None:
        self._system = support_system(self._builder, pairs=pairs)

    def _route(self, demand: Demand) -> RouteResult:
        adaptation = optimal_rates(self._system, demand)
        return RouteResult.deferred(
            lambda: adaptation.routing,
            scheme=self.name,
            congestion=adaptation.congestion,
            method="lp",
            extra=dict(self._extra),
        )


class SemiObliviousRouter(AdaptivePathRouter):
    """The paper's scheme: sample few paths once, adapt rates per demand.

    Only the install differs from :class:`AdaptivePathRouter`: the
    candidate paths are an α-sample of the oblivious routing, and the
    system's reference basis is solved for the online re-solves.

    Parameters
    ----------
    network:
        The topology.
    oblivious:
        Builder for the oblivious routing to sample from.
    alpha:
        Samples per pair (α); SMORE uses 4.
    cut:
        When True, draw ``alpha + cut_G(s, t)`` samples per pair (the
        (α + cut)-sample of Definition 5.2, needed for arbitrary
        demands).
    cut_cache:
        Shared min-cut oracle (the engine passes one cache for all
        schemes; a private one is created otherwise).
    rng:
        Randomness for the sampling step.
    """

    def __init__(
        self,
        network: Network,
        oblivious: ObliviousRoutingBuilder,
        alpha: int = 4,
        cut: bool = False,
        cut_cache: Optional[CutCache] = None,
        rng: RngLike = None,
        name: str = "semi-oblivious",
    ) -> None:
        super().__init__(network, oblivious, name)
        self._alpha = alpha
        self._cut = cut
        self._cut_cache = cut_cache
        self._rng = ensure_rng(rng)

    @property
    def alpha(self) -> int:
        return self._alpha

    @property
    def oblivious(self) -> ObliviousRoutingBuilder:
        return self._builder

    def _install(self, pairs: List[Pair]) -> None:
        if self._cut:
            oracle = self._cut_cache if self._cut_cache is not None else CutCache(self._network)
            self._system = alpha_plus_cut_sample(
                self._builder, self._alpha, cut_oracle=oracle, pairs=pairs, rng=self._rng
            )
        else:
            self._system = alpha_sample(self._builder, self._alpha, pairs=pairs, rng=self._rng)
        warm_start(self._system)
        self._extra = {"alpha": self._alpha, "sparsity": self._system.sparsity()}


class FixedRatioRouter(BaseRouter):
    """A materialized oblivious routing with fixed splitting ratios.

    No online adaptation: the congestion of a demand is read off the
    fixed path distributions.  Covers the plain-oblivious and
    single-shortest-path TE baselines.  The routing is installed once
    and evaluated for every demand, so :meth:`install` also compiles it
    (``routing.evaluator("auto")``, cached on the routing and pickled
    with it) and every route reads the compiled operator.
    """

    def __init__(
        self,
        network: Network,
        builder: ObliviousRoutingBuilder,
        name: str = "oblivious",
    ) -> None:
        super().__init__(network, name)
        self._builder = _check_source(network, builder)
        self._routing: Optional[Routing] = None

    @property
    def builder(self) -> ObliviousRoutingBuilder:
        return self._builder

    @property
    def routing(self) -> Routing:
        if self._routing is None:
            raise SolverError(f"router {self.name!r}: call install() before reading the routing")
        return self._routing

    def _install(self, pairs: List[Pair]) -> None:
        self._routing = self._builder.routing(pairs=pairs)
        self._routing.evaluator("auto")

    def _route(self, demand: Demand) -> RouteResult:
        try:
            congestion = self._routing.evaluator("auto").congestion(demand)
        except RoutingError as error:  # a demanded pair the install did not cover
            raise RoutingError(f"router {self.name!r}: {error}") from None
        return RouteResult(
            scheme=self.name, congestion=congestion, routing=self._routing, method="fixed"
        )


class OptimalRouter(BaseRouter):
    """The per-demand optimal MCF (the normalizer; ratio 1 by definition).

    ``solver`` returns a demand's optimum; the engine passes its shared
    memoizing solver, so the LP runs at most once per snapshot even when
    the optimum is also needed to normalize other schemes.
    """

    def __init__(
        self,
        network: Network,
        solver: Callable[[Demand], float],
        name: str = "optimal",
    ) -> None:
        super().__init__(network, name)
        self._solver = solver

    def _install(self, pairs: List[Pair]) -> None:
        pass  # nothing to install: the MCF uses every edge of the network

    def _route(self, demand: Demand) -> RouteResult:
        congestion = self._solver(demand)
        return RouteResult(
            scheme=self.name,
            congestion=congestion,
            optimal_congestion=congestion,
            method="mcf",
        )


__all__ = [
    "BaseRouter",
    "SemiObliviousRouter",
    "AdaptivePathRouter",
    "FixedRatioRouter",
    "OptimalRouter",
]
