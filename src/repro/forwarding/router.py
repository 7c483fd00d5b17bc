"""The ``realized(...)`` scheme adapter: ECMP realization of any scheme.

``RealizedRouter`` wraps an inner router, quantizes whatever routing the
inner scheme materializes per demand, optionally hashes discrete flows
onto the quantized buckets, and reports the *realized* congestion.  The
wrapper follows the adapter contracts of :mod:`repro.engine.adapters`:
all randomness (the flow-placement seed) is consumed during
``install()``, so repeated ``route()`` calls are deterministic and
bit-identical across worker counts.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.demands.demand import Demand
from repro.engine.adapters import BaseRouter
from repro.engine.router import Pair, RouteResult, Router
from repro.exceptions import ForwardingError
from repro.graphs.network import Network

from repro.forwarding.quantize import ForwardingTable, quantize_routing
from repro.forwarding.realize import evaluate_realization


class RealizedRouter(BaseRouter):
    """ECMP-realized evaluation of an inner scheme.

    Parameters
    ----------
    network:
        The topology (must match the inner router's network).
    inner:
        The wrapped scheme, constructed but not yet installed.
    buckets:
        ECMP group size ``k``; split ratios become multiples of ``1/k``.
    flows:
        When set, additionally hash this many discrete flows per pair
        onto the buckets and report the flow-level congestion as the
        scheme's congestion; when None the quantized-expected congestion
        is reported.
    on_cycle:
        Cycle/blow-up policy of the quantizer.
    rng:
        Generator supplying the flow-placement seed at install time.
    """

    def __init__(
        self,
        network: Network,
        inner: Router,
        buckets: int = 8,
        flows: Optional[int] = None,
        on_cycle: str = "decompose",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if int(buckets) < 1:
            raise ForwardingError(
                f"buckets must be a positive integer, got {buckets!r}"
            )
        inner_name = getattr(inner, "name", type(inner).__name__)
        suffix = f", flows={int(flows)}" if flows is not None else ""
        super().__init__(network, f"realized[{inner_name}, k={int(buckets)}{suffix}]")
        self._inner = inner
        self.buckets = int(buckets)
        self.flows = None if flows is None else int(flows)
        self.on_cycle = on_cycle
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._flow_seed: int = 0
        #: (routing, buckets) -> table cache so fixed-ratio inners
        #: quantize once.  The routing object itself is retained:
        #: identity (``is``) is only a safe cache key while the object is
        #: alive, and adaptive inners build a fresh Routing per route().
        self._cache: Optional[tuple] = None

    @property
    def inner(self) -> Router:
        return self._inner

    def _install(self, pairs: List[Pair]) -> None:
        self._inner.install(pairs)
        if self.flows is not None:
            # The only random bits this wrapper ever consumes; route()
            # derives per-pair SeedSequence streams from this integer.
            self._flow_seed = int(self._rng.integers(0, 2**63))

    def _quantized(self, routing) -> ForwardingTable:
        if self._cache is not None:
            cached_routing, cached_buckets, cached_table = self._cache
            if cached_routing is routing and cached_buckets == self.buckets:
                return cached_table
        table = quantize_routing(
            routing, buckets=self.buckets, on_cycle=self.on_cycle
        )
        self._cache = (routing, self.buckets, table)
        return table

    def _route(self, demand: Demand) -> RouteResult:
        inner_result = self._inner.route(demand)
        routing = inner_result.routing
        if routing is None:
            raise ForwardingError(
                f"realized(...) needs an inner scheme that materializes a "
                f"routing; {self._inner.name!r} returned none"
            )
        table, result = evaluate_realization(
            routing,
            demand,
            buckets=self.buckets,
            flows=self.flows,
            seed=self._flow_seed,
            on_cycle=self.on_cycle,
            # Cached when the inner routing is unchanged (fixed-ratio
            # inners return the same object every route).
            table=self._quantized(routing),
        )
        congestion = (
            result.flow_congestion
            if result.flow_congestion is not None
            else result.quantized_congestion
        )
        return RouteResult(
            scheme=self.name,
            congestion=congestion,
            routing=table.routing(),
            method="ecmp",
            extra={
                "buckets": self.buckets,
                "flows": self.flows,
                "fractional_congestion": result.fractional_congestion,
                "gap": result.gap,
                "flow_gap": result.flow_gap,
                "rules": result.rules,
                "fallback_pairs": result.fallback_pairs,
            },
        )


__all__ = ["RealizedRouter"]
