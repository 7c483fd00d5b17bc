"""Completion-time (congestion + dilation) semi-oblivious routing (Section 7).

The completion-time objective is ``cong(R, d) + dil(R, d)``: by the
classic packet-scheduling reductions, the time until the last packet
arrives is Θ(congestion + dilation).  Optimizing congestion alone can be
arbitrarily bad for completion time, so Section 7 samples from
*hop-constrained* oblivious routings at geometrically growing hop scales
``h_1 = 1, h_{i+1} = ceil(h_i * log n)`` and takes the union of the
per-scale samples as the candidate system.

This module provides:

* :func:`completion_time` — the objective itself,
* :class:`MultiScaleHopSample` — the Lemma 2.8/2.9 construction
  (one α-sample per hop scale, unioned),
* :func:`best_completion_time_on_system` — adaptive rate + scale
  selection on a candidate system for a revealed demand,
* :func:`completion_time_competitive_ratio` — comparison against a
  baseline routing (the paper compares against any routing R; we use the
  congestion-optimal MCF routing and the best hop-restricted LP optimum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.path_system import PathSystem
from repro.core.rate_adaptation import optimal_rates
from repro.core.routing import Routing
from repro.core.sampling import alpha_sample
from repro.demands.demand import Demand
from repro.exceptions import InfeasibleError, RoutingError
from repro.graphs.network import Network, Path, Vertex
from repro.mcf.lp import min_congestion_lp
from repro.oblivious.hop_constrained import HopConstrainedRouting
from repro.utils.rng import RngLike, ensure_rng


def completion_time(congestion: float, dilation: float) -> float:
    """The completion-time objective ``congestion + dilation``."""
    return congestion + dilation


def routing_completion_time(routing: Routing, demand: Demand) -> float:
    """``cong(R, d) + dil(R, d)`` for a concrete routing."""
    return completion_time(routing.congestion(demand), routing.dilation(demand))


def hop_scales(network: Network, base: Optional[float] = None) -> List[int]:
    """The geometric hop scales ``h_1 = 1, h_{i+1} = ceil(h_i * base)`` up to the diameter.

    ``base`` defaults to ``log2 n`` as in Lemma 2.8.
    """
    n = max(network.num_vertices, 4)
    if base is None:
        base = max(math.log2(n), 2.0)
    diameter = network.diameter()
    scales = [1]
    while scales[-1] < diameter:
        nxt = int(math.ceil(scales[-1] * base))
        if nxt <= scales[-1]:
            nxt = scales[-1] + 1
        scales.append(nxt)
    return scales


@dataclass
class MultiScaleHopSample:
    """The Section 7 candidate system: a union of per-hop-scale α-samples.

    Attributes
    ----------
    system:
        The unioned candidate path system.
    per_scale_systems:
        The individual per-scale systems (useful for scale-restricted
        rate adaptation).
    scales:
        The hop scales used.
    alpha:
        Per-scale sampling parameter.
    """

    system: PathSystem
    per_scale_systems: Dict[int, PathSystem]
    scales: List[int]
    alpha: int

    @classmethod
    def build(
        cls,
        network: Network,
        alpha: int,
        pairs: Optional[Sequence[Tuple[Vertex, Vertex]]] = None,
        scales: Optional[Sequence[int]] = None,
        hop_stretch: float = 2.0,
        rng: RngLike = None,
    ) -> "MultiScaleHopSample":
        """Build the multi-scale sample (Lemma 2.8 construction).

        For each hop scale ``h`` a hop-constrained oblivious routing is
        built and α paths per pair are sampled from it; pairs whose
        distance exceeds the scale's hop limit are simply skipped at that
        scale (they are covered by larger scales).
        """
        if alpha < 1:
            raise RoutingError("alpha must be at least 1")
        generator = ensure_rng(rng)
        if scales is None:
            scales = hop_scales(network)
        if pairs is None:
            pairs = list(network.vertex_pairs(ordered=True))
        buckets: Dict[Tuple[Vertex, Vertex], List[Path]] = {}
        per_scale: Dict[int, PathSystem] = {}
        for scale in scales:
            builder = HopConstrainedRouting(
                network, hop_bound=scale, hop_stretch=hop_stretch, rng=generator
            )
            reachable_pairs = []
            for source, target in pairs:
                if network.distance(source, target) <= builder.hop_limit:
                    reachable_pairs.append((source, target))
            if not reachable_pairs:
                per_scale[scale] = PathSystem(network)
                continue
            sampled = alpha_sample(builder, alpha, pairs=reachable_pairs, rng=generator)
            per_scale[scale] = sampled
            for pair, paths in sampled.items():
                buckets.setdefault(pair, []).extend(paths)
        return cls(
            system=PathSystem(network, buckets), per_scale_systems=per_scale,
            scales=list(scales), alpha=alpha,
        )

    def sparsity(self) -> int:
        return self.system.sparsity()


@dataclass
class CompletionTimeResult:
    """Best completion time achievable on a candidate system for one demand."""

    completion_time: float
    congestion: float
    dilation: float
    routing: Optional[Routing]
    scale: Optional[int] = None


def best_completion_time_on_system(
    sample: "MultiScaleHopSample | PathSystem",
    demand: Demand,
) -> CompletionTimeResult:
    """Pick the hop scale (if any) and rates minimizing congestion + dilation.

    For a :class:`MultiScaleHopSample` each scale is tried separately
    (paths at a small scale guarantee small dilation) and the best total
    is returned; for a plain :class:`PathSystem` rates are optimized once
    on the full system.
    """
    if isinstance(sample, MultiScaleHopSample):
        best: Optional[CompletionTimeResult] = None
        for scale, system in sample.per_scale_systems.items():
            if not system.covers(demand.pairs()):
                continue
            adaptation = optimal_rates(system, demand)
            if adaptation.routing is None:
                continue
            dilation = adaptation.routing.dilation(demand)
            total = completion_time(adaptation.congestion, dilation)
            if best is None or total < best.completion_time:
                best = CompletionTimeResult(
                    completion_time=total,
                    congestion=adaptation.congestion,
                    dilation=dilation,
                    routing=adaptation.routing,
                    scale=scale,
                )
        if best is None:
            # Fall back to the union system.
            return best_completion_time_on_system(sample.system, demand)
        return best

    system = sample
    adaptation = optimal_rates(system, demand)
    dilation = adaptation.routing.dilation(demand) if adaptation.routing else 0
    return CompletionTimeResult(
        completion_time=completion_time(adaptation.congestion, dilation),
        congestion=adaptation.congestion,
        dilation=dilation,
        routing=adaptation.routing,
        scale=None,
    )


def completion_time_competitive_ratio(
    sample: "MultiScaleHopSample | PathSystem",
    demand: Demand,
    baseline_routing: Optional[Routing] = None,
) -> Tuple[float, CompletionTimeResult, float]:
    """Completion-time competitiveness of ``sample`` on ``demand``.

    The baseline defaults to the congestion-optimal offline routing
    (which is a valid comparator routing R in Definition 7.2 — the
    guarantee must hold against *every* routing, so any fixed baseline
    only yields a lower estimate of the true worst-case ratio).

    Returns ``(ratio, achieved_result, baseline_completion_time)``.
    """
    network = sample.system.network if isinstance(sample, MultiScaleHopSample) else sample.network
    if baseline_routing is None:
        lp = min_congestion_lp(network, demand, return_routing=True)
        baseline_routing = lp.routing
    if baseline_routing is None:
        raise InfeasibleError("no baseline routing available for an empty demand")
    baseline_total = routing_completion_time(baseline_routing, demand)
    achieved = best_completion_time_on_system(sample, demand)
    if baseline_total <= 0:
        ratio = 1.0 if achieved.completion_time <= 0 else float("inf")
    else:
        ratio = achieved.completion_time / baseline_total
    return ratio, achieved, baseline_total


__all__ = [
    "completion_time",
    "routing_completion_time",
    "hop_scales",
    "MultiScaleHopSample",
    "CompletionTimeResult",
    "best_completion_time_on_system",
    "completion_time_competitive_ratio",
]
