"""Routings: distributions over paths per vertex pair (Section 4).

A routing ``R = {R(s, t)}`` assigns to every covered pair a probability
distribution over simple (s, t)-paths.  Routing a demand ``d`` puts
weight ``d(s, t) * P[R(s, t) = p]`` on each path ``p``, and the paper's
quality measures follow:

* ``cong(R, d, e)`` — congestion of edge ``e`` (we divide by edge
  capacity so a capacity-``c`` edge behaves like ``c`` parallel edges),
* ``cong(R, d)`` — maximum edge congestion,
* ``dil(R, d)`` — maximum hop length of a used path,
* supports, integrality on a demand, and convex combination of routings
  (the demand-sum Lemma 5.15).

As in the paper, a routing is fixed before any demand is seen: it is
built once and never changes.  Every constructor goes through the one
path audit (:func:`repro.core.path_system.audit_paths`), so every
routing carries the :class:`~repro.core.path_system.PathIncidence` of its
paths, and what is derived from it (the compile, the dict memo) is never
stale.  The algebra below builds new routings.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.path_system import (
    PathIncidence, PathSystem, audit_paths, index_paths, merge_paths,
)
from repro.demands.demand import Demand
from repro.exceptions import LinalgError, RoutingError
from repro.graphs.network import Network, Path, Vertex

Pair = Tuple[Vertex, Vertex]


class Routing:
    """A collection of path distributions, one per covered vertex pair.

    A routing is fixed once built: nothing changes its distributions, so
    its incidence and its cached evaluators never go stale.

    Parameters
    ----------
    network:
        The underlying network.
    distributions:
        Mapping ``(s, t) -> {path: probability}``.  Every path of every
        pair passes the one audit (:func:`~repro.core.path_system.audit_paths`:
        paths simple and valid, probabilities nonnegative and summing to 1
        up to a small tolerance); zero-probability paths are dropped, and
        each distribution is then renormalized exactly.
    """

    def __init__(
        self,
        network: Network,
        distributions: Optional[Mapping[Pair, Mapping[Sequence[Vertex], float]]] = None,
    ) -> None:
        pairs = list(distributions or {})
        found, edge_ids = audit_paths(
            network, pairs, index_paths(network, [distributions[pair] for pair in pairs])
        )
        self._adopt(network, *merge_paths(network, pairs, found, edge_ids))

    @property
    def network(self) -> Network:
        return self._network

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def _from_validated(
        cls,
        network: Network,
        weights: Mapping[Pair, Mapping[Path, float]],
        incidence: PathIncidence,
    ) -> "Routing":
        """A routing from positive path weights whose paths are already canonical and valid.

        For callers whose paths passed the audit already (the builders,
        through :func:`repro.core.path_system.audit_paths`) or are rows of
        an audited incidence (the path LP's routing): each pair's weights
        are normalized exactly as the constructor normalizes a
        distribution, without checking the sum.  ``incidence`` holds every
        pair's paths in ``weights`` order.
        """
        routing = cls.__new__(cls)
        routing._adopt(network, weights, incidence)
        return routing

    def _adopt(
        self,
        network: Network,
        weights: Mapping[Pair, Mapping[Path, float]],
        incidence: PathIncidence,
    ) -> None:
        """Hold ``weights``, each pair's normalized exactly, and their ``incidence``."""
        self._network = network
        self._distributions: Dict[Pair, Dict[Path, float]] = {}
        for pair, distribution in weights.items():
            total = sum(distribution.values())
            self._distributions[pair] = {
                path: weight / total for path, weight in distribution.items()
            }
        #: Every pair's paths as edge ids, in ``_distributions`` order.
        self._incidence = incidence
        self._evaluators: Dict[str, object] = {}

    @classmethod
    def single_path(cls, network: Network, paths: Mapping[Pair, Sequence[Vertex]]) -> "Routing":
        """A deterministic routing using exactly one path per pair."""
        return cls(network, {pair: {tuple(path): 1.0} for pair, path in paths.items()})

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def distribution(self, source: Vertex, target: Vertex) -> Dict[Path, float]:
        """The distribution ``R(source, target)``."""
        try:
            return dict(self._distributions[(source, target)])
        except KeyError as exc:
            raise RoutingError(f"routing does not cover pair {(source, target)!r}") from exc

    def covers(self, source: Vertex, target: Vertex) -> bool:
        return (source, target) in self._distributions

    def pairs(self) -> List[Pair]:
        return list(self._distributions.keys())

    def __iter__(self) -> Iterator[Pair]:
        return iter(self._distributions)

    def __len__(self) -> int:
        return len(self._distributions)

    def support(self, source: Vertex, target: Vertex) -> List[Path]:
        """``supp(R(source, target))`` — paths with positive probability."""
        return list(self.distribution(source, target).keys())

    def support_system(self) -> PathSystem:
        """``supp(R)`` as a :class:`PathSystem`."""
        return PathSystem(self._network, self._distributions)

    def live_incidence(self, pairs: Sequence[Pair]) -> Tuple[PathIncidence, np.ndarray]:
        """Incidence and probabilities of ``pairs``' paths, in pair order: one reorder, no walk."""
        probabilities = np.array(
            [p for pair in pairs for p in self._distributions[pair].values()], dtype=float
        )
        return self._incidence.reordered(pairs), probabilities

    def support_sparsity(self) -> int:
        """Maximum support size over pairs (the α of an α-sparse oblivious routing)."""
        if not self._distributions:
            return 0
        return max(len(d) for d in self._distributions.values())

    # ------------------------------------------------------------------ #
    # Routing a demand
    # ------------------------------------------------------------------ #
    def weighted_paths(self, demand: Demand) -> List[Tuple[Path, float]]:
        """The weighted path collection obtained by routing ``demand``."""
        weighted: List[Tuple[Path, float]] = []
        for (source, target), amount in demand.items():
            if amount <= 0:
                continue
            distribution = self.distribution(source, target)
            for path, probability in distribution.items():
                weighted.append((path, amount * probability))
        return weighted

    def evaluator(self, form: str):
        """The cached evaluator of this routing: ``"auto"`` or ``"dict"``.

        One rule picks the form by how the routing is used: a routing
        installed once and evaluated for many demands compiles through
        ``"auto"`` (the :class:`~repro.linalg.compiled.CompiledRouting`
        itself, one scipy CSR operator); a routing evaluated once keeps
        ``"dict"`` (reference loops with a per-demand memo, and the test
        oracle), because compiling first costs about two dict passes.
        Evaluators are cached per form (a pickled routing carries them
        along); a routing never changes, so they never go stale.  Any
        other name raises :class:`~repro.exceptions.LinalgError`.  See
        :mod:`repro.linalg`.
        """
        evaluator = self._evaluators.get(form)
        if evaluator is None:
            from repro.linalg import CompiledRouting, DictEvaluator

            if form == "auto":
                evaluator = CompiledRouting.from_routing(self)
            elif form == "dict":
                evaluator = DictEvaluator(self)
            else:
                raise LinalgError(
                    f"unknown evaluator {form!r}; available: ['auto', 'dict']"
                )
            self._evaluators[form] = evaluator
        return evaluator

    def edge_congestions(self, demand: Demand) -> Dict[Tuple[Vertex, Vertex], float]:
        """Per-edge congestion ``cong(R, d, e)`` (load / capacity)."""
        return self.evaluator("dict").edge_congestions(demand)

    def congestion(self, demand: Demand) -> float:
        """``cong(R, d)`` — the maximum edge congestion."""
        return self.evaluator("dict").congestion(demand)

    def dilation(self, demand: Demand) -> int:
        """``dil(R, d)`` — maximum hop length among paths used for ``demand``."""
        return self.evaluator("dict").dilation(demand)

    def max_dilation(self) -> int:
        """Maximum hop length over all paths in the routing's support."""
        longest = 0
        for distribution in self._distributions.values():
            for path in distribution:
                longest = max(longest, len(path) - 1)
        return longest

    def is_integral_on(self, demand: Demand, tolerance: float = 1e-6) -> bool:
        """True when ``d(s, t) * P[R(s, t) = p]`` is an integer for every path."""
        for (source, target), amount in demand.items():
            if not self.covers(source, target):
                return False
            for probability in self.distribution(source, target).values():
                weight = amount * probability
                if abs(weight - round(weight)) > tolerance:
                    return False
        return True

    def is_supported_on(self, system: PathSystem) -> bool:
        """True when every support path belongs to ``system`` (Section 4)."""
        for (source, target), distribution in self._distributions.items():
            allowed = set(system.paths(source, target))
            if any(path not in allowed for path in distribution):
                return False
        return True

    # ------------------------------------------------------------------ #
    # Algebra (Lemma 5.15)
    # ------------------------------------------------------------------ #
    @staticmethod
    def demand_weighted_mix(
        routings: Sequence["Routing"],
        demands: Sequence[Demand],
    ) -> "Routing":
        """The Lemma 5.15 combination of routings for a sum of demands.

        For each pair, the path probabilities are mixed with weights
        proportional to the demands: the resulting routing routes
        ``d = d_1 + ... + d_k`` with congestion at most the sum of the
        individual congestions.
        """
        if not routings or len(routings) != len(demands):
            raise RoutingError("need equally many routings and demands (at least one)")
        network = routings[0].network
        combined: Dict[Pair, Dict[Path, float]] = {}
        totals: Dict[Pair, float] = {}
        for routing, demand in zip(routings, demands):
            for (source, target), amount in demand.items():
                if amount <= 0:
                    continue
                distribution = routing.distribution(source, target)
                bucket = combined.setdefault((source, target), {})
                for path, probability in distribution.items():
                    bucket[path] = bucket.get(path, 0.0) + amount * probability
                totals[(source, target)] = totals.get((source, target), 0.0) + amount
        final: Dict[Pair, Dict[Path, float]] = {}
        for pair, bucket in combined.items():
            total = totals[pair]
            final[pair] = {path: weight / total for path, weight in bucket.items()}
        # Keep coverage for pairs present in some routing but absent from all demands.
        for routing in routings:
            for pair in routing.pairs():
                if pair not in final:
                    final[pair] = routing.distribution(*pair)
        return Routing(network, final)

    def restricted_to_system(self, system: PathSystem) -> "Routing":
        """Drop support paths outside ``system`` and renormalize (per pair).

        Raises :class:`RoutingError` when a covered pair loses all of its
        paths.
        """
        restricted: Dict[Pair, Dict[Path, float]] = {}
        for (source, target), distribution in self._distributions.items():
            allowed = set(system.paths(source, target))
            kept = {path: prob for path, prob in distribution.items() if path in allowed}
            if not kept:
                raise RoutingError(
                    f"restriction removes every path for pair {(source, target)!r}"
                )
            total = sum(kept.values())
            restricted[(source, target)] = {path: prob / total for path, prob in kept.items()}
        return Routing(self._network, restricted)

    def __repr__(self) -> str:
        return f"Routing(pairs={len(self._distributions)}, support_sparsity={self.support_sparsity()})"


def path_usage_counts(routing: Routing, demand: Demand) -> Dict[Tuple[Vertex, Vertex], float]:
    """Total traffic crossing each edge when ``routing`` carries ``demand``.

    Unlike :meth:`Routing.edge_congestions` this returns raw loads, not
    capacity-normalized congestion; useful for utilization reporting.
    Shares the routing's memoized evaluation, so calling it alongside
    :meth:`Routing.congestion` does not redo the path walk.
    """
    return routing.evaluator("dict").edge_loads(demand)


__all__ = ["Routing", "path_usage_counts", "Pair"]
