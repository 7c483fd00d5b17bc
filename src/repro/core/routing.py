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
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.path_system import PathIncidence, PathSystem
from repro.demands.demand import Demand
from repro.exceptions import LinalgError, RoutingError
from repro.graphs.network import Network, Path, Vertex, path_edges

Pair = Tuple[Vertex, Vertex]

#: How far a pair's probabilities may sum from 1 before they are renormalized.
PROBABILITY_TOL = 1e-6


class Routing:
    """A collection of path distributions, one per covered vertex pair.

    Parameters
    ----------
    network:
        The underlying network.
    distributions:
        Mapping ``(s, t) -> {path: probability}``.  Each distribution is
        validated (paths simple and valid, probabilities nonnegative and
        summing to 1 up to a small tolerance, after which they are
        renormalized exactly).
    """

    def __init__(
        self,
        network: Network,
        distributions: Optional[Mapping[Pair, Mapping[Sequence[Vertex], float]]] = None,
    ) -> None:
        self._network = network
        self._distributions: Dict[Pair, Dict[Path, float]] = {}
        self._evaluators: Dict[str, object] = {}
        #: The support paths' incidence, when the routing was materialized
        #: with one; dropped by every mutation.
        self._incidence: Optional[PathIncidence] = None
        #: Bumped on every mutation; evaluators snapshot it to detect
        #: staleness (standalone instances outlive the cache clear below).
        self._version = 0
        if distributions:
            for (source, target), distribution in distributions.items():
                self.set_distribution(source, target, distribution)

    @property
    def network(self) -> Network:
        return self._network

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def set_distribution(
        self,
        source: Vertex,
        target: Vertex,
        distribution: Mapping[Sequence[Vertex], float],
    ) -> None:
        """Set ``R(source, target)`` to ``distribution`` (validated, normalized)."""
        if source == target:
            raise RoutingError("routings do not cover pairs with identical endpoints")
        cleaned: Dict[Path, float] = {}
        for path, probability in distribution.items():
            probability = float(probability)
            if probability < -1e-12:
                raise RoutingError(f"negative probability {probability} for path {path!r}")
            if probability <= 0:
                continue
            canonical = self._network.validate_path(path, source=source, target=target)
            cleaned[canonical] = cleaned.get(canonical, 0.0) + probability
        if not cleaned:
            raise RoutingError(f"distribution for pair {(source, target)!r} is empty")
        total = sum(cleaned.values())
        if not abs(total - 1.0) <= PROBABILITY_TOL:  # a NaN total fails too
            raise RoutingError(
                f"probabilities for pair {(source, target)!r} sum to {total}, expected 1"
            )
        self._distributions[(source, target)] = {
            path: probability / total for path, probability in cleaned.items()
        }
        self._version += 1
        self._incidence = None
        self._evaluators.clear()  # compiled/memoized state is now stale

    @classmethod
    def _from_validated(
        cls,
        network: Network,
        weights: Mapping[Pair, Mapping[Path, float]],
        incidence: Optional[PathIncidence] = None,
    ) -> "Routing":
        """A routing from positive path weights whose paths are already canonical and valid.

        For callers whose paths went through
        :meth:`PathSystem.add_path <repro.core.path_system.PathSystem.add_path>`
        or the builders' audit (:func:`repro.oblivious.base.audit_paths`):
        each pair's weights are normalized exactly as
        :meth:`set_distribution` normalizes a distribution, without
        re-validating the paths or checking the sum.  ``incidence``, when
        given, holds every pair's paths in ``weights`` order.
        """
        routing = cls(network)
        for pair, distribution in weights.items():
            total = sum(distribution.values())
            routing._distributions[pair] = {
                path: weight / total for path, weight in distribution.items()
            }
        routing._incidence = incidence
        return routing

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
        system = PathSystem(self._network)
        for (source, target), distribution in self._distributions.items():
            system.add_paths(source, target, distribution.keys())
        return system

    def live_incidence(self, pairs: Sequence[Pair]) -> Tuple[PathIncidence, np.ndarray]:
        """Incidence and probabilities of ``pairs``' live paths (probability > 0), in pair order.

        A routing materialized with an incidence only reorders its rows;
        otherwise every path is walked once more.
        """
        distributions = [self._distributions[pair] for pair in pairs]
        if self._incidence is not None:
            probabilities = np.array(
                [p for distribution in distributions for p in distribution.values()], dtype=float
            )
            if (probabilities > 0).all():
                return self._incidence.reordered(pairs), probabilities
        live = [{path: p for path, p in d.items() if p > 0} for d in distributions]
        incidence = PathIncidence.build(self._network, zip(pairs, live))
        probabilities = np.array([p for d in live for p in d.values()], dtype=float)
        return incidence, probabilities

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
        along) and dropped when a distribution changes.  Any other name
        raises :class:`~repro.exceptions.LinalgError`.  See
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
