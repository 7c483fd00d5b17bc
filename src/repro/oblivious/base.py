"""The oblivious-routing builder interface.

An oblivious routing is just a :class:`~repro.core.routing.Routing`
object.  Builders differ in *how* they pick the path distribution for a
pair: each builder implements ``distribution_for(source, target)`` and
the base class assembles full or partial routings from it, caching the
per-pair work so that repeated sampling from the same routing is cheap.

Materialization works in vertex-index space.  A builder hands
:meth:`ObliviousRoutingBuilder.routing` the paths of every requested
pair at once as :class:`~repro.core.path_system.IndexPaths`.  By default
these are read from :meth:`~ObliviousRoutingBuilder.pair_distribution`;
the Räcke builder walks its trees for all pairs in numpy instead.  They
then pass the same vectorized audit as every
:class:`~repro.core.routing.Routing`
(:func:`~repro.core.path_system.audit_paths`).  The vertex tuples are
built once, and the audit's edge ids become the routing's
:class:`~repro.core.path_system.PathIncidence`, so the compile walks no
path again.
"""

from __future__ import annotations

import abc
from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.core.path_system import IndexPaths, audit_paths, index_paths, merge_paths
from repro.core.routing import Routing
from repro.exceptions import RoutingError
from repro.graphs.network import Network, Path, Vertex
from repro.obs import trace_span

Pair = Tuple[Vertex, Vertex]


class ObliviousRoutingBuilder(abc.ABC):
    """Base class for oblivious routing constructions.

    Subclasses implement :meth:`distribution_for`, and may override
    ``_index_paths`` to hand :meth:`routing` all pairs' paths at once.
    The builder caches per-pair distributions; :meth:`routing`
    materializes a :class:`Routing` over a requested pair set (default:
    all ordered pairs), and :meth:`routing_for_demand` over a demand's
    support only.
    """

    #: Human-readable scheme name (overridden by subclasses).
    name: str = "oblivious"

    def __init__(self, network: Network) -> None:
        self._network = network
        self._cache: Dict[Pair, Dict[Path, float]] = {}

    @property
    def network(self) -> Network:
        return self._network

    @abc.abstractmethod
    def distribution_for(self, source: Vertex, target: Vertex) -> Dict[Path, float]:
        """Return the path distribution ``R(source, target)``.

        Implementations must return a nonempty mapping from simple
        (source, target)-paths to positive probabilities summing to one.
        """

    # ------------------------------------------------------------------ #
    # Materialization
    # ------------------------------------------------------------------ #
    def pair_distribution(self, source: Vertex, target: Vertex) -> Mapping[Path, float]:
        """Cached access to ``distribution_for``.

        Returns a read-only view of the cached distribution — callers
        share the cache entry without being able to corrupt it, and
        repeated access copies nothing.
        """
        if source == target:
            raise RoutingError("oblivious routings do not route a vertex to itself")
        key = (source, target)
        if key not in self._cache:
            distribution = self.distribution_for(source, target)
            if not distribution:
                raise RoutingError(f"builder produced an empty distribution for {key!r}")
            self._cache[key] = dict(distribution)
        return MappingProxyType(self._cache[key])

    def prewarm(self, pairs: Iterable[Pair]) -> int:
        """Bulk-fill the per-pair cache for ``pairs`` (self-pairs skipped).

        Used by the engine's batch path so that every scheme sharing
        this builder finds a warm cache.  Returns the number of pairs
        newly computed.
        """
        computed = 0
        for source, target in pairs:
            if source == target:
                continue
            if (source, target) not in self._cache:
                self.pair_distribution(source, target)
                computed += 1
        return computed

    def _index_paths(self, pairs: Sequence[Pair]) -> IndexPaths:
        """Every pair's distribution as index paths; by default from :meth:`pair_distribution`."""
        return index_paths(self._network, [self.pair_distribution(*pair) for pair in pairs])

    def routing(self, pairs: Optional[Iterable[Pair]] = None) -> Routing:
        """Materialize a routing over ``pairs`` (default: every ordered pair).

        The builder's index paths of all pairs pass the one audit
        (:func:`~repro.core.path_system.audit_paths`); each path's vertex
        tuple is built once and the audit's edge ids become the routing's
        incidence.  Each pair's distribution is also cached, as
        :meth:`pair_distribution` would.
        """
        if pairs is None:
            pairs = self._network.vertex_pairs(ordered=True)
        pairs = list(dict.fromkeys((s, t) for s, t in pairs if s != t))
        with trace_span("source.materialize", source=type(self).__name__) as span:
            found, edge_ids = audit_paths(self._network, pairs, self._index_paths(pairs))
            weights, incidence = merge_paths(self._network, pairs, found, edge_ids)
            span.add("pairs", len(pairs))
            span.add("paths", len(incidence.paths))
            span.add("nnz", len(incidence.edge_ids))
            for pair, distribution in weights.items():
                self._cache.setdefault(pair, distribution)
            return Routing._from_validated(self._network, weights, incidence=incidence)

    def routing_for_demand(self, demand) -> Routing:
        """Materialize a routing covering exactly the demand's support."""
        return self.routing(pairs=demand.pairs())

    def clear_cache(self) -> None:
        self._cache.clear()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(network={self._network.name!r})"


__all__ = ["ObliviousRoutingBuilder", "Pair"]
