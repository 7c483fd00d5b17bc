"""The oblivious-routing builder interface.

An oblivious routing is just a :class:`~repro.core.routing.Routing`
object.  Builders differ in *how* they pick the path distribution for a
pair: each builder implements ``distribution_for(source, target)`` and
the base class assembles full or partial routings from it, caching the
per-pair work so that repeated sampling from the same routing is cheap.

Materialization works in vertex-index space.  A builder hands
:meth:`ObliviousRoutingBuilder.routing` the paths of every requested
pair at once as :class:`IndexPaths`.  By default these are read from
:meth:`~ObliviousRoutingBuilder.pair_distribution`; the Räcke builder
walks its trees for all pairs in numpy instead.  One vectorized audit
then checks every path as :meth:`Routing.set_distribution
<repro.core.routing.Routing.set_distribution>` would and raises the same
error types.  The vertex tuples are built once, and the audit's edge ids
become the routing's :class:`~repro.core.path_system.PathIncidence`, so
the compile walks no path again.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from itertools import chain
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.path_system import PathIncidence, take_rows
from repro.core.routing import PROBABILITY_TOL, Routing
from repro.exceptions import PathError, RoutingError
from repro.graphs.network import Network, Path, Vertex
from repro.obs import trace_span

Pair = Tuple[Vertex, Vertex]


@dataclass(frozen=True)
class IndexPaths:
    """The paths of many pairs over vertex indices, in CSR form.

    Pair ``q``'s paths are the rows ``path_ptr[q]:path_ptr[q + 1]``; row
    ``j`` visits ``vertices[indptr[j]:indptr[j + 1]]`` (``-1`` marks a
    label outside the network) with probability ``probs[j]``.  A path
    may appear twice for a pair: the copies merge, probabilities summed.
    """

    path_ptr: np.ndarray
    indptr: np.ndarray
    vertices: np.ndarray
    probs: np.ndarray


def _offsets(counts: Iterable[int]) -> np.ndarray:
    """Row pointers (a leading 0, then the running totals) of rows with ``counts`` entries."""
    return np.concatenate([[0], np.cumsum(np.fromiter(counts, np.int64))]).astype(np.int64)


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
        distributions = [self.pair_distribution(*pair) for pair in pairs]
        paths = [path for distribution in distributions for path in distribution]
        return IndexPaths(
            path_ptr=_offsets(map(len, distributions)),
            indptr=_offsets(map(len, paths)),
            vertices=self._network.vertex_indices(chain.from_iterable(paths)),
            probs=np.fromiter(
                (float(p) for distribution in distributions for p in distribution.values()),
                float, len(paths),
            ),
        )

    def routing(self, pairs: Optional[Iterable[Pair]] = None) -> Routing:
        """Materialize a routing over ``pairs`` (default: every ordered pair).

        The builder's index paths of all pairs pass one audit
        (:func:`audit_paths`); each path's vertex tuple is built once and
        the audit's edge ids become the routing's incidence.  Each pair's
        distribution is also cached, as :meth:`pair_distribution` would.
        """
        if pairs is None:
            pairs = self._network.vertex_pairs(ordered=True)
        pairs = list(dict.fromkeys((s, t) for s, t in pairs if s != t))
        with trace_span("source.materialize", source=type(self).__name__) as span:
            found, edge_ids = audit_paths(self._network, pairs, self._index_paths(pairs))
            weights, incidence = _merge(self._network, pairs, found, edge_ids)
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


def audit_paths(
    network: Network, pairs: Sequence[Pair], found: IndexPaths
) -> Tuple[IndexPaths, np.ndarray]:
    """Check every path at once, as :meth:`Routing.set_distribution` checks them one by one.

    A negative probability (below ``-1e-12``) raises :class:`RoutingError`;
    rows of probability zero are dropped unchecked.  A kept path must be
    nonempty, visit only network vertices, be simple (no repeat in one
    sort of ``row * n + vertex``), step only along edges (one lookup of
    its arcs' keys) and run from its pair's source to its target, else
    :class:`PathError`.  Every pair needs a kept path and probabilities
    summing to 1 within ``1e-6``, else :class:`RoutingError`.

    Returns the kept rows and the edge ids they traverse, in hop order.
    """

    def label(row: int) -> Tuple:
        vertices = network.vertices
        ids = found.vertices[found.indptr[row]:found.indptr[row + 1]].tolist()
        return tuple(vertices[v] if v >= 0 else "?" for v in ids)

    negative = np.flatnonzero(found.probs < -1e-12)
    if len(negative):
        row = int(negative[0])
        raise RoutingError(f"negative probability {found.probs[row]} for path {label(row)!r}")
    keep = ~(found.probs <= 0)  # NaN is kept: the sum check rejects it
    if not keep.all():
        rows = np.flatnonzero(keep)
        indptr, vertices = take_rows(found.indptr, found.vertices, rows)
        found = IndexPaths(
            path_ptr=np.searchsorted(rows, found.path_ptr),
            indptr=indptr,
            vertices=vertices,
            probs=found.probs[rows],
        )
    indptr, vertices = found.indptr, found.vertices
    counts = np.diff(indptr)
    pair_of = np.repeat(np.arange(len(pairs)), np.diff(found.path_ptr))
    if (counts == 0).any():
        raise PathError("a path must contain at least one vertex")
    row_of = np.repeat(np.arange(len(counts)), counts)
    unknown = np.flatnonzero(vertices < 0)
    if len(unknown):
        raise PathError(f"path {label(row_of[unknown[0]])!r} has a vertex not in the network")
    n = network.num_vertices
    keys = np.sort(row_of * n + vertices)
    repeated = np.flatnonzero(keys[1:] == keys[:-1])
    if len(repeated):
        raise PathError(f"path {label(keys[repeated[0]] // n)!r} is not simple")
    inner = np.ones(len(vertices), dtype=bool)
    inner[indptr[1:] - 1] = False
    steps = np.flatnonzero(inner)
    edge_ids = network.arc_edge_ids(vertices[steps], vertices[steps + 1])
    broken = np.flatnonzero(edge_ids < 0)
    if len(broken):
        at = steps[broken[0]]
        raise PathError(
            f"path step {(network.vertices[vertices[at]], network.vertices[vertices[at + 1]])!r} "
            f"of path {label(row_of[at])!r} is not an edge of the network"
        )
    ends = network.vertex_indices(chain.from_iterable(pairs)).reshape(-1, 2)
    wrong = np.flatnonzero(
        (vertices[indptr[:-1]] != ends[pair_of, 0]) | (vertices[indptr[1:] - 1] != ends[pair_of, 1])
    )
    if len(wrong):
        row = int(wrong[0])
        raise PathError(f"path {label(row)!r} does not run {pairs[pair_of[row]]!r}")
    empty = np.flatnonzero(np.diff(found.path_ptr) == 0)
    if len(empty):
        raise RoutingError(f"distribution for pair {pairs[empty[0]]!r} is empty")
    totals = np.bincount(pair_of, weights=found.probs, minlength=len(pairs))
    off = np.flatnonzero(~(np.abs(totals - 1.0) <= PROBABILITY_TOL))
    if len(off):
        raise RoutingError(
            f"probabilities for pair {pairs[off[0]]!r} sum to {totals[off[0]]}, expected 1"
        )
    return found, edge_ids


def _merge(
    network: Network, pairs: Sequence[Pair], found: IndexPaths, edge_ids: np.ndarray
) -> Tuple[Dict[Pair, Dict[Path, float]], PathIncidence]:
    """Each pair's ``{vertex tuple: probability}`` (repeats summed in order), and the incidence."""
    labels = np.fromiter(network.vertices, dtype=object, count=network.num_vertices)
    flat = labels[found.vertices].tolist()
    bounds = found.indptr.tolist()
    tuples = [tuple(flat[start:stop]) for start, stop in zip(bounds, bounds[1:])]
    probs = found.probs.tolist()
    path_ptr = found.path_ptr.tolist()
    weights: Dict[Pair, Dict[Path, float]] = {}
    slices: Dict[Pair, Tuple[int, int]] = {}
    first: List[int] = []
    for index, pair in enumerate(pairs):
        start = len(first)
        bucket: Dict[Path, float] = {}
        for row in range(path_ptr[index], path_ptr[index + 1]):
            path = tuples[row]
            if path in bucket:
                bucket[path] += probs[row]
            else:
                bucket[path] = probs[row]
                first.append(row)
        weights[pair] = bucket
        slices[pair] = (start, len(first))
    # A path of k vertices has k - 1 edges: the edge row pointers are the
    # vertex row pointers minus the row index.
    incidence = PathIncidence(
        paths=tuple(tuples),
        slices=slices,
        indptr=found.indptr - np.arange(len(found.indptr)),
        edge_ids=edge_ids,
        capacities=network.capacities,
    )
    if len(first) < len(tuples):
        incidence = incidence.take(np.array(first, dtype=np.int64), slices)
    return weights, incidence


def build_routing_for_pairs(
    builder: ObliviousRoutingBuilder,
    pairs: Iterable[Pair],
) -> Routing:
    """Convenience wrapper: materialize ``builder`` over an explicit pair list."""
    return builder.routing(pairs=list(pairs))


__all__ = [
    "ObliviousRoutingBuilder",
    "IndexPaths",
    "audit_paths",
    "build_routing_for_pairs",
    "Pair",
]
