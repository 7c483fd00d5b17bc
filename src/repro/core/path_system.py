"""Path systems (Definition 2.1) and the one path audit.

A path system ``P = {P(s, t)}`` assigns to every ordered vertex pair a
finite set of simple (s, t)-paths.  Semi-oblivious routing *is* a path
system: the candidate paths are fixed obliviously, only the rates over
them adapt to the demand.

``PathSystem`` is fixed once built, like a routing: its one constructor
passes every path through the one audit (:func:`audit_paths`) and keeps
the audited :class:`PathIncidence` as its only store.  It exposes the
sparsity measures used by the paper: plain α-sparsity and
(α + cut_G)-sparsity.  Its :meth:`~PathSystem.incidence` is the
path × edge-id form the Stage-4 path LP is built from, and
:meth:`~PathSystem.rate_lp` caches that LP between demands.

:class:`PathIncidence` is the one form of paths as edge ids: the path
LP reads a system's incidence, every routing carries the one its
construction built, a compiled routing (:mod:`repro.linalg.compiled`)
reorders that one, and both decide which paths survive a link failure
with :meth:`PathIncidence.surviving`.

:class:`PairIndex` is the one map of a demand onto pair rows: the
compiled evaluator and the path LP each hold one, and
:meth:`PairIndex.positions` vectorizes every demand they are given.

Every routing's and every path system's paths pass one vectorized
check, :func:`audit_paths`, over vertex indices (:class:`IndexPaths`);
:func:`merge_paths` then turns the audited rows into each pair's
``{vertex tuple: probability}`` and the incidence, from the audit's edge
ids.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain, repeat
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar,
)

import numpy as np

from repro.exceptions import PathError, RoutingError
from repro.graphs.network import Network, Path, Vertex

Pair = Tuple[Vertex, Vertex]
T = TypeVar("T")

#: How far a pair's probabilities may sum from 1 before they are renormalized.
PROBABILITY_TOL = 1e-6


def row_slots(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """For rows of ``counts[i]`` slots, flattened in order: each slot's row and its offset in it."""
    rows = np.repeat(np.arange(len(counts)), counts)
    return rows, np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)


def take_rows(
    indptr: np.ndarray, values: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Rows ``rows`` (in that order) of the CSR ``(indptr, values)``: row pointers and values."""
    counts = np.diff(indptr)[rows]
    taken = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(counts, out=taken[1:])
    row, offset = row_slots(counts)
    return taken, values[indptr[rows][row] + offset]


@dataclass(frozen=True)
class PathIncidence:
    """Every path as a row of edge ids, in CSR form.

    Path ``j`` traverses the edges ``edge_ids[indptr[j]:indptr[j + 1]]``
    (indices into ``network.edges``, in hop order); ``paths[j]`` is its
    vertex tuple.  A pair's paths are the contiguous rows
    ``range(*slices[pair])``, in the order they were given.
    ``capacities`` holds the edge capacities in ``network.edges`` order.
    """

    paths: Tuple[Path, ...]
    slices: Dict[Pair, Tuple[int, int]]
    indptr: np.ndarray
    edge_ids: np.ndarray
    capacities: np.ndarray

    def take(self, rows: np.ndarray, slices: Dict[Pair, Tuple[int, int]]) -> "PathIncidence":
        """The incidence of paths ``rows`` (in that order), whose pairs own ``slices`` of them."""
        indptr, edge_ids = take_rows(self.indptr, self.edge_ids, rows)
        paths = self.paths
        return PathIncidence(
            paths=tuple([paths[index] for index in rows.tolist()]),
            slices=slices,
            indptr=indptr,
            edge_ids=edge_ids,
            capacities=self.capacities,
        )

    def reordered(self, pairs: Sequence[Pair]) -> "PathIncidence":
        """The rows of ``pairs``, pairs in that order: one gather, no path walked again."""
        bounds = np.array([self.slices[pair] for pair in pairs], dtype=np.int64).reshape(-1, 2)
        counts = bounds[:, 1] - bounds[:, 0]
        row, offset = row_slots(counts)
        stops = np.cumsum(counts).tolist()
        slices = dict(zip(pairs, zip([0] + stops[:-1], stops)))
        return self.take(bounds[row, 0] + offset, slices)

    def surviving(self, failed_ids: Iterable[int]) -> np.ndarray:
        """Per path, True when it crosses none of the edge ids ``failed_ids``."""
        broken = np.flatnonzero(np.isin(self.edge_ids, np.fromiter(failed_ids, np.int64)))
        alive = np.ones(len(self.paths), dtype=bool)
        alive[np.searchsorted(self.indptr, broken, side="right") - 1] = False
        return alive


class PairIndex(Mapping):
    """Each pair's row in a fixed pair order, and the one map of a demand onto those rows.

    A read-only ``{pair: row}`` mapping over ``pairs``.  The compiled
    evaluator and the Stage-4 path LP each hold one; a compile's rebased
    copies share it.
    """

    __slots__ = ("pairs", "index", "_memo")

    def __init__(self, pairs: Sequence[Pair]) -> None:
        self.pairs: Tuple[Pair, ...] = tuple(pairs)
        self.index: Dict[Pair, int] = {pair: row for row, pair in enumerate(self.pairs)}
        # The last demand's key list with its rows and unknown mask: a
        # stream of demands over one key order maps its keys once.
        self._memo: Optional[Tuple[List[Pair], np.ndarray, np.ndarray]] = None

    def __getitem__(self, pair: Pair) -> int:
        return self.index[pair]

    def __iter__(self) -> Iterator[Pair]:
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __getstate__(self) -> Tuple[Tuple[Pair, ...], Dict[Pair, int]]:
        # The memo only saves time, so it does not travel.
        return self.pairs, self.index

    def __setstate__(self, state: Tuple[Tuple[Pair, ...], Dict[Pair, int]]) -> None:
        self.pairs, self.index = state
        self._memo = None

    def positions(self, demand: Mapping[Pair, float]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``demand``'s rows (``-1`` for a pair not indexed), amounts and unknown mask.

        All three are in demand order; the rows and the mask are shared
        read-only arrays.  A demand whose key list equals the last one's
        reuses its rows without a lookup.
        """
        keys = list(demand)
        memo = self._memo
        if memo is not None and memo[0] == keys:
            _, rows, unknown = memo
        else:
            rows = np.fromiter(map(self.index.get, keys, repeat(-1)), np.intp, len(keys))
            unknown = rows < 0
            rows.flags.writeable = unknown.flags.writeable = False
            self._memo = (keys, rows, unknown)
        return rows, np.fromiter(demand.values(), float, len(keys)), unknown


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


def index_paths(
    network: Network, distributions: Sequence[Mapping[Sequence[Vertex], float]]
) -> IndexPaths:
    """The ``{path: probability}`` of each pair in ``distributions``, in order, as index paths."""
    paths = [path for distribution in distributions for path in distribution]
    return IndexPaths(
        path_ptr=_offsets(map(len, distributions)),
        indptr=_offsets(map(len, paths)),
        vertices=network.vertex_indices(chain.from_iterable(paths)),
        probs=np.fromiter(
            (float(p) for distribution in distributions for p in distribution.values()),
            float, len(paths),
        ),
    )


def audit_paths(
    network: Network, pairs: Sequence[Pair], found: IndexPaths
) -> Tuple[IndexPaths, np.ndarray]:
    """Check every path of every pair at once; the one validation of a routing's paths.

    A pair from a vertex to itself, or a negative probability (below
    ``-1e-12``), raises :class:`RoutingError`; rows of probability zero
    are dropped unchecked.  A kept path must be nonempty, visit only
    network vertices, be simple (no repeat in one sort of
    ``row * n + vertex``), step only along edges (one lookup of its arcs'
    keys) and run from its pair's source to its target, else
    :class:`PathError`.  Every pair needs a kept path and probabilities
    summing to 1 within :data:`PROBABILITY_TOL`, else :class:`RoutingError`.

    Returns the kept rows and the edge ids they traverse, in hop order.
    """

    def label(row: int) -> Tuple:
        vertices = network.vertices
        ids = found.vertices[found.indptr[row]:found.indptr[row + 1]].tolist()
        return tuple(vertices[v] if v >= 0 else "?" for v in ids)

    if any(source == target for source, target in pairs):
        raise RoutingError("routings do not cover pairs with identical endpoints")
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


def merge_paths(
    network: Network, pairs: Sequence[Pair], found: IndexPaths, edge_ids: np.ndarray
) -> Tuple[Dict[Pair, Dict[Path, float]], PathIncidence]:
    """Each pair's ``{vertex tuple: probability}`` (repeats summed in order), and the incidence.

    ``found`` and ``edge_ids`` are what :func:`audit_paths` returned.
    """
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


class PathSystem:
    """A fixed collection of candidate simple paths per ordered vertex pair.

    As in the paper (Definition 2.1), a path system is fixed before any
    demand is seen: it is built once and never changes.  Its incidence is
    its only store, so the Stage-4 LP cached from it never goes stale.

    Parameters
    ----------
    network:
        The underlying network; every path passes the one audit
        (:func:`audit_paths`) against it.
    paths:
        Optional mapping ``(s, t) -> iterable of paths``.  A pair's repeated
        paths are kept once, at their first occurrence; a pair with no
        path is left out.
    """

    def __init__(
        self,
        network: Network,
        paths: Optional[Mapping[Pair, Iterable[Sequence[Vertex]]]] = None,
    ) -> None:
        # Each distinct path of a pair weighs the same, so the audit's sum
        # rule holds; the weights are dropped once the paths pass.
        uniform: Dict[Pair, Dict[Path, float]] = {}
        for (source, target), candidates in (paths or {}).items():
            bucket = dict.fromkeys(map(tuple, candidates))
            if bucket:
                uniform[(source, target)] = dict.fromkeys(bucket, 1.0 / len(bucket))
        pairs = list(uniform)
        found, edge_ids = audit_paths(network, pairs, index_paths(network, list(uniform.values())))
        self._network = network
        self._incidence = merge_paths(network, pairs, found, edge_ids)[1]
        self._rate_lp: Any = None

    @property
    def network(self) -> Network:
        return self._network

    def merge(self, other: "PathSystem") -> "PathSystem":
        """Union of two path systems over the same network (Section 7 uses this)."""
        if other._network is not self._network and other._network.name != self._network.name:
            # Allow equal-topology merges built from distinct Network objects.
            if set(other._network.vertices) != set(self._network.vertices):
                raise RoutingError("cannot merge path systems over different networks")
        buckets: Dict[Pair, List[Path]] = {}
        for pair, paths in chain(self.items(), other.items()):
            buckets.setdefault(pair, []).extend(paths)
        return PathSystem(self._network, buckets)

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def paths(self, source: Vertex, target: Vertex) -> List[Path]:
        """The candidate paths ``P(source, target)`` (empty list when none)."""
        start, stop = self._incidence.slices.get((source, target), (0, 0))
        return list(self._incidence.paths[start:stop])

    def pairs(self) -> List[Pair]:
        """All pairs with at least one candidate path."""
        return list(self._incidence.slices)

    def has_pair(self, source: Vertex, target: Vertex) -> bool:
        return (source, target) in self._incidence.slices

    def __contains__(self, pair: Pair) -> bool:
        return pair in self._incidence.slices

    def __iter__(self) -> Iterator[Pair]:
        return iter(self._incidence.slices)

    def __len__(self) -> int:
        return len(self._incidence.slices)

    def num_paths(self) -> int:
        """Total number of stored paths across all pairs."""
        return len(self._incidence.paths)

    def items(self) -> Iterator[Tuple[Pair, List[Path]]]:
        paths = self._incidence.paths
        for pair, (start, stop) in self._incidence.slices.items():
            yield pair, list(paths[start:stop])

    def incidence(self) -> PathIncidence:
        """The path × edge-id incidence of every stored path, as the audit built it."""
        return self._incidence

    def rate_lp(self, build: Callable[[PathIncidence], T]) -> T:
        """The Stage-4 rate LP, ``build(self.incidence())``, built on the first call.

        ``build`` is :class:`repro.mcf.path_lp.RateLP`; the LP pickles
        with the system.
        """
        if self._rate_lp is None:
            self._rate_lp = build(self._incidence)
        return self._rate_lp

    # ------------------------------------------------------------------ #
    # Sparsity (Definition 2.1)
    # ------------------------------------------------------------------ #
    def sparsity(self) -> int:
        """``max_{s,t} |P(s, t)|`` — the plain sparsity α."""
        return max((stop - start for start, stop in self._incidence.slices.values()), default=0)

    def is_alpha_sparse(self, alpha: int) -> bool:
        """True when every pair has at most ``alpha`` candidate paths."""
        return self.sparsity() <= alpha

    def is_alpha_plus_cut_sparse(
        self,
        alpha: int,
        cut_oracle: Callable[[Vertex, Vertex], float],
    ) -> bool:
        """True when ``|P(s, t)| <= alpha + cut_G(s, t)`` for every pair."""
        for (source, target), (start, stop) in self._incidence.slices.items():
            if stop - start > alpha + cut_oracle(source, target) + 1e-9:
                return False
        return True

    # ------------------------------------------------------------------ #
    # Structural helpers
    # ------------------------------------------------------------------ #
    def max_hops(self) -> int:
        """The longest candidate path (dilation upper bound of the system)."""
        return int(np.diff(self._incidence.indptr).max(initial=0))

    def restricted_to_pairs(self, pairs: Iterable[Pair]) -> "PathSystem":
        """A new path system containing only the requested pairs."""
        wanted = set(pairs)
        return PathSystem(
            self._network, {pair: paths for pair, paths in self.items() if pair in wanted}
        )

    def covers(self, pairs: Iterable[Pair]) -> bool:
        """True when every listed pair has at least one candidate path."""
        return all(pair in self._incidence.slices for pair in pairs)

    def __repr__(self) -> str:
        return (
            f"PathSystem(pairs={len(self)}, paths={self.num_paths()}, "
            f"sparsity={self.sparsity()})"
        )


__all__ = [
    "PathSystem",
    "PathIncidence",
    "PairIndex",
    "IndexPaths",
    "Pair",
    "PROBABILITY_TOL",
    "audit_paths",
    "index_paths",
    "merge_paths",
    "row_slots",
    "take_rows",
]
