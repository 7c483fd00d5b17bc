"""Path systems (Definition 2.1).

A path system ``P = {P(s, t)}`` assigns to every ordered vertex pair a
finite set of simple (s, t)-paths.  Semi-oblivious routing *is* a path
system: the candidate paths are fixed obliviously, only the rates over
them adapt to the demand.

``PathSystem`` stores paths canonically (tuples of vertices), validates
them against the network, and exposes the sparsity measures used by the
paper: plain α-sparsity and (α + cut_G)-sparsity.  Its
:meth:`~PathSystem.incidence` is the path × edge-id form the Stage-4
path LP is built from, and :meth:`~PathSystem.rate_lp` caches that LP
between demands.

:class:`PathIncidence` is the one form of paths as edge ids: the path
LP reads a system's incidence, a routing materialized by an oblivious
builder carries the one its audit built (:mod:`repro.oblivious.base`),
a compiled routing (:mod:`repro.linalg.compiled`) reorders that one or
builds its own over the support paths, and both decide which paths
survive a link failure with :meth:`PathIncidence.surviving`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, TypeVar,
)

import numpy as np

from repro.exceptions import PathError, RoutingError
from repro.graphs.network import Network, Path, Vertex

Pair = Tuple[Vertex, Vertex]
T = TypeVar("T")


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

    @classmethod
    def build(
        cls, network: Network, buckets: Iterable[Tuple[Pair, Iterable[Path]]]
    ) -> "PathIncidence":
        """The incidence of the ``(pair, paths)`` items ``buckets``, pairs in item order."""
        paths: List[Path] = []
        slices: Dict[Pair, Tuple[int, int]] = {}
        for pair, bucket in buckets:
            start = len(paths)
            paths.extend(bucket)
            slices[pair] = (start, len(paths))
        indptr = np.zeros(len(paths) + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter((len(path) - 1 for path in paths), np.int64, len(paths)), out=indptr[1:]
        )
        edge_ids = np.fromiter(
            chain.from_iterable(map(network.path_edge_ids, paths)), np.int64, int(indptr[-1])
        )
        return cls(
            paths=tuple(paths), slices=slices, indptr=indptr, edge_ids=edge_ids,
            capacities=network.capacities,
        )

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


class PathSystem:
    """A collection of candidate simple paths per ordered vertex pair.

    Parameters
    ----------
    network:
        The underlying network; every stored path is validated against it.
    paths:
        Optional initial mapping ``(s, t) -> iterable of paths``.
    """

    def __init__(
        self,
        network: Network,
        paths: Optional[Mapping[Pair, Iterable[Sequence[Vertex]]]] = None,
    ) -> None:
        self._network = network
        self._paths: Dict[Pair, List[Path]] = {}
        self._incidence: Optional[PathIncidence] = None
        self._rate_lp: Any = None
        if paths:
            for (source, target), candidates in paths.items():
                for path in candidates:
                    self.add_path(source, target, path)

    @property
    def network(self) -> Network:
        return self._network

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add_path(self, source: Vertex, target: Vertex, path: Sequence[Vertex]) -> bool:
        """Add ``path`` to ``P(source, target)``; returns False if already present."""
        if source == target:
            raise PathError("path systems do not store paths from a vertex to itself")
        canonical = self._network.validate_path(path, source=source, target=target)
        bucket = self._paths.setdefault((source, target), [])
        if canonical in bucket:
            return False
        bucket.append(canonical)
        self._incidence = None
        self._rate_lp = None
        return True

    def add_paths(self, source: Vertex, target: Vertex, paths: Iterable[Sequence[Vertex]]) -> int:
        """Add several paths; returns the number of new paths added."""
        added = 0
        for path in paths:
            if self.add_path(source, target, path):
                added += 1
        return added

    def merge(self, other: "PathSystem") -> "PathSystem":
        """Union of two path systems over the same network (Section 7 uses this)."""
        if other._network is not self._network and other._network.name != self._network.name:
            # Allow equal-topology merges built from distinct Network objects.
            if set(other._network.vertices) != set(self._network.vertices):
                raise RoutingError("cannot merge path systems over different networks")
        merged = PathSystem(self._network)
        for (source, target), paths in self._paths.items():
            merged.add_paths(source, target, paths)
        for (source, target), paths in other._paths.items():
            merged.add_paths(source, target, paths)
        return merged

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def paths(self, source: Vertex, target: Vertex) -> List[Path]:
        """The candidate paths ``P(source, target)`` (empty list when none)."""
        return list(self._paths.get((source, target), []))

    def pairs(self) -> List[Pair]:
        """All pairs with at least one candidate path."""
        return list(self._paths.keys())

    def has_pair(self, source: Vertex, target: Vertex) -> bool:
        return (source, target) in self._paths

    def __contains__(self, pair: Pair) -> bool:
        return pair in self._paths

    def __iter__(self) -> Iterator[Pair]:
        return iter(self._paths)

    def __len__(self) -> int:
        return len(self._paths)

    def num_paths(self) -> int:
        """Total number of stored paths across all pairs."""
        return sum(len(paths) for paths in self._paths.values())

    def items(self) -> Iterator[Tuple[Pair, List[Path]]]:
        for pair, paths in self._paths.items():
            yield pair, list(paths)

    def incidence(self) -> PathIncidence:
        """The path × edge-id incidence of every stored path (cached until ``add_path``)."""
        if self._incidence is None:
            self._incidence = PathIncidence.build(self._network, self.items())
        return self._incidence

    def rate_lp(self, build: Callable[[PathIncidence], T]) -> T:
        """The Stage-4 rate LP, ``build(self.incidence())``, cached until ``add_path``.

        ``build`` is :class:`repro.mcf.path_lp.RateLP`; the LP pickles
        with the system.
        """
        if self._rate_lp is None:
            self._rate_lp = build(self.incidence())
        return self._rate_lp

    # ------------------------------------------------------------------ #
    # Sparsity (Definition 2.1)
    # ------------------------------------------------------------------ #
    def sparsity(self) -> int:
        """``max_{s,t} |P(s, t)|`` — the plain sparsity α."""
        if not self._paths:
            return 0
        return max(len(paths) for paths in self._paths.values())

    def is_alpha_sparse(self, alpha: int) -> bool:
        """True when every pair has at most ``alpha`` candidate paths."""
        return self.sparsity() <= alpha

    def is_alpha_plus_cut_sparse(
        self,
        alpha: int,
        cut_oracle: Callable[[Vertex, Vertex], float],
    ) -> bool:
        """True when ``|P(s, t)| <= alpha + cut_G(s, t)`` for every pair."""
        for (source, target), paths in self._paths.items():
            if len(paths) > alpha + cut_oracle(source, target) + 1e-9:
                return False
        return True

    # ------------------------------------------------------------------ #
    # Structural helpers
    # ------------------------------------------------------------------ #
    def max_hops(self) -> int:
        """The longest candidate path (dilation upper bound of the system)."""
        longest = 0
        for paths in self._paths.values():
            for path in paths:
                longest = max(longest, len(path) - 1)
        return longest

    def restricted_to_pairs(self, pairs: Iterable[Pair]) -> "PathSystem":
        """A new path system containing only the requested pairs."""
        wanted = set(pairs)
        restricted = PathSystem(self._network)
        for pair, paths in self._paths.items():
            if pair in wanted:
                restricted.add_paths(pair[0], pair[1], paths)
        return restricted

    def covers(self, pairs: Iterable[Pair]) -> bool:
        """True when every listed pair has at least one candidate path."""
        return all(pair in self._paths and self._paths[pair] for pair in pairs)

    def __repr__(self) -> str:
        return (
            f"PathSystem(pairs={len(self._paths)}, paths={self.num_paths()}, "
            f"sparsity={self.sparsity()})"
        )


__all__ = ["PathSystem", "PathIncidence", "Pair", "row_slots", "take_rows"]
