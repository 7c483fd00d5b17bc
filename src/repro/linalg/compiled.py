"""Compile a :class:`~repro.core.routing.Routing` into sparse operators.

The paper's quality measures are all linear in the demand: routing a
demand ``d`` puts weight ``d(s, t) * P[R(s, t) = p]`` on path ``p``, and
edge loads are sums of path weights.  Compilation makes that linearity
executable:

* every covered pair gets a row index, every support path a path index,
  every network edge a column index;
* the **path × edge incidence matrix** ``A`` has ``A[p, e] = 1`` when
  path ``p`` crosses edge ``e``; it is the
  :class:`~repro.core.path_system.PathIncidence` of the support paths,
  the same form the Stage-4 path LP reads.  Every routing carries one
  from its construction, whose rows are only permuted into the compiled
  pair order
  (:meth:`Routing.live_incidence <repro.core.routing.Routing.live_incidence>`);
* the **pair × path distribution matrix** ``D`` has ``D[q, p]`` equal to
  the probability of path ``p`` in the pair-``q`` distribution;
* their product ``M = D @ A`` (pair × edge) maps a demand *vector* to
  edge loads in one multiply: ``loads = d @ M``; a whole batch of
  demands becomes one (batch × pair) @ (pair × edge) product.

Only ``M`` is built, as one CSR matrix straight from the COO triplets of
``A``; neither factor is materialized.

Congestion, dilation, utilization percentiles and throughput then reduce
to vectorized reductions over the resulting edge-load array.

The compiled form is immutable and is the evaluator itself:
``routing.evaluator("auto")`` returns the routing's cached
:class:`CompiledRouting`.  A routing never changes after construction,
so a compile of it is never stale.

Link failures do not require
recompilation: :meth:`CompiledRouting.rebased` masks the paths crossing
failed edges (:meth:`PathIncidence.surviving
<repro.core.path_system.PathIncidence.surviving>`), renormalizes each
pair's surviving probabilities, and rescales the capacity vector — the
incidence is shared with the original object.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.core.path_system import PairIndex, PathIncidence
from repro.exceptions import GraphError, LinalgError, RoutingError
from repro.graphs.network import Network, Vertex
from repro.obs import trace_span

Pair = Tuple[Vertex, Vertex]

#: How many rebased operators one compiled routing memoizes (LRU); each
#: rebase holds its own pair × edge matrix.
_REBASE_CACHE_SIZE = 8


def _build_matrix(rows, cols, data, shape: tuple) -> sparse.csr_matrix:
    """A ``shape`` CSR matrix with ``data`` at ``(rows, cols)`` (duplicates summed).

    Every operator is built here, so all of them sum in the same float order.
    """
    matrix = sparse.csr_matrix(
        (np.asarray(data, dtype=float), (np.asarray(rows), np.asarray(cols))),
        shape=shape,
    )
    matrix.sum_duplicates()
    return matrix


def _pair_edge_matrix(path_pair, path_prob, inc_rows, inc_cols, shape):
    """``M = D @ A`` built straight from incidence triplets.

    Entry ``(pair_of_path(p), e)`` accumulates ``prob(p)`` for every
    incidence entry ``(p, e)`` — equivalent to the distribution × incidence
    product without ever materializing either factor.
    """
    weights = path_prob[inc_rows]
    keep = weights > 0
    return _build_matrix(
        path_pair[inc_rows[keep]], inc_cols[keep], weights[keep], shape
    )


class CompiledRouting:
    """Immutable array form of a routing: index arrays + sparse operators.

    Instances are built through :meth:`from_routing` (fresh compile) or
    :meth:`rebased` (failure re-anchoring); the constructor is internal
    plumbing shared by both.
    """

    def __init__(
        self,
        network: Network,
        pair_index: PairIndex,
        capacities: np.ndarray,
        incidence: PathIncidence,
        path_pair: np.ndarray,
        path_prob: np.ndarray,
        inc_rows: np.ndarray,
        pair_edge,
        pair_max_hops: np.ndarray,
        covered: np.ndarray,
    ) -> None:
        self._network = network
        self._pair_index = pair_index
        self._capacities = capacities
        # The support paths' incidence, which every rebase renormalizes
        # ``pair_edge`` from; in COO form, entry ``k`` is (path
        # ``inc_rows[k]``, edge ``inc_cols[k]``).
        self._incidence = incidence
        self._path_pair = path_pair
        self._path_prob = path_prob
        self._inc_rows = inc_rows
        self._inc_cols = incidence.edge_ids
        self._pair_edge = pair_edge
        self._pair_max_hops = pair_max_hops
        self._covered = covered
        self._rebase_cache: "OrderedDict[object, CompiledRouting]" = OrderedDict()

    # ------------------------------------------------------------------ #
    # Compilation
    # ------------------------------------------------------------------ #
    @classmethod
    def from_routing(cls, routing) -> "CompiledRouting":
        """Compile ``routing`` (index arrays built once, in canonical order)."""
        network: Network = routing.network
        with trace_span("linalg.compile") as span:
            return cls._compile(routing, network, span)

    @classmethod
    def _compile(cls, routing, network, span) -> "CompiledRouting":
        pairs: Tuple[Pair, ...] = tuple(sorted(routing.pairs(), key=repr))
        num_pairs = len(pairs)
        incidence, path_prob = routing.live_incidence(pairs)
        path_pair = np.repeat(
            np.arange(num_pairs), [stop - start for start, stop in incidence.slices.values()]
        )
        path_hops = np.diff(incidence.indptr)
        inc_rows = np.repeat(np.arange(len(path_pair)), path_hops)
        pair_max_hops = np.zeros(num_pairs, dtype=np.int64)
        np.maximum.at(pair_max_hops, path_pair, path_hops)
        span.add("pairs", num_pairs)
        span.add("paths", len(path_pair))
        span.add("nnz", len(inc_rows))

        # Build M = D @ A directly from the incidence triplets: entry
        # (pair_of_path, edge) accumulates the path's probability.  This
        # never materializes D (num_pairs × num_paths) or A.
        pair_edge = _pair_edge_matrix(
            path_pair, path_prob, inc_rows, incidence.edge_ids,
            (num_pairs, network.num_edges),
        )
        return cls(
            network=network,
            pair_index=PairIndex(pairs),
            capacities=network.capacities,
            incidence=incidence,
            path_pair=path_pair,
            path_prob=path_prob,
            inc_rows=inc_rows,
            pair_edge=pair_edge,
            pair_max_hops=pair_max_hops,
            covered=np.ones(num_pairs, dtype=bool),
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def network(self) -> Network:
        return self._network

    @property
    def pairs(self) -> Tuple[Pair, ...]:
        """Covered pairs in compiled (row-index) order."""
        return self._pair_index.pairs

    @property
    def pair_index(self) -> PairIndex:
        """Each pair's row, shared with every rebased copy (read-only)."""
        return self._pair_index

    @property
    def num_pairs(self) -> int:
        return len(self._pair_index)

    @property
    def num_paths(self) -> int:
        return len(self._path_pair)

    @property
    def num_edges(self) -> int:
        return len(self._capacities)

    @property
    def capacities(self) -> np.ndarray:
        """Per-edge capacity vector (network edge-index order; a copy)."""
        return self._capacities.copy()

    @property
    def pair_edge_operator(self):
        """``M = D @ A``: unit-demand edge loads per pair (CSR; do not mutate)."""
        return self._pair_edge

    def _loads(self, batch) -> np.ndarray:
        """Dense (batch × edge) loads of a (batch × pair) demand batch: ``batch @ M``.

        ``batch`` may be a CSR matrix or a dense array.
        """
        loads = batch @ self._pair_edge
        return loads.toarray() if sparse.issparse(loads) else loads

    def is_covered(self, source: Vertex, target: Vertex) -> bool:
        """True when the pair still has at least one (surviving) path."""
        index = self._pair_index.index.get((source, target))
        return index is not None and bool(self._covered[index])

    # ------------------------------------------------------------------ #
    # Demand vectorization
    # ------------------------------------------------------------------ #
    def _entries(self, demand, missing: str) -> Tuple[np.ndarray, np.ndarray]:
        """The rows and amounts of ``demand``'s positive entries on indexed pairs, in demand order.

        A positive entry on a pair not indexed raises unless ``missing`` is ``"drop"``.
        """
        rows, amounts, unknown = self._pair_index.positions(demand)
        # Not ``amounts > 0``: a NaN amount is kept, as the dict evaluator keeps it.
        keep = ~(amounts <= 0)
        missed = keep & unknown
        if missed.any():
            if missing != "drop":
                pair = list(demand)[int(np.argmax(missed))]
                raise RoutingError(f"routing does not cover pair {pair!r}")
            keep &= ~unknown
        return rows[keep], amounts[keep]

    def demand_vector(self, demand, missing: str = "error") -> np.ndarray:
        """Dense demand vector over the compiled pair index.

        ``demand`` is any pair → amount mapping (a :class:`Demand` or a
        plain dict); amounts ``<= 0`` are skipped.  ``missing`` controls
        pairs with positive demand that the routing does not cover at
        all: ``"error"`` raises :class:`RoutingError` (matching the dict
        evaluator), ``"drop"`` ignores them.
        """
        rows, amounts = self._entries(demand, missing)
        vector = np.zeros(self.num_pairs, dtype=float)
        vector[rows] = amounts
        return vector

    def demand_matrix(self, demands: Sequence, missing: str = "error"):
        """Batch of demand vectors as one (batch × pair) matrix.

        Each row is :meth:`demand_vector` of one demand, stored as CSR,
        ready for the single ``@ pair_edge_operator`` product.
        """
        entries = [self._entries(demand, missing) for demand in demands]
        counts = [len(rows) for rows, _ in entries]
        return _build_matrix(
            np.repeat(np.arange(len(entries)), counts),
            np.concatenate([np.empty(0, np.intp)] + [rows for rows, _ in entries]),
            np.concatenate([np.empty(0)] + [amounts for _, amounts in entries]),
            (len(entries), self.num_pairs),
        )

    def uncovered_demand(self, vector: np.ndarray) -> bool:
        """True when ``vector`` puts positive demand on an uncovered pair.

        ``vector`` is over this compiled pair index (:meth:`demand_vector`,
        or one a caller maintains itself, like the streaming layer's
        incremental evaluator): such a demand has infinite congestion by
        convention.
        """
        if self._covered.all():
            return False
        return bool(np.any(vector[~self._covered] > 0))

    # ------------------------------------------------------------------ #
    # Evaluation: one demand
    # ------------------------------------------------------------------ #
    def edge_load_vector(self, demand, missing: str = "error") -> np.ndarray:
        """Raw per-edge loads (network edge-index order) for one demand."""
        vector = self.demand_vector(demand, missing=missing)
        return self._loads(vector[np.newaxis, :])[0]

    def congestion(self, demand, missing: str = "error") -> float:
        """``cong(R, d)``; infinite when a demanded pair lost every path."""
        vector = self.demand_vector(demand, missing=missing)
        if self.uncovered_demand(vector):
            return float("inf")
        loads = self._loads(vector[np.newaxis, :])[0]
        if not loads.size:
            return 0.0
        return float(np.max(loads / self._capacities, initial=0.0))

    def dilation(self, demand, missing: str = "error") -> int:
        """``dil(R, d)`` — max hops among surviving paths of demanded pairs."""
        vector = self.demand_vector(demand, missing=missing)
        active = vector > 0
        if not np.any(active):
            return 0
        return int(np.max(self._pair_max_hops[active], initial=0))

    def coverage(self, demand) -> float:
        """Fraction of demanded (positive) pairs that still have at least one path."""
        rows, amounts, unknown = self._pair_index.positions(demand)
        demanded = ~(amounts <= 0)
        total = int(np.count_nonzero(demanded))
        if not total:
            return 1.0
        return int(np.count_nonzero(self._covered[rows[demanded & ~unknown]])) / total

    # ------------------------------------------------------------------ #
    # Evaluation: demand batches
    # ------------------------------------------------------------------ #
    def edge_load_matrix(self, demands: Sequence, missing: str = "error") -> np.ndarray:
        """(batch × edge) dense edge-load array: one matmul."""
        return self._loads(self.demand_matrix(demands, missing=missing))

    def congestions(self, demands: Sequence, missing: str = "error") -> np.ndarray:
        """Per-demand max congestion over one batched evaluation."""
        with trace_span("linalg.batched_evaluate") as span:
            span.add("demands", len(demands))
            return self.congestions_from_matrix(self.demand_matrix(demands, missing=missing))

    def congestions_from_matrix(self, batch) -> np.ndarray:
        """Per-demand max congestion for an already-vectorized batch.

        ``batch`` is a (batch × pair) matrix over *this* pair indexing —
        typically built once via :meth:`demand_matrix` and reused across
        the rebased operators of many failure events (the pair index is
        shared, so no re-vectorization is needed per event).
        """
        num_demands = batch.shape[0]
        loads = self._loads(batch)
        if not loads.size:
            return np.zeros(num_demands, dtype=float)
        results = np.max(loads / self._capacities[np.newaxis, :], axis=1, initial=0.0)
        if not self._covered.all():
            # Demand entries are nonnegative, so a demand touches an
            # uncovered pair iff its mass against the indicator is > 0.
            uncovered_mass = np.asarray(
                batch @ (~self._covered).astype(float), dtype=float
            ).ravel()
            results = np.where(uncovered_mass > 0, np.inf, results)
        return np.asarray(results, dtype=float)

    # ------------------------------------------------------------------ #
    # Failure rebase: no recompilation
    # ------------------------------------------------------------------ #
    def rebased(self, event) -> "CompiledRouting":
        """Re-anchor onto the degraded network of a failure event.

        Paths crossing a removed edge are masked (their probability mass
        redistributed over the pair's survivors, exactly the fixed-ratio
        renormalization of the scenario runner); ``capacity_scale``
        entries rescale the capacity vector.  The incidence triplets and
        index arrays are shared — nothing is recompiled.  Results are
        memoized per event.
        """
        if event.is_null():
            return self
        cached = self._rebase_cache.get(event)
        if cached is not None:
            self._rebase_cache.move_to_end(event)
            return cached

        with trace_span("linalg.rebase", failed=len(event.failed_edges)):
            rebased = self._rebase(event)
        self._rebase_cache[event] = rebased
        while len(self._rebase_cache) > _REBASE_CACHE_SIZE:
            self._rebase_cache.popitem(last=False)
        return rebased

    def _rebase(self, event) -> "CompiledRouting":
        failed_set = set()
        for u, v in event.failed_edges:
            try:
                failed_set.add(self._network.edge_index(u, v))
            except GraphError as error:
                raise LinalgError(
                    f"failure event removes edge {(u, v)!r} unknown to the compiled network"
                ) from error
        alive = self._incidence.surviving(failed_set)

        # Surviving probability mass per pair, then per-path renormalization.
        surviving_total = np.zeros(self.num_pairs, dtype=float)
        np.add.at(surviving_total, self._path_pair[alive], self._path_prob[alive])
        covered = surviving_total > 0
        denominator = np.where(covered, surviving_total, 1.0)
        new_prob = np.where(
            alive & covered[self._path_pair],
            self._path_prob / denominator[self._path_pair],
            0.0,
        )

        live = new_prob > 0
        pair_edge = _pair_edge_matrix(
            self._path_pair, new_prob, self._inc_rows, self._inc_cols,
            (self.num_pairs, self.num_edges),
        )

        pair_max_hops = np.zeros(self.num_pairs, dtype=np.int64)
        if np.any(live):
            hops = np.diff(self._incidence.indptr)
            np.maximum.at(pair_max_hops, self._path_pair[live], hops[live])

        capacities = self._capacities.copy()
        for (u, v), scale in event.capacity_scale:
            try:
                index = self._network.edge_index(u, v)
            except GraphError:
                continue
            if index in failed_set:
                continue
            capacities[index] *= scale

        return CompiledRouting(
            network=self._network,
            pair_index=self._pair_index,
            capacities=capacities,
            incidence=self._incidence,
            path_pair=self._path_pair,
            path_prob=new_prob,
            inc_rows=self._inc_rows,
            pair_edge=pair_edge,
            pair_max_hops=pair_max_hops,
            covered=covered,
        )

    def __repr__(self) -> str:
        return (
            f"CompiledRouting(pairs={self.num_pairs}, paths={self.num_paths}, "
            f"edges={self.num_edges})"
        )


__all__ = ["CompiledRouting", "Pair"]
