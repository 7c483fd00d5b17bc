"""Min-congestion routing restricted to a candidate path system.

This is the Stage-4 computation of the paper: once the demand is
revealed, the semi-oblivious router optimizes the split of each pair's
demand over its pre-installed candidate paths so as to minimize the
maximum edge congestion.  Formally it computes

.. math::

    cong_R(P, d) = \\min_{R \\text{ a routing on } P} cong(R, d)

(Definition 5.1) via the path-based LP with one variable per (pair,
candidate path) plus the congestion variable ``z``.

Each :class:`~repro.core.path_system.PathSystem` caches a
:class:`RateLP` (:meth:`PathSystem.rate_lp
<repro.core.path_system.PathSystem.rate_lp>`): the column-wise matrix
over every installed path, solved through :mod:`repro.mcf.highs`, the
one HiGHS driver the normalizer shares.  A demand is solved cold, with
presolve, on a fresh model over the demanded pairs' columns only.

Only the demanded amounts, the right-hand side of the pair rows, change
between two demands over one installed system.  A router that installs
a system for many demands therefore calls :func:`warm_start` (the
engine's semi-oblivious router does), which solves the system's
**reference basis**: the optimal basis for the uniform demand.  Demands
on every installed pair then go to the system's one **persistent
model** (:class:`highs.Model <repro.mcf.highs.Model>`), built on the
first of them: every pair row is bounded ``[0, 0]`` and gets a **supply
column** with coefficient ``-1`` on it, whose fixed bounds carry the
pair's amount.  The reference basis is solved without them and covers
them nonbasic at their fixed value of 1.  On ``adapt-isp`` those are the
very codes a cold solve of the persistent model reaches under default
pricing, found in 10-25% less time.

* A demand on **every** installed pair moves the supply bounds in one
  vectorized call and is re-solved on the persistent model from the
  reference basis, which stays dual-feasible for every right-hand side:
  a median 19-20 dual simplex iterations instead of ~700 cold on
  ``adapt-isp``, and no model to pass.
* The persistent model prices the dual simplex with Devex, cold solves
  with HiGHS's default dual steepest edge.  ``clearSolver`` drops the
  steepest-edge weights, and computing them exactly for the non-slack
  reference basis costs one BTRAN per row before the first pivot;
  Devex starts from unit weights.  On ``adapt-isp`` a re-solve takes
  ~19% less time for a median 1-2 more iterations.  From a cold slack
  basis those weights are free, so cold solves keep the default.
* Where the basis is far from the demand (torus and hypercube gravity
  demands), the attempt stops after :data:`WARM_ITERATIONS` and the
  demand is solved cold on a fresh model; so do 3-5% of ``adapt-isp``
  demands.  The ``mcf.path_lp`` span counts such an attempt as
  ``capped``.
* A demand that leaves an installed pair out is solved cold: its zero
  right-hand side rows serve the uniform basis badly.
* Each re-solve clears the solver's state (``clearSolver``) before it
  loads the reference basis, so the result depends only on (system,
  demand), never on which demands were solved before or where: without
  it, flows of one demand differ after different predecessors.  The
  reference basis pickles with the system as status codes (``P + 1 + K``
  column codes for ``P`` paths, ``z`` and ``K`` supply columns); the
  model never pickles and is built again on the first warm solve.  A
  system never warm-started pays no reference solve and builds no model.

A demanded pair with no candidate path raises :class:`InfeasibleError`.
The result keeps the optimal flow of every installed path and the
demanded pairs' indices; :attr:`PathLPResult.routing` and
:attr:`PathLPResult.edge_congestions` are built from them on first read,
so a router that reads only the congestion never builds them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.path_system import PairIndex, PathIncidence, PathSystem
from repro.core.routing import Routing
from repro.demands.demand import Demand
from repro.exceptions import InfeasibleError
from repro.graphs.network import Network, Vertex
from repro.mcf import highs
from repro.obs import trace_span

#: Dual simplex iterations a re-solve from the reference basis may take
#: before the demand is solved cold instead.  Demands the basis serves
#: well take 10-49 on ``adapt-isp`` (median 19-20), and 3-5% of its
#: demands stop here; an attempt stopped here costs 8-20% of a cold
#: solve on torus:6/8 and hypercube:5.
WARM_ITERATIONS = 50


@dataclass(eq=False)
class PathLPResult:
    """Result of the path-restricted min-congestion LP.

    ``routing`` and ``edge_congestions`` are built from ``flows`` on
    first read, then cached; the other fields are set by the solve.

    Attributes
    ----------
    congestion:
        ``cong_R(P, d)`` — the best congestion achievable on the system.
    network:
        The system's network (``None`` for an empty demand, as are
        ``lp``, ``flows`` and ``order``).
    lp:
        The :class:`RateLP` solved; its incidence indexes ``flows``.
    flows:
        The optimal flow on every installed path, in incidence order:
        zero below 1e-12, and a demanded pair whose paths all read zero
        carries its whole amount on its first path.
    order:
        The demanded pairs as indices into ``lp.pairs``, in the
        demand's iteration order.
    """

    congestion: float
    network: Optional[Network] = None
    lp: Optional["RateLP"] = field(default=None, repr=False)
    flows: Optional[np.ndarray] = field(default=None, repr=False)
    order: Optional[np.ndarray] = field(default=None, repr=False)

    @cached_property
    def routing(self) -> Optional[Routing]:
        """The optimal routing on the path system (``None`` for empty demands)."""
        if self.lp is None:
            return None
        flat, pairs, incidence = self.flows.tolist(), self.lp.pairs, self.lp.incidence
        weights, slices, rows = {}, {}, []
        for index in self.order.tolist():
            pair = pairs[index]
            start, stop = incidence.slices[pair]
            first = len(rows)
            rows.extend(row for row in range(start, stop) if flat[row] > 0)
            weights[pair] = {incidence.paths[row]: flat[row] for row in rows[first:]}
            slices[pair] = (first, len(rows))
        taken = incidence.take(np.array(rows, dtype=np.int64), slices)
        return Routing._from_validated(self.network, weights, taken)

    @cached_property
    def edge_congestions(self) -> Dict[Tuple[Vertex, Vertex], float]:
        """Per-edge congestion under the optimal rates (edges with load only)."""
        if self.lp is None:
            return {}
        incidence = self.lp.incidence
        capacity = incidence.capacities
        loads = np.bincount(
            incidence.edge_ids, weights=np.repeat(self.flows, self.lp.hops),
            minlength=len(capacity),
        )
        edges = self.network.edges
        return {
            edges[edge]: float(loads[edge] / capacity[edge]) for edge in np.flatnonzero(loads)
        }


class RateLP:
    """The path LP of one installed system, every term but the demand.

    Column ``j < P`` is installed path ``j`` (incidence order), column
    ``P`` is ``z``.  Rows ``0..m-1`` are the edges, ``load - z·c <= 0``;
    row ``m + i`` is the ``i``-th installed pair, whose path weights sum
    to its demanded amount.  The persistent model appends supply column
    ``P + 1 + i`` for pair ``i``.  ``reference`` adopts a reference
    basis exported by :meth:`reference` instead of solving it; the LP
    pickles that way.
    """

    def __init__(
        self, incidence: PathIncidence, reference: Optional[Tuple[np.ndarray, np.ndarray]] = None
    ) -> None:
        capacity = incidence.capacities
        m, num_paths = len(capacity), len(incidence.paths)
        hops = np.diff(incidence.indptr)
        # The incidence lists each path's edges in hop order; a column lists them ascending.
        offsets = np.repeat(np.arange(num_paths) * m, hops)
        edge_rows = np.sort(incidence.edge_ids + offsets) - offsets
        pair_starts = np.array([start for start, _ in incidence.slices.values()], dtype=np.int64)
        paths_per_pair = np.diff(np.append(pair_starts, num_paths))
        # Path column j holds its edge rows, then its pair row; z holds every edge row.
        start = (incidence.indptr + np.arange(num_paths + 1)).astype(np.int32)
        pair_rows = m + np.repeat(np.arange(len(pair_starts)), paths_per_pair)
        index = np.concatenate([
            np.insert(edge_rows, incidence.indptr[1:], pair_rows), np.arange(m),
        ]).astype(np.int32)
        value = np.concatenate([np.ones(len(index) - m), -capacity])

        self.hops = hops
        self.pair_starts = pair_starts
        self.paths_per_pair = paths_per_pair
        #: The installed pairs, in incidence order.
        self.pairs = list(incidence.slices)
        #: Installed pair -> its position in ``pairs`` and in the ``amounts`` of :meth:`solve`.
        self.pair_index = PairIndex(self.pairs)
        self.num_edges = m
        self.incidence = incidence
        self._start, self._index, self._value = start, index, value
        self._reference = reference
        self._model: Optional[highs.Model] = None

    def __reduce__(self):
        # The HiGHS model does not pickle; the reference basis's status codes do.
        return (RateLP, (self.incidence, self._reference))

    def reference(self) -> Tuple[np.ndarray, np.ndarray]:
        """The reference basis as column and row status codes, solved on first call."""
        if self._reference is None:
            with trace_span("mcf.path_lp_reference") as span:
                model, uniform = (self._start, self._index, self._value), np.ones(len(self.pairs))
                solution = highs.solve(*model, self.num_edges, uniform, "path LP")
                span.add("iterations", solution.iterations)
            self._reference = solution.basis_codes(supply=len(self.pairs))
        return self._reference

    def _persistent(self) -> highs.Model:
        """The system's one persistent model, with a supply column per installed pair."""
        if self._model is None:
            model = (self._start, self._index, self._value)
            self._model = highs.Model(*model, self.num_edges, len(self.pairs), "path LP")
        return self._model

    def _demanded_columns(self, demanded: np.ndarray):
        """The installed paths of the demanded pairs, and the model over only them."""
        columns = np.flatnonzero(np.repeat(demanded, self.paths_per_pair))
        lengths = self.hops[columns] + 1
        start = np.zeros(len(columns) + 1, dtype=np.int32)
        np.cumsum(lengths, out=start[1:])
        gather = np.concatenate([
            np.repeat(self._start[columns] - start[:-1], lengths) + np.arange(start[-1]),
            np.arange(self._start[-1], len(self._value)),  # z
        ])
        m = self.num_edges
        row = np.concatenate([np.arange(m), m + np.cumsum(demanded) - 1])
        return columns, (start, row[self._index[gather]].astype(np.int32), self._value[gather])

    def solve(self, amounts: np.ndarray) -> Tuple[np.ndarray, float, Dict[str, int]]:
        """Optimal path flows (incidence order) and ``z`` for per-pair ``amounts``.

        Also returns counters: the size of the path LP that answered,
        ``rows`` (edges and demanded pairs), ``cols`` (the demanded
        pairs' paths and ``z``) and ``nnz``, never counting the
        persistent model's supply columns; the simplex ``iterations`` of
        every attempt; ``warm`` (1 when the persistent model's re-solve
        from the reference basis gave the answer); and ``capped`` (1 when
        that re-solve stopped at :data:`WARM_ITERATIONS` and the demand
        was answered cold).
        """
        demanded = amounts > 0
        columns, model, m = slice(None), (self._start, self._index, self._value), self.num_edges
        solution, iterations, capped = None, 0, False
        if demanded.all() and self._reference is not None:
            solution = self._persistent().solve(amounts, self._reference, WARM_ITERATIONS)
            capped = solution is None
            iterations = WARM_ITERATIONS if capped else 0
        warm = solution is not None
        if not demanded.all():
            columns, model = self._demanded_columns(demanded)
            amounts = amounts[demanded]
        if solution is None:
            solution = highs.solve(*model, m, amounts, "path LP")
        flows = np.zeros(len(self.hops))
        flows[columns] = solution.x[:-1]
        counters = {
            "rows": m + int(demanded.sum()),
            "cols": len(model[0]),
            "nnz": len(model[2]),
            "iterations": iterations + solution.iterations,
            "warm": int(warm),
            "capped": int(capped),
        }
        return flows, float(solution.x[-1]), counters


def warm_start(system: PathSystem) -> None:
    """Solve ``system``'s reference basis now, so later demands may start from it.

    For a system installed to route many demands: from then on a demand
    on every installed pair is first re-solved from the basis.  Calling
    it again is free.  A system never changes, so the basis never goes stale.
    """
    system.rate_lp(RateLP).reference()


def min_congestion_on_paths(system: PathSystem, demand: Demand) -> PathLPResult:
    """Optimally split ``demand`` over the candidate paths of ``system``.

    The LP is the system's cached :class:`RateLP` with ``demand`` as the
    right-hand side, warm-started only after :func:`warm_start`.  The
    result's ``routing`` and ``edge_congestions`` are built on first read.

    Raises
    ------
    InfeasibleError
        When some demanded pair has no candidate path in the system.
    """
    if demand.is_empty():
        return PathLPResult(congestion=0.0)

    with trace_span("mcf.path_lp") as span:
        lp = system.rate_lp(RateLP)
        with trace_span("mcf.path_lp_setup"):
            order, amounts = _right_hand_side(lp, demand)
        with trace_span("mcf.path_lp_solve"):
            flows, congestion, counters = lp.solve(amounts)
        for name, count in counters.items():
            span.add(name, count)

    flows = np.where(flows > 1e-12, flows, 0.0)
    # Degenerate LP output (no positive weight): route everything on the first path.
    degenerate = (amounts > 0) & (np.add.reduceat(flows, lp.pair_starts) == 0)
    flows[lp.pair_starts[degenerate]] = amounts[degenerate]
    return PathLPResult(
        congestion=congestion, network=system.network, lp=lp, flows=flows, order=order
    )


def _right_hand_side(lp: RateLP, demand: Demand) -> Tuple[np.ndarray, np.ndarray]:
    """The demanded pairs' indices in ``lp.pairs`` (demand order) and the per-pair amounts.

    Every amount of a :class:`Demand` is positive: its constructor drops zeros.
    """
    order, values, unknown = lp.pair_index.positions(demand)
    if unknown.any():
        pair = list(demand)[int(np.argmax(unknown))]
        raise InfeasibleError(f"path system has no candidate path for pair {pair!r}")
    amounts = np.zeros(len(lp.pairs))
    amounts[order] = values
    return order, amounts


__all__ = [
    "min_congestion_on_paths", "PathLPResult", "RateLP", "warm_start",
    "WARM_ITERATIONS",
]
