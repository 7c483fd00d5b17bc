"""Incremental compiled evaluation: one operator, many timesteps.

Batch evaluation (:mod:`repro.linalg`) answers "what are the edge loads
of this demand?" from scratch: vectorize the demand, multiply by the
pair × edge operator.  A stream asks the same question 500+ times
against the *same* operator with demands that barely change between
steps.  :class:`IncrementalStreamEvaluator` exploits the linearity of
edge loads in the demand::

    loads(d + Δ) = loads(d) + Δ @ M

by maintaining the current demand vector and edge-load vector and
applying only the **delta**: a step that changes ``k`` pairs touches
``k`` rows of ``M`` instead of all of them: the per-row update indexes
straight into the CSR operator's raw ``indptr``/``indices``/``data``
arrays.  Dense deltas (more than
``full_recompute_fraction`` of the pairs changed at once) fall back to
one full ``vector @ M`` product — never slower than batch evaluation,
and a full recompute also resets any accumulated floating-point drift.

Equivalence contract: at every step the maintained loads match a
from-scratch :meth:`CompiledRouting.edge_load_vector` evaluation of the
current demand within 1e-9 (enforced by ``tests/test_stream.py``).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Tuple

import numpy as np

from repro.demands.demand import Demand, Pair
from repro.exceptions import RoutingError
from repro.linalg.compiled import CompiledRouting


class IncrementalStreamEvaluator:
    """Stateful delta evaluation of a demand stream on one compiled routing.

    Parameters
    ----------
    compiled:
        The compiled routing to evaluate against.  The instance is a
        pure consumer: it never mutates the compiled arrays.
    full_recompute_fraction:
        When a single delta changes at least this fraction of the
        compiled pairs, the loads are recomputed as one full
        ``vector @ M`` product instead of row-wise updates (faster for
        dense deltas, and exact — it discards accumulated drift).
    """

    def __init__(
        self,
        compiled: CompiledRouting,
        full_recompute_fraction: float = 1 / 16,
    ) -> None:
        self._compiled = compiled
        self._capacities = compiled.capacities
        self._vector = np.zeros(compiled.num_pairs, dtype=float)
        self._loads = np.zeros(compiled.num_edges, dtype=float)
        self._pair_index = dict(compiled.pair_index)
        self._demand: Demand = Demand.empty()
        self._num_steps = 0
        self._num_full_recomputes = 0
        self._operator = compiled.pair_edge_operator
        self._full_threshold = max(
            1, int(full_recompute_fraction * max(1, compiled.num_pairs))
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def compiled(self) -> CompiledRouting:
        return self._compiled

    @property
    def demand(self) -> Demand:
        """The demand currently loaded into the maintained state."""
        return self._demand

    @property
    def num_steps(self) -> int:
        """How many :meth:`set_demand` calls this evaluator has absorbed."""
        return self._num_steps

    @property
    def num_full_recomputes(self) -> int:
        """How many updates fell back to a full ``vector @ M`` product."""
        return self._num_full_recomputes

    @property
    def loads(self) -> np.ndarray:
        """The maintained per-edge load vector (live view; do not mutate)."""
        return self._loads

    # ------------------------------------------------------------------ #
    # State transitions
    # ------------------------------------------------------------------ #
    def _apply_rows(self, rows: list, deltas: list) -> None:
        if not rows:
            return
        if len(rows) >= self._full_threshold:
            # Dense delta: one full product beats len(rows) row updates,
            # and recomputing from the vector resets accumulated drift.
            self._loads = np.asarray(
                self._vector @ self._operator, dtype=float
            ).ravel()
            self._num_full_recomputes += 1
            return
        loads = self._loads
        operator = self._operator
        indptr, indices, data = operator.indptr, operator.indices, operator.data
        if len(rows) <= 4:
            for row, delta in zip(rows, deltas):
                start, stop = indptr[row], indptr[row + 1]
                loads[indices[start:stop]] += delta * data[start:stop]
        else:
            # One vectorized gather over all touched rows: flat CSR
            # positions are `repeat(starts, counts) + intra-row
            # offsets`, so the whole delta lands in one np.add.at
            # (different rows may share edge columns, hence add.at
            # rather than fancy-index assignment).
            row_arr = np.asarray(rows, dtype=np.int64)
            starts = indptr[row_arr]
            counts = np.asarray(indptr[row_arr + 1] - starts, dtype=np.int64)
            total = int(counts.sum())
            if total:
                offsets = np.cumsum(counts) - counts
                flat = np.arange(total, dtype=np.int64) + np.repeat(
                    starts - offsets, counts
                )
                contributions = np.repeat(
                    np.asarray(deltas, dtype=float), counts
                ) * data[flat]
                np.add.at(loads, indices[flat], contributions)

    def _collect(
        self, items: Iterable[Tuple[Pair, float]], missing: str
    ) -> Tuple[list, list]:
        # Resolve and validate every pair BEFORE touching the vector:
        # set_demand is transactional w.r.t. coverage errors, so a
        # caller can catch RoutingError, re-solve, and continue from an
        # uncorrupted state.
        staged: list = []
        pair_index = self._pair_index
        for pair, new_value in items:
            index = pair_index.get(pair)
            if index is None:
                if new_value <= 0 or missing == "drop":
                    continue
                raise RoutingError(f"routing does not cover pair {pair!r}")
            staged.append((index, float(new_value)))
        rows: list = []
        deltas: list = []
        vector = self._vector
        for index, new_value in staged:
            delta = new_value - vector[index]
            if delta == 0.0:
                continue
            vector[index] = new_value
            rows.append(index)
            deltas.append(delta)
        return rows, deltas

    def set_demand(
        self,
        demand: Demand,
        delta: Optional[Mapping[Pair, float]] = None,
        missing: str = "error",
    ) -> np.ndarray:
        """Advance the maintained state to ``demand``; returns the loads.

        ``delta`` is the stream-provided changed-pair mapping
        (``pair -> new value``); when ``None`` the full snapshot is
        diffed against the current state (pairs leaving the support are
        zeroed).  ``missing`` follows the evaluator contract of
        :meth:`CompiledRouting.demand_vector`: a positive-demand pair
        outside the compiled pair index raises
        :class:`~repro.exceptions.RoutingError` unless ``"drop"``.

        The state is transactional with respect to coverage errors: the
        uncovered pair is detected before any load update is applied, so
        a caller may catch the error, re-solve, and continue.
        """
        if delta is None:
            items = {
                self._compiled.pairs[index]: 0.0
                for index in np.flatnonzero(self._vector)
            }
            for pair, amount in demand.items():
                items[pair] = amount
            delta = items
        # Coverage of unchanged pairs needs no re-validation: every pair
        # in the maintained vector entered it through a validated
        # application, so checking the delta alone suffices.
        rows, deltas = self._collect(delta.items(), missing)
        self._apply_rows(rows, deltas)
        self._demand = demand
        self._num_steps += 1
        return self._loads

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    def utilizations(self) -> np.ndarray:
        """Per-edge load / capacity for the current state (a fresh array)."""
        return self._loads / self._capacities

    def congestion(self) -> float:
        """Max utilization; infinite when a demanded pair lost every path."""
        if self._compiled.uncovered_demand(self._vector):
            return float("inf")
        if not self._loads.size:
            return 0.0
        return float(np.max(self._loads / self._capacities, initial=0.0))

    def __repr__(self) -> str:
        return (
            f"IncrementalStreamEvaluator(steps={self._num_steps}, "
            f"compiled={self._compiled!r})"
        )


__all__ = ["IncrementalStreamEvaluator"]
