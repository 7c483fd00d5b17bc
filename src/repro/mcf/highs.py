"""The one HiGHS driver behind both congestion LPs.

The normalizer (:mod:`repro.mcf.lp`) and the Stage-4 path LP
(:mod:`repro.mcf.path_lp`) minimize ``z`` (the last column) over columns
``>= 0``, with one ``load_e - z·c_e <= 0`` row per edge first and rows
equal to the demand after.  Callers pass the matrix column-wise, row
indices ascending within a column; it goes to the HiGHS binding scipy
bundles (scipy >= 1.15) as ``linprog(method="highs")`` would pass it,
with default options bar ``output_flag``, a warm attempt's cap and the
persistent model's Devex pricing.

:func:`solve` passes a fresh model and solves it cold, with presolve.
A :class:`Model` keeps one model across warm re-solves whose right-hand
side changes: each demand row gets a fixed-bound **supply column**, so
a new right-hand side is one vectorized column-bounds change.  Both map
the solver's status the same way (:func:`_outcome`).
"""

from __future__ import annotations

import operator
import sys
import threading
from typing import Optional, Tuple

import numpy as np

try:
    from scipy.optimize._highspy import _core as highs
except ImportError:  # pragma: no cover - scipy is a core dependency, the binding since 1.15
    highs = None
# The binding is private to scipy: one that lacks a member used here counts as missing.
_HIGHS_MEMBERS = ("_Highs", "_Highs.changeColsBounds", "_Highs.clearSolver", "HighsBasis",
                  "HighsBasisStatus", "HighsModelStatus", "MatrixFormat", "ObjSense", "kHighsInf")


def checked(binding):
    """``binding`` when it has every member in :data:`_HIGHS_MEMBERS`, else ``None``."""
    try:
        operator.attrgetter(*_HIGHS_MEMBERS)(binding)
    except AttributeError:
        return None
    return binding


highs = checked(highs)

from repro.exceptions import InfeasibleError, SolverError


class Solution:
    """An optimal solve: column values ``x`` (``z`` last) and simplex ``iterations``."""

    def __init__(self, solver: "highs._Highs", num_cols: int) -> None:
        self.x = np.asarray(solver.getSolution().col_value)[:num_cols]
        self.iterations = solver.getInfo().simplex_iteration_count
        self._solver = solver

    def basis_codes(self, supply: int = 0) -> Tuple[np.ndarray, np.ndarray]:
        """The optimal basis as column and row ``HighsBasisStatus`` codes.

        ``supply`` appends the codes of a :class:`Model`'s supply columns
        for this model's right-hand side: nonbasic at their fixed value,
        they leave the basis optimal for the model with them.
        """
        basis = self._solver.getBasis()
        cols, rows = (
            np.array([int(code) for code in codes], dtype=np.int8)
            for codes in (basis.col_status, basis.row_status)
        )
        lower = np.full(supply, int(highs.HighsBasisStatus.kLower), dtype=np.int8)
        return np.concatenate([cols, lower]), rows


def basis_from_codes(codes: Tuple[np.ndarray, np.ndarray]) -> "highs.HighsBasis":
    """A HiGHS basis from status codes :meth:`Solution.basis_codes` exported."""
    basis = highs.HighsBasis()
    basis.col_status, basis.row_status = (
        [highs.HighsBasisStatus(int(code)) for code in part] for part in codes
    )
    basis.valid, basis.alien = True, False
    return basis


def solve(start, index, value, num_edges, rhs, what) -> Solution:
    """Minimize ``z`` over a fresh model, cold with presolve.

    ``start`` holds each column's first offset into ``index``/``value``
    (one entry per column); the ``num_edges`` edge rows come first, then
    one row per ``rhs`` entry.  ``what`` names the LP in errors.
    """
    solver = _load(start, index, value, num_edges, rhs, supply=False)
    solver.run()
    return _outcome(solver, len(start), what)


class Model:
    """The model of :func:`solve`, kept across solves of different right-hand sides.

    Each of the ``num_rows`` rows after the edges is bounded ``[0, 0]``:
    row ``num_edges + i`` gets supply column ``len(start) + i``,
    coefficient ``-1`` on that row, both bounds at ``rhs[i]`` of the
    solve.  The binding changes column bounds in one vectorized call
    but row bounds only one at a time, so a new ``rhs`` moves the supply
    columns.  Every solve clears the solver's state first: the answer
    depends on the model, ``rhs`` and the start basis only, never on the
    solves before.  The model prices the dual simplex with Devex, set
    here so that a model rebuilt after unpickling prices the same way.
    Solves from several threads run one at a time.  The model does not
    pickle; its basis codes do.
    """

    def __init__(self, start, index, value, num_edges, num_rows, what) -> None:
        self._solver = _load(start, index, value, num_edges, np.zeros(num_rows), supply=True)
        # Devex pricing: clearSolver() drops the dual steepest-edge weights, and recomputing
        # them exactly for a non-slack start basis costs one BTRAN per row before the first
        # pivot; Devex starts from unit weights.  Cold solves start from a slack basis,
        # where those weights are free, and keep the default.
        self._solver.setOptionValue("simplex_dual_edge_weight_strategy", 1)
        self._num_cols = len(start)
        self._supply = np.arange(len(start), len(start) + num_rows, dtype=np.int32)
        self._what = what
        self._codes = self._basis = None
        self._lock = threading.Lock()

    def solve(self, rhs, codes, cap) -> Optional[Solution]:
        """Minimize ``z`` for ``rhs`` from basis ``codes``; ``None`` when that takes over ``cap``.

        ``codes`` cover every column, supply columns included
        (:meth:`Solution.basis_codes` with ``supply``).
        """
        solver = self._solver
        # One solve at a time: concurrent calls into one solver crash the process.
        with self._lock:
            if codes is not self._codes:
                self._codes, self._basis = codes, basis_from_codes(codes)
            solver.changeColsBounds(len(self._supply), self._supply, rhs, rhs)
            solver.clearSolver()
            solver.setOptionValue("simplex_iteration_limit", cap)
            solver.setBasis(self._basis)
            solver.run()
            return _outcome(solver, self._num_cols, self._what)


def _load(start, index, value, num_edges, rhs, supply: bool) -> "highs._Highs":
    """A solver holding the model, with supply columns for the ``rhs`` rows if ``supply``."""
    if highs is None:
        raise SolverError(
            "the congestion LPs need the HiGHS binding bundled with scipy >= 1.15 (found scipy "
            f"{getattr(sys.modules.get('scipy'), '__version__', 'none')}); install the declared "
            "range (pip install 'scipy>=1.15,<1.18')"
        )
    num_cols, num_rows, inf = len(start), num_edges + len(rhs), highs.kHighsInf
    cost = np.zeros(num_cols)
    cost[-1] = 1.0
    col_lower, col_upper = np.zeros(num_cols), np.full(num_cols, inf)
    row_lower = np.concatenate([np.full(num_edges, -inf), rhs])
    row_upper = np.concatenate([np.zeros(num_edges), rhs])
    if supply:
        start = np.concatenate([start, len(value) + np.arange(len(rhs))]).astype(np.int32)
        index = np.concatenate([index, np.arange(num_edges, num_rows)]).astype(np.int32)
        value = np.concatenate([value, np.full(len(rhs), -1.0)])
        cost = np.concatenate([cost, np.zeros(len(rhs))])
        col_lower, col_upper = np.concatenate([col_lower, rhs]), np.concatenate([col_upper, rhs])
        row_lower[num_edges:] = row_upper[num_edges:] = 0.0
    solver = highs._Highs()
    solver.setOptionValue("output_flag", False)
    solver.passModel(
        len(start), num_rows, len(value),
        int(highs.MatrixFormat.kColwise), int(highs.ObjSense.kMinimize), 0.0,
        cost, col_lower, col_upper, row_lower, row_upper,
        # The array form of passModel takes an integrality vector: all continuous.
        start, index, value, np.zeros(len(start), dtype=np.int32),
    )
    return solver


def _outcome(solver: "highs._Highs", num_cols: int, what: str) -> Optional[Solution]:
    """The solution over the first ``num_cols`` columns; ``None`` at the iteration cap."""
    status = solver.getModelStatus()
    if status == highs.HighsModelStatus.kIterationLimit:
        return None
    if status == highs.HighsModelStatus.kInfeasible:
        raise InfeasibleError(f"{what} is infeasible")
    if status != highs.HighsModelStatus.kOptimal:
        raise SolverError(f"{what} failed: {solver.modelStatusToString(status)}")
    return Solution(solver, num_cols)


__all__ = ["Model", "Solution", "basis_from_codes", "checked", "solve"]
