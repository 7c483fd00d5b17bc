"""The one HiGHS driver behind both congestion LPs.

The normalizer (:mod:`repro.mcf.lp`) and the Stage-4 path LP
(:mod:`repro.mcf.path_lp`) minimize ``z`` (the last column) over columns
``>= 0``, with one ``load_e - z·c_e <= 0`` row per edge first and rows
equal to the demand after.  Callers pass the matrix column-wise, row
indices ascending within a column; it goes to the HiGHS binding scipy
bundles (scipy >= 1.15) as ``linprog(method="highs")`` would pass it,
with default options bar ``output_flag`` and a warm attempt's cap.
"""

from __future__ import annotations

import sys
from typing import Optional, Tuple

import numpy as np

try:
    from scipy.optimize._highspy import _core as highs
except ImportError:  # pragma: no cover - scipy ships via the [lp] extra, the binding since 1.15
    highs = None
# The binding is private to scipy: one that lacks a member used here counts as missing.
_HIGHS_MEMBERS = ("_Highs", "HighsBasis", "HighsBasisStatus", "HighsModelStatus", "MatrixFormat",
                  "ObjSense", "kHighsInf")
if highs is not None and not all(hasattr(highs, name) for name in _HIGHS_MEMBERS):
    highs = None  # pragma: no cover

from repro.exceptions import InfeasibleError, SolverError


class Solution:
    """An optimal solve: column values ``x`` (``z`` last) and simplex ``iterations``."""

    def __init__(self, solver: "highs._Highs") -> None:
        self.x = np.asarray(solver.getSolution().col_value)
        self.iterations = solver.getInfo().simplex_iteration_count
        self._solver = solver

    def basis_codes(self) -> Tuple[np.ndarray, np.ndarray]:
        """The optimal basis as column and row ``HighsBasisStatus`` codes."""
        basis = self._solver.getBasis()
        return tuple(
            np.array([int(code) for code in codes], dtype=np.int8)
            for codes in (basis.col_status, basis.row_status)
        )


def basis_from_codes(codes: Tuple[np.ndarray, np.ndarray]) -> "highs.HighsBasis":
    """A HiGHS basis from status codes :meth:`Solution.basis_codes` exported."""
    basis = highs.HighsBasis()
    basis.col_status, basis.row_status = (
        [highs.HighsBasisStatus(int(code)) for code in part] for part in codes
    )
    basis.valid, basis.alien = True, False
    return basis


def solve(start, index, value, num_edges, rhs, what, basis=None, cap=0) -> Optional[Solution]:
    """Minimize ``z`` over the model; ``None`` when the attempt from ``basis`` hits ``cap``.

    ``start`` holds each column's first offset into ``index``/``value``
    (one entry per column); the ``num_edges`` edge rows come first, then
    one row per ``rhs`` entry.  ``what`` names the LP in errors.
    """
    if highs is None:
        raise SolverError(
            "the congestion LPs need the HiGHS binding bundled with scipy >= 1.15 (found scipy "
            f"{getattr(sys.modules.get('scipy'), '__version__', 'none')}); install the 'lp' extra "
            "(pip install repro-semi-oblivious-routing[lp])"
        )
    num_cols = len(start)
    cost = np.zeros(num_cols)
    cost[-1] = 1.0
    solver = highs._Highs()
    solver.setOptionValue("output_flag", False)
    solver.passModel(
        num_cols, num_edges + len(rhs), len(value),
        int(highs.MatrixFormat.kColwise), int(highs.ObjSense.kMinimize), 0.0,
        cost, np.zeros(num_cols), np.full(num_cols, highs.kHighsInf),
        np.concatenate([np.full(num_edges, -highs.kHighsInf), rhs]),
        np.concatenate([np.zeros(num_edges), rhs]),
        # The array form of passModel takes an integrality vector: all continuous.
        start, index, value, np.zeros(num_cols, dtype=np.int32),
    )
    if basis is not None:
        solver.setOptionValue("simplex_iteration_limit", cap)
        solver.setBasis(basis)
    solver.run()
    status = solver.getModelStatus()
    if basis is not None and status == highs.HighsModelStatus.kIterationLimit:
        return None
    if status == highs.HighsModelStatus.kInfeasible:
        raise InfeasibleError(f"{what} is infeasible")
    if status != highs.HighsModelStatus.kOptimal:
        raise SolverError(f"{what} failed: {solver.modelStatusToString(status)}")
    return Solution(solver)


__all__ = ["Solution", "basis_from_codes", "solve"]
