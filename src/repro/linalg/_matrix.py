"""The one matrix form of the compiled backend: scipy CSR.

The compiled evaluation backend (:mod:`repro.linalg.compiled`) only needs
to build a matrix from COO triplets (duplicates summed), multiply, and
densify a product; this module keeps that construction in one place so
every operator is summed in the same float order.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy import sparse


def build_matrix(
    rows: Sequence[int],
    cols: Sequence[int],
    data: Sequence[float],
    shape: tuple,
) -> sparse.csr_matrix:
    """A ``shape`` CSR matrix with ``data`` at ``(rows, cols)`` (duplicates summed)."""
    matrix = sparse.csr_matrix(
        (np.asarray(data, dtype=float), (np.asarray(rows), np.asarray(cols))),
        shape=shape,
    )
    matrix.sum_duplicates()
    return matrix


def to_dense(matrix) -> np.ndarray:
    """Densify a sparse matrix into a contiguous ndarray."""
    return np.asarray(matrix.toarray(), dtype=float)


__all__ = ["build_matrix", "to_dense"]
