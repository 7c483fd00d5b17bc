"""Min-congestion routing restricted to a candidate path system.

This is the Stage-4 computation of the paper: once the demand is
revealed, the semi-oblivious router optimizes the split of each pair's
demand over its pre-installed candidate paths so as to minimize the
maximum edge congestion.  Formally it computes

.. math::

    cong_R(P, d) = \\min_{R \\text{ a routing on } P} cong(R, d)

(Definition 5.1) via the path-based LP with one variable per (pair,
candidate path) plus the congestion variable ``z``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

try:
    from scipy import sparse
    from scipy.optimize import linprog
except ImportError:  # pragma: no cover - scipy ships via the [lp] extra
    sparse = None
    linprog = None

from repro.core.path_system import PathSystem
from repro.core.routing import Routing
from repro.demands.demand import Demand
from repro.exceptions import InfeasibleError, SolverError
from repro.graphs.network import Vertex
from repro.obs import trace_span


@dataclass
class PathLPResult:
    """Result of the path-restricted min-congestion LP.

    Attributes
    ----------
    congestion:
        ``cong_R(P, d)`` — the best congestion achievable on the system.
    routing:
        The optimal routing on the path system (``None`` for empty demands).
    edge_congestions:
        Per-edge congestion under the optimal rates.
    """

    congestion: float
    routing: Optional[Routing]
    edge_congestions: Dict[Tuple[Vertex, Vertex], float]


def min_congestion_on_paths(
    system: PathSystem,
    demand: Demand,
    return_routing: bool = True,
) -> PathLPResult:
    """Optimally split ``demand`` over the candidate paths of ``system``.

    The LP is assembled from the system's cached path × edge incidence
    (:meth:`PathSystem.incidence`): each demanded pair contributes its
    rows in path order, pairs in demand order, then the ``z`` column.

    Raises
    ------
    InfeasibleError
        When some demanded pair has no candidate path in the system.
    """
    if linprog is None:
        raise SolverError(
            "scipy is required for LP solving; install the 'lp' extra "
            "(pip install repro-semi-oblivious-routing[lp])"
        )
    incidence = system.incidence()
    commodities: List[Tuple[Tuple[Vertex, Vertex], float, int, int]] = []
    for pair, amount in demand.items():
        if amount <= 0:
            continue
        rows = incidence.slices.get(pair)
        if rows is None:
            raise InfeasibleError(f"path system has no candidate path for pair {pair!r}")
        commodities.append((pair, amount, *rows))
    if not commodities:
        return PathLPResult(congestion=0.0, routing=None, edge_congestions={})

    network = system.network
    capacity = incidence.capacities
    m = len(capacity)
    with trace_span("mcf.path_lp") as span:
        with trace_span("mcf.path_lp_setup"):
            starts = np.array([start for _, _, start, _ in commodities], dtype=np.int64)
            counts = np.array([stop - start for _, _, start, stop in commodities], dtype=np.int64)
            amounts = np.array([amount for _, amount, _, _ in commodities], dtype=float)
            num_paths = int(counts.sum())
            # Column j of the LP is path ``selected[j]`` of the incidence;
            # ``gather`` picks those rows' edge ids out of the CSR arrays.
            offsets = np.concatenate([[0], np.cumsum(counts)])
            selected = np.repeat(starts - offsets[:-1], counts) + np.arange(num_paths)
            hops = incidence.indptr[selected + 1] - incidence.indptr[selected]
            column_ptr = np.concatenate([[0], np.cumsum(hops)])
            nnz = int(column_ptr[-1])
            gather = np.repeat(incidence.indptr[selected] - column_ptr[:-1], hops) + np.arange(nnz)
            edge_rows = incidence.edge_ids[gather]
            num_vars = num_paths + 1  # + z

            # Inequality: per edge, total load <= z * capacity.
            a_ub = sparse.csc_matrix(
                (
                    np.concatenate([np.ones(nnz), -capacity]),
                    np.concatenate([edge_rows, np.arange(m)]),
                    np.append(column_ptr, nnz + m),
                ),
                shape=(m, num_vars),
            ).tocsr()
            # Equality: per commodity, path weights sum to the demanded amount.
            a_eq = sparse.csr_matrix(
                (np.ones(num_paths), np.arange(num_paths), offsets),
                shape=(len(commodities), num_vars),
            )
        span.add("rows", m + len(commodities))
        span.add("cols", num_vars)
        span.add("nnz", a_ub.nnz + a_eq.nnz)

        cost = np.zeros(num_vars)
        cost[-1] = 1.0
        with trace_span("mcf.path_lp_solve"):
            result = linprog(
                cost,
                A_ub=a_ub,
                b_ub=np.zeros(m),
                A_eq=a_eq,
                b_eq=amounts,
                bounds=(0, None),
                method="highs",
            )
        span.add("iterations", int(result.nit))
    if result.status == 2:
        raise InfeasibleError("path LP infeasible")
    if not result.success:
        raise SolverError(f"path LP failed: {result.message}")

    congestion = float(result.x[-1])
    used = np.where(result.x[:-1] > 1e-12, result.x[:-1], 0.0)
    distributions = {}
    for commodity_index, (pair, amount, start, stop) in enumerate(commodities):
        first = offsets[commodity_index]
        block = used[first:first + stop - start].tolist()
        paths = incidence.paths[start:stop]
        weights = {path: weight for path, weight in zip(paths, block) if weight > 0}
        if not weights:
            # Degenerate LP output; route everything on the first path.
            weights = {paths[0]: amount}
            used[first] = amount
        total = sum(weights.values())
        distributions[pair] = {path: weight / total for path, weight in weights.items()}

    loads = np.bincount(edge_rows, weights=np.repeat(used, hops), minlength=m)
    edges = network.edges
    edge_congestions = {
        edges[edge]: float(loads[edge] / capacity[edge]) for edge in np.flatnonzero(loads)
    }
    return PathLPResult(
        congestion=congestion,
        routing=Routing(network, distributions) if return_routing else None,
        edge_congestions=edge_congestions,
    )


__all__ = ["min_congestion_on_paths", "PathLPResult"]
