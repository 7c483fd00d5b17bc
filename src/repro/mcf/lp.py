"""Exact min-congestion multicommodity flow via linear programming.

The offline optimum ``opt_{G,R}(d)`` (Section 4) is the value of the LP

.. math::

    \\min z \\quad \\text{s.t.} \\quad
    \\sum_s (f_s(u,v) + f_s(v,u)) \\le z \\cdot c(u,v) \\;\\forall \\{u,v\\},
    \\qquad f_s \\text{ sends } d(s,t) \\text{ units from } s \\text{ to every } t.

A commodity is a *source*: ``f_s`` is one flow with supply
``sum_t d(s, t)`` at ``s`` and sink ``d(s, t)`` at each ``t``.  Any
per-pair flow sums to such a flow and every single-source flow peels
back into per-pair flows, so the optimum equals that of the per-pair
arc LP while the LP has ``k_src * 2m + 1`` columns (``k_src`` demanded
sources, one column per source and arc, plus ``z``) instead of
``k_pairs * 2m + 1``.  It is assembled with vectorized index arithmetic
and solved with ``scipy.optimize.linprog`` (HiGHS).

With ``return_routing=True`` each source's flow is turned into a
:class:`~repro.core.routing.Routing`: antiparallel arc flow is
cancelled, then for each sink ``s -> t`` paths are peeled by
breadth-first search in the positive-flow support until the sink's
amount is routed, and each pair's path weights are normalized.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

try:
    from scipy import sparse
    from scipy.optimize import linprog
except ImportError:  # pragma: no cover - scipy ships via the [lp] extra
    sparse = None
    linprog = None

from repro.core.routing import Routing
from repro.demands.demand import Demand
from repro.exceptions import InfeasibleError, SolverError
from repro.graphs.network import Network, Path, Vertex
from repro.obs import trace_span

# Flow below this share of a source's supply is LP noise, not support.
_SUPPORT_TOLERANCE = 1e-12


@dataclass(eq=False)
class MinCongestionResult:
    """Result of the min-congestion LP.

    Attributes
    ----------
    congestion:
        The optimal maximum edge congestion ``opt_{G,R}(d)``.
    routing:
        An optimal fractional routing (``None`` unless requested).
    network:
        The network solved on (``None`` for an empty demand).
    utilization:
        Per-edge congestion of the optimal flow, in ``network.edges``
        order (``None`` for an empty demand).
    """

    congestion: float
    routing: Optional[Routing]
    network: Optional[Network] = None
    utilization: Optional[np.ndarray] = field(default=None, repr=False)

    @cached_property
    def edge_congestions(self) -> Dict[Tuple[Vertex, Vertex], float]:
        """Per-edge congestion of the optimal flow, built from ``utilization`` on first read."""
        if self.utilization is None:
            return {}
        return {edge: float(value) for edge, value in zip(self.network.edges, self.utilization)}


def min_congestion_lp(
    network: Network,
    demand: Demand,
    return_routing: bool = False,
) -> MinCongestionResult:
    """Solve the exact fractional min-congestion MCF for ``demand``.

    Parameters
    ----------
    network:
        The network (capacities taken from edge attributes).
    demand:
        The demand matrix; an empty demand yields congestion 0.
    return_routing:
        When True, decompose each source's optimal flow into per-pair
        path distributions and return them as a :class:`Routing`.
    """
    if linprog is None:
        raise SolverError(
            "scipy is required for LP solving; install the 'lp' extra "
            "(pip install repro-semi-oblivious-routing[lp])"
        )
    commodities = [(pair, amount) for pair, amount in demand.items() if amount > 0]
    if not commodities:
        return MinCongestionResult(congestion=0.0, routing=None)

    edges = network.edges
    m = len(edges)
    index = network.vertex_index
    tails = np.array([index(u) for u, _ in edges], dtype=np.int64)
    heads = np.array([index(v) for _, v in edges], dtype=np.int64)
    capacity = np.array([network.capacity_of(edge) for edge in edges], dtype=float)
    source_row: Dict[Vertex, int] = {}
    for (source, _), _ in commodities:
        source_row.setdefault(source, len(source_row))
    k = len(source_row)
    num_vars = k * 2 * m + 1  # + z

    with trace_span("mcf.lp") as span:
        with trace_span("mcf.lp_setup"):
            a_eq, b_eq, a_ub = _source_flow_system(
                network, commodities, source_row, tails, heads, capacity
            )
        span.add("columns", num_vars)
        span.add("rows", a_eq.shape[0] + a_ub.shape[0])
        span.add("nnz", a_eq.nnz + a_ub.nnz)
        span.add("sources", k)
        span.add("pairs", len(commodities))

        cost = np.zeros(num_vars)
        cost[-1] = 1.0
        with trace_span("mcf.lp_solve"):
            result = linprog(
                cost,
                A_ub=a_ub,
                b_ub=np.zeros(m),
                A_eq=a_eq,
                b_eq=b_eq,
                bounds=(0, None),
                method="highs",
            )
        span.add("iterations", int(result.nit))
    if result.status == 2:
        raise InfeasibleError("min-congestion LP is infeasible (disconnected demand?)")
    if not result.success:
        raise SolverError(f"min-congestion LP failed: {result.message}")

    congestion = float(result.x[-1])
    flows = result.x[:-1].reshape(k, m, 2)  # (source, edge, direction u->v / v->u)
    utilization = flows.sum(axis=(0, 2)) / capacity

    routing = None
    if return_routing:
        net_flow = flows[:, :, 0] - flows[:, :, 1]
        routing = _peel_routing(network, commodities, source_row, net_flow, tails, heads)

    return MinCongestionResult(
        congestion=congestion, routing=routing, network=network, utilization=utilization
    )


def _source_flow_system(network, commodities, source_row, tails, heads, capacity):
    """Flow conservation (eq) per source and vertex, capacity coupling (ub) per edge.

    Column ``c * 2m + 2e`` is source ``c``'s flow on edge ``e`` in its
    stored direction, ``c * 2m + 2e + 1`` the reverse; the last column is ``z``.
    """
    n = network.num_vertices
    m = len(tails)
    k = len(source_row)
    arc_tail = np.empty(2 * m, dtype=np.int64)
    arc_head = np.empty(2 * m, dtype=np.int64)
    arc_tail[0::2], arc_tail[1::2] = tails, heads
    arc_head[0::2], arc_head[1::2] = heads, tails

    columns = np.arange(k * 2 * m)
    row_base = (columns // (2 * m)) * n
    arc = columns % (2 * m)
    eq_rows = np.concatenate([row_base + arc_tail[arc], row_base + arc_head[arc]])
    eq_values = np.concatenate([np.ones(columns.size), -np.ones(columns.size)])
    a_eq = sparse.csr_matrix(
        (eq_values, (eq_rows, np.concatenate([columns, columns]))), shape=(k * n, k * 2 * m + 1)
    )

    index = network.vertex_index
    rows = np.array([source_row[source] for (source, _), _ in commodities], dtype=np.int64) * n
    amounts = np.array([amount for _, amount in commodities], dtype=float)
    targets = np.array([index(target) for (_, target), _ in commodities], dtype=np.int64)
    sources = np.array([index(source) for (source, _), _ in commodities], dtype=np.int64)
    b_eq = np.zeros(k * n)
    np.add.at(b_eq, rows + sources, amounts)
    np.add.at(b_eq, rows + targets, -amounts)

    ub_rows = np.concatenate([arc // 2, np.arange(m)])
    ub_columns = np.concatenate([columns, np.full(m, k * 2 * m)])
    ub_values = np.concatenate([np.ones(columns.size), -capacity])
    a_ub = sparse.csr_matrix((ub_values, (ub_rows, ub_columns)), shape=(m, k * 2 * m + 1))
    return a_eq, b_eq, a_ub


def _peel_routing(network, commodities, source_row, net_flow, tails, heads) -> Routing:
    """Per-pair path distributions peeled from each source's cancelled flow."""
    vertices = network.vertices
    weights: Dict[Tuple[Vertex, Vertex], Dict[Path, float]] = {}
    by_source: Dict[Vertex, List[Tuple[Vertex, float]]] = {}
    for (source, target), amount in commodities:
        by_source.setdefault(source, []).append((target, amount))

    for source, sinks in by_source.items():
        flow = net_flow[source_row[source]]
        tolerance = _SUPPORT_TOLERANCE * sum(amount for _, amount in sinks)
        support = np.flatnonzero(np.abs(flow) > tolerance)
        residual = np.abs(flow[support])
        arc_from = np.where(flow[support] > 0, tails[support], heads[support]).tolist()
        arc_to = np.where(flow[support] > 0, heads[support], tails[support]).tolist()
        out_arcs: Dict[int, List[int]] = {}
        for arc, tail in enumerate(arc_from):
            out_arcs.setdefault(tail, []).append(arc)

        start = network.vertex_index(source)
        for target, amount in sinks:
            goal = network.vertex_index(target)
            paths: Dict[Path, float] = {}
            remaining = amount
            while remaining > tolerance:
                arcs = _bfs_arcs(out_arcs, arc_from, arc_to, residual, start, goal, tolerance)
                if arcs is None:
                    break
                sent = min(remaining, float(residual[arcs].min()))
                residual[arcs] -= sent
                remaining -= sent
                path = (vertices[start],) + tuple(vertices[arc_to[arc]] for arc in arcs)
                paths[path] = paths.get(path, 0.0) + sent
            if not paths:
                # Numerical residue only: carry the pair on a shortest path.
                paths = {network.shortest_path(source, target): amount}
            weights[(source, target)] = paths

    distributions = {}
    for pair, _ in commodities:
        total = sum(weights[pair].values())
        distributions[pair] = {path: weight / total for path, weight in weights[pair].items()}
    return Routing(network, distributions)


def _bfs_arcs(out_arcs, arc_from, arc_to, residual, start, goal, tolerance) -> Optional[List[int]]:
    """Arcs of a fewest-hop ``start -> goal`` path with residual flow, or None."""
    parent_arc: Dict[int, int] = {start: -1}
    queue = deque([start])
    while queue:
        vertex = queue.popleft()
        for arc in out_arcs.get(vertex, ()):
            head = arc_to[arc]
            if head in parent_arc or residual[arc] <= tolerance:
                continue
            parent_arc[head] = arc
            if head == goal:
                arcs = []
                while head != start:
                    arcs.append(parent_arc[head])
                    head = arc_from[arcs[-1]]
                return arcs[::-1]
            queue.append(head)
    return None


def optimal_congestion(network: Network, demand: Demand) -> float:
    """Shortcut returning only ``opt_{G,R}(d)``."""
    return min_congestion_lp(network, demand, return_routing=False).congestion


__all__ = ["min_congestion_lp", "MinCongestionResult", "optimal_congestion"]
