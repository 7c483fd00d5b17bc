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
``k_pairs * 2m + 1``.  It is assembled column-wise with vectorized
index arithmetic and solved by the one HiGHS driver both congestion LPs
share (:mod:`repro.mcf.highs`); the optimum is bit-identical to
``linprog(method="highs")`` on the same model stacked as
``A_ub``/``A_eq``, which the tests keep as the oracle.

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

from repro.core.routing import Routing
from repro.demands.demand import Demand
from repro.graphs.network import Network, Path, Vertex
from repro.mcf import highs
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
    commodities = [(pair, amount) for pair, amount in demand.items() if amount > 0]
    if not commodities:
        return MinCongestionResult(congestion=0.0, routing=None)

    m = network.num_edges
    tails, heads = network.endpoints.T
    capacity = network.capacities
    sources = dict.fromkeys(source for (source, _), _ in commodities)  # first-seen order
    source_row: Dict[Vertex, int] = {source: row for row, source in enumerate(sources)}
    k = len(source_row)

    with trace_span("mcf.lp") as span:
        with trace_span("mcf.lp_setup"):
            model, rhs = _source_flow_model(
                network, commodities, source_row, tails, heads, capacity
            )
        span.add("columns", len(model[0]))
        span.add("rows", m + len(rhs))
        span.add("nnz", len(model[2]))
        span.add("sources", k)
        span.add("pairs", len(commodities))
        with trace_span("mcf.lp_solve"):
            solution = highs.solve(*model, m, rhs, "min-congestion LP")
        span.add("iterations", solution.iterations)

    flows = solution.x[:-1].reshape(k, m, 2)  # (source, edge, direction u->v / v->u)
    utilization = flows.sum(axis=(0, 2)) / capacity

    routing = None
    if return_routing:
        net_flow = flows[:, :, 0] - flows[:, :, 1]
        routing = _peel_routing(network, commodities, source_row, net_flow, tails, heads)

    return MinCongestionResult(
        congestion=float(solution.x[-1]), routing=routing, network=network,
        utilization=utilization,
    )


def _source_flow_model(network, commodities, source_row, tails, heads, capacity):
    """The column-wise model and the conservation right-hand side.

    Column ``c * 2m + 2e`` is source ``c``'s flow on edge ``e`` in its
    stored direction, ``c * 2m + 2e + 1`` the reverse; it holds its edge's
    capacity row ``e``, then its tail's (+1) and head's (-1) conservation
    rows ``m + c * n + vertex``, in ascending row order.  The last column
    is ``z``, holding ``-c`` on the edge rows.
    """
    n, m, k = network.num_vertices, len(tails), len(source_row)
    low, high = np.minimum(tails, heads), np.maximum(tails, heads)
    # Arc 2e runs tail -> head, arc 2e + 1 back: +1 on its tail's row, -1 on its head's.
    on_low = np.stack([np.where(tails < heads, 1.0, -1.0)] * 2, axis=1) * [1.0, -1.0]
    arc_rows = np.repeat(np.stack([np.arange(m), m + low, m + high], axis=1), 2, axis=0)
    arc_values = np.stack([np.ones(2 * m), on_low.ravel(), -on_low.ravel()], axis=1)
    shift = np.multiply.outer(np.arange(k) * n, [0, 1, 1])[:, None, :]
    index = np.concatenate([(arc_rows + shift).ravel(), np.arange(m)]).astype(np.int32)
    value = np.concatenate([np.tile(arc_values.ravel(), k), -capacity])
    start = np.arange(0, 3 * k * 2 * m + 1, 3, dtype=np.int32)

    index_of = network.vertex_index
    rows = np.array([source_row[source] for (source, _), _ in commodities], dtype=np.int64) * n
    ends = np.array([[index_of(s), index_of(t)] for (s, t), _ in commodities], dtype=np.int64)
    amounts = np.array([amount for _, amount in commodities], dtype=float)
    rhs = np.zeros(k * n)
    np.add.at(rhs, rows + ends[:, 0], amounts)
    np.add.at(rhs, rows + ends[:, 1], -amounts)
    return (start, index, value), rhs


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
