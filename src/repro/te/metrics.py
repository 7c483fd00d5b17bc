"""Traffic-engineering metrics.

The SMORE evaluation reports maximum link utilization (equivalently, the
congestion of the routed traffic matrix), utilization percentiles, and
the admissible throughput scale (how much the matrix can be scaled before
some link saturates).

Every function evaluates one demand, so it reads the routing's shared
dict memo (:meth:`Routing.evaluator` with ``"dict"``) and computing
several metrics for the same (routing, demand) pair walks the paths
once.  Functions that reduce an edge-load array also accept the
precomputed array/mapping directly — e.g. a row of
``routing.evaluator("auto").edge_load_matrix(demands)`` when many
demands go through one installed routing.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.routing import Routing
from repro.demands.demand import Demand
from repro.graphs.network import Vertex

Edge = Tuple[Vertex, Vertex]


def max_link_utilization(routing: Routing, demand: Demand) -> float:
    """Maximum link utilization = congestion of the routed demand."""
    return routing.congestion(demand)


def _utilization_array(
    routing: Routing,
    edge_congestions: Union[Mapping[Edge, float], np.ndarray, Sequence[float]],
) -> np.ndarray:
    """Per-edge utilizations over *all* network edges (zero-load included)."""
    if isinstance(edge_congestions, Mapping):
        return np.asarray(
            [edge_congestions.get(edge, 0.0) for edge in routing.network.edges], dtype=float
        )
    array = np.asarray(edge_congestions, dtype=float)
    if array.shape != (routing.network.num_edges,):
        raise ValueError(
            f"edge utilization array has shape {array.shape}, "
            f"expected ({routing.network.num_edges},)"
        )
    return array


def utilization_percentiles(
    routing: Routing,
    demand: Optional[Demand] = None,
    percentiles: Sequence[float] = (50.0, 90.0, 99.0, 100.0),
    edge_congestions: Optional[Union[Mapping[Edge, float], np.ndarray]] = None,
) -> Dict[float, float]:
    """Utilization percentiles across links (links with zero load included).

    Pass ``edge_congestions`` — either the dict returned by
    :meth:`Routing.edge_congestions` or a per-edge array in network
    edge-index order — to reuse an evaluation already in hand; otherwise
    ``demand`` is evaluated through the routing's dict memo.
    """
    if edge_congestions is None:
        if demand is None:
            raise ValueError("need either a demand or a precomputed edge_congestions")
        edge_congestions = routing.edge_congestions(demand)
    values = _utilization_array(routing, edge_congestions)
    if not values.size:
        return {p: 0.0 for p in percentiles}
    return {p: float(np.percentile(values, p)) for p in percentiles}


def throughput_at_capacity(
    routing: Routing,
    demand: Optional[Demand] = None,
    utilization: Optional[float] = None,
) -> float:
    """The largest factor by which ``demand`` can be scaled before saturation.

    With max utilization ``u`` under the given (fractional, linear)
    routing, the demand can be scaled by ``1 / u`` before some link
    reaches 100% utilization.  Returns ``inf`` for zero utilization.
    Pass ``utilization`` to reuse a congestion figure already computed.
    """
    if utilization is None:
        if demand is None:
            raise ValueError("need either a demand or a precomputed utilization")
        utilization = max_link_utilization(routing, demand)
    if utilization <= 0:
        return float("inf")
    return 1.0 / utilization


__all__ = [
    "max_link_utilization",
    "utilization_percentiles",
    "throughput_at_capacity",
]
