"""Random graph generators used as ISP-like evaluation substrates.

The SMORE traffic-engineering evaluation ([KYY+18]) used proprietary ISP
topologies; we substitute synthetic topologies with comparable structure:
Waxman random geometric graphs (the standard ISP-like generator),
connected Erdos–Renyi graphs, and random geometric networks.  See
docs/ARCHITECTURE.md, "Substitutions".
"""

from __future__ import annotations

import math
from typing import Optional

import networkx as nx
import numpy as np

from repro.exceptions import GraphError
from repro.graphs.network import Network
from repro.utils.rng import RngLike, ensure_rng


def waxman_isp(
    n: int,
    alpha: float = 0.4,
    beta: float = 0.25,
    capacity_levels: Optional[tuple] = (1.0, 4.0, 10.0),
    rng: RngLike = None,
) -> Network:
    """A Waxman random graph with heterogeneous link capacities.

    Vertices are placed uniformly in the unit square; an edge (u, v) is
    present with probability ``alpha * exp(-dist(u, v) / (beta * L))``
    where ``L`` is the maximum distance.  Capacities are drawn from
    ``capacity_levels`` with probability decreasing in link length, which
    mimics ISP backbones (short metro links are fat, long-haul links are
    scarcer but also fat, access links are thin).
    """
    if n < 3:
        raise GraphError("waxman_isp needs n >= 3")
    generator = ensure_rng(rng)
    positions = generator.random((n, 2))
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    max_dist = math.sqrt(2.0)
    for u in range(n):
        for v in range(u + 1, n):
            dist = float(np.linalg.norm(positions[u] - positions[v]))
            probability = alpha * math.exp(-dist / (beta * max_dist))
            if generator.random() < probability:
                if capacity_levels:
                    level = int(generator.integers(0, len(capacity_levels)))
                    capacity = float(capacity_levels[level])
                else:
                    capacity = 1.0
                graph.add_edge(u, v, capacity=capacity)
    # Backbone ring over a geographic ordering: guarantees connectivity and
    # a minimum degree of 2 (every real ISP graph is at least 2-connected).
    order = sorted(range(n), key=lambda v: math.atan2(positions[v][1] - 0.5, positions[v][0] - 0.5))
    ring_capacity = float(capacity_levels[-1]) if capacity_levels else 1.0
    for index, u in enumerate(order):
        v = order[(index + 1) % n]
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, capacity=ring_capacity)
    return Network(graph, name=f"waxman-{n}")


def erdos_renyi_connected(n: int, p: float, rng: RngLike = None, max_tries: int = 50) -> Network:
    """A connected Erdos–Renyi G(n, p) graph (resampled until connected)."""
    if n < 2 or not (0.0 < p <= 1.0):
        raise GraphError("need n >= 2 and 0 < p <= 1")
    generator = ensure_rng(rng)
    for _ in range(max_tries):
        seed = int(generator.integers(0, 2**31 - 1))
        graph = nx.gnp_random_graph(n, p, seed=seed)
        if nx.is_connected(graph):
            nx.set_edge_attributes(graph, 1.0, "capacity")
            return Network(graph, name=f"gnp-{n}-{p}")
    raise GraphError("failed to sample a connected G(n, p); increase p")


def random_geometric_network(n: int, radius: float = 0.3, rng: RngLike = None, max_tries: int = 50) -> Network:
    """A connected random geometric graph in the unit square."""
    if n < 2 or radius <= 0:
        raise GraphError("need n >= 2 and radius > 0")
    generator = ensure_rng(rng)
    for _ in range(max_tries):
        seed = int(generator.integers(0, 2**31 - 1))
        graph = nx.random_geometric_graph(n, radius, seed=seed)
        if nx.is_connected(graph):
            nx.set_edge_attributes(graph, 1.0, "capacity")
            return Network(graph, name=f"geometric-{n}")
    raise GraphError("failed to sample a connected geometric graph; increase radius")


__all__ = ["waxman_isp", "erdos_renyi_connected", "random_geometric_network"]
