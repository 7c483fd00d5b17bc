"""Shortest-path based oblivious routings.

Two baselines:

* :class:`ShortestPathRouting` — the deterministic single shortest path
  per pair.  This is the 1-sparse oblivious routing whose competitiveness
  on hypercubes is Θ̃(√n) ([KKT91]); it anchors experiment E4.
* :class:`KShortestPathRouting` — the uniform distribution over the k
  shortest simple paths, a common traffic-engineering baseline (and the
  path set "KSP" that SMORE compares against).

:func:`shortest_path_tree_routing` builds the single-path routing along
each source's BFS tree in one pass; it is the fixed measurement routing
of the bench targets and the ODME demand axis.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict

import networkx as nx

from repro.core.routing import Routing
from repro.exceptions import RoutingError
from repro.graphs.network import Network, Path, Vertex
from repro.oblivious.base import ObliviousRoutingBuilder


class ShortestPathRouting(ObliviousRoutingBuilder):
    """Deterministic single shortest-path routing (ties broken by networkx order)."""

    name = "shortest-path"

    def distribution_for(self, source: Vertex, target: Vertex) -> Dict[Path, float]:
        path = self.network.shortest_path(source, target)
        return {path: 1.0}


class KShortestPathRouting(ObliviousRoutingBuilder):
    """Uniform distribution over the ``k`` shortest simple paths per pair.

    Parameters
    ----------
    network:
        Underlying network.
    k:
        Number of shortest simple paths to use (fewer when the graph has
        fewer simple paths).
    weight:
        Optional edge attribute to use as path length; hops by default.
    inverse_capacity_weight:
        When True, edge lengths are ``1 / capacity`` so high-capacity
        links are preferred — the usual TE variant.
    """

    name = "k-shortest-paths"

    def __init__(
        self,
        network: Network,
        k: int = 4,
        inverse_capacity_weight: bool = False,
    ) -> None:
        super().__init__(network)
        if k < 1:
            raise RoutingError("k must be at least 1")
        self._k = k
        self._weight_attr = None
        if inverse_capacity_weight:
            self._weight_attr = "_ksp_length"
            for u, v, data in network.graph.edges(data=True):
                data[self._weight_attr] = 1.0 / float(data.get("capacity", 1.0))

    @property
    def k(self) -> int:
        return self._k

    def distribution_for(self, source: Vertex, target: Vertex) -> Dict[Path, float]:
        generator = nx.shortest_simple_paths(
            self.network.graph, source, target, weight=self._weight_attr
        )
        paths = [tuple(path) for path in islice(generator, self._k)]
        if not paths:
            raise RoutingError(f"no path between {source!r} and {target!r}")
        probability = 1.0 / len(paths)
        return {path: probability for path in paths}


def shortest_path_tree_routing(network: Network) -> Routing:
    """Single shortest path per ordered pair, read off one BFS tree per source.

    Not the ``spf`` scheme (:class:`ShortestPathRouting`): that searches
    each pair on its own and ties break differently (20 of the 7656
    ordered pairs of ``isp(pops=8, seed=3)`` get another path), so the
    two routings are kept apart.
    """
    trees = dict(nx.all_pairs_shortest_path(network.graph))
    mapping = {
        (source, target): trees[source][target]
        for source in network.vertices
        for target in network.vertices
        if source != target
    }
    return Routing.single_path(network, mapping)


__all__ = ["ShortestPathRouting", "KShortestPathRouting", "shortest_path_tree_routing"]
