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
from typing import Dict, List, Optional

import networkx as nx

from repro.core.routing import Routing
from repro.exceptions import GraphError, RoutingError
from repro.graphs.network import Network, Path, Vertex
from repro.oblivious.base import ObliviousRoutingBuilder


class ShortestPathRouting(ObliviousRoutingBuilder):
    """Deterministic single shortest-path routing.

    Each pair's path is the one ``nx.bidirectional_shortest_path`` returns
    (ties broken by networkx order): :func:`bidirectional_bfs` is an exact
    port of its search over vertex indices, with every vertex's
    neighbours in ``network.graph.adj`` order.
    """

    name = "shortest-path"

    def __init__(self, network: Network) -> None:
        super().__init__(network)
        self._labels = network.vertices
        adjacency = network.graph.adj
        self._neighbours = [
            network.vertex_indices(adjacency[vertex]).tolist() for vertex in network.vertices
        ]

    def distribution_for(self, source: Vertex, target: Vertex) -> Dict[Path, float]:
        network = self.network
        path = bidirectional_bfs(
            self._neighbours, network.vertex_index(source), network.vertex_index(target)
        )
        return {tuple(map(self._labels.__getitem__, path)): 1.0}


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


def bidirectional_bfs(neighbours: List[List[int]], source: int, target: int) -> List[int]:
    """A fewest-hop ``source``–``target`` path over vertex indices.

    An exact port of networkx's ``bidirectional_shortest_path``: it is the
    path networkx returns when ``neighbours[v]`` lists ``v``'s neighbours
    in the graph's adjacency order.
    """
    pred, succ, w = _pred_succ(neighbours, source, target)
    path = []
    while w is not None:
        path.append(w)
        w = pred[w]
    path.reverse()
    w = succ[path[-1]]
    while w is not None:
        path.append(w)
        w = succ[w]
    return path


def _pred_succ(neighbours: List[List[int]], source: int, target: int):
    """Port of networkx's ``_bidirectional_pred_succ`` (undirected).

    The two frontiers grow a level at a time, the smaller first (forward
    on a tie), until a vertex both have reached: returns the predecessor
    map towards ``source``, the successor map towards ``target`` and that
    vertex.
    """
    if target == source:
        return {target: None}, {source: None}, source
    pred: Dict[int, Optional[int]] = {source: None}
    succ: Dict[int, Optional[int]] = {target: None}
    forward_fringe = [source]
    reverse_fringe = [target]
    while forward_fringe and reverse_fringe:
        if len(forward_fringe) <= len(reverse_fringe):
            this_level = forward_fringe
            forward_fringe = []
            for v in this_level:
                for w in neighbours[v]:
                    if w not in pred:
                        forward_fringe.append(w)
                        pred[w] = v
                    if w in succ:
                        return pred, succ, w
        else:
            this_level = reverse_fringe
            reverse_fringe = []
            for v in this_level:
                for w in neighbours[v]:
                    if w not in succ:
                        succ[w] = v
                        reverse_fringe.append(w)
                    if w in pred:
                        return pred, succ, w
    raise GraphError(f"no path between vertex indices {source} and {target}")


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


__all__ = [
    "ShortestPathRouting",
    "KShortestPathRouting",
    "bidirectional_bfs",
    "shortest_path_tree_routing",
]
