"""Practical Räcke-style oblivious routing: MWU over congestion-aware trees.

The paper samples from Räcke's O(log n)-competitive oblivious routing
[Räc08], whose exact construction (hierarchical cut-based decompositions)
is intricate.  We implement the *practical* variant used by traffic
engineering systems (SMORE) and by experimental studies of oblivious
routing: a multiplicative-weights iteration over routing trees.

Construction
------------
We maintain per-edge lengths, initialized to ``1 / capacity``.  Each
iteration:

1. builds a spanning routing tree that prefers short (i.e. currently
   uncongested) edges — a shortest-path tree from a random root under
   randomized perturbations of the current lengths;
2. measures the *relative load* the tree places on each edge (routing the
   uniform all-pairs demand over the tree, divided by capacity);
3. multiplies the length of every edge by ``exp(epsilon * load_e /
   max_load)`` so that later trees avoid the edges the earlier trees
   overloaded.

The final oblivious routing assigns each pair the uniform mixture over
the per-tree unique paths (duplicate paths merged).  The competitiveness
of the construction is *measured* (experiment E10) rather than assumed;
on the evaluated topologies it is a small factor, which is all that
Theorem 5.3 needs from its sampling source.

Representation
--------------
Each tree is kept as the parent map (and per-vertex depth) of the
shortest-path tree it comes from, rooted at its Dijkstra root.  A tree
has exactly one simple ``s``–``t`` path, so a path is read off the map
by walking both endpoints up to their lowest common ancestor, O(depth)
steps; no per-pair graph search runs.  The relative loads use the same
map: subtree sizes accumulate in order of decreasing depth.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.exceptions import RoutingError
from repro.graphs.network import Network, Path, Vertex
from repro.oblivious.base import ObliviousRoutingBuilder
from repro.utils.rng import RngLike, ensure_rng

#: A routing tree: each vertex's parent (``None`` at the root) and depth.
ParentMap = Dict[Vertex, Optional[Vertex]]
DepthMap = Dict[Vertex, int]


class RaeckeTreeRouting(ObliviousRoutingBuilder):
    """MWU-over-trees oblivious routing (practical Räcke construction).

    Parameters
    ----------
    network:
        Underlying network.
    num_trees:
        Number of routing trees (defaults to ``ceil(log2 n) + 1``).
    epsilon:
        Multiplicative-weights learning rate.
    perturbation:
        Relative random perturbation applied to edge lengths when
        building each tree (diversifies the tree collection).
    rng:
        Randomness source (seed, Generator, or None).
    """

    name = "raecke-trees"

    def __init__(
        self,
        network: Network,
        num_trees: Optional[int] = None,
        epsilon: float = 0.5,
        perturbation: float = 0.3,
        rng: RngLike = None,
    ) -> None:
        super().__init__(network)
        if num_trees is None:
            num_trees = max(2, int(math.ceil(math.log2(max(network.num_vertices, 2)))) + 1)
        if num_trees < 1:
            raise RoutingError("num_trees must be at least 1")
        self._num_trees = num_trees
        self._epsilon = epsilon
        self._perturbation = perturbation
        self._rng = ensure_rng(rng)
        self._trees: List[Tuple[ParentMap, DepthMap]] = []
        self._tree_weights: List[float] = []
        self._build_trees()

    # ------------------------------------------------------------------ #
    # Tree construction
    # ------------------------------------------------------------------ #
    @property
    def trees(self) -> List[nx.Graph]:
        """The routing trees (spanning trees of the network), built from the parent maps."""
        graphs = []
        for parent, _ in self._trees:
            tree = nx.Graph()
            tree.add_nodes_from(self.network.graph.nodes())
            tree.add_edges_from((v, u) for v, u in parent.items() if u is not None)
            graphs.append(tree)
        return graphs

    @property
    def tree_weights(self) -> List[float]:
        """Mixture weights over trees (sum to 1)."""
        return list(self._tree_weights)

    def _build_trees(self) -> None:
        edges = self.network.edges
        lengths: List[float] = [1.0 / self.network.capacity_of(edge) for edge in edges]
        # One Dijkstra graph; each tree rewrites its edge weights in place, so
        # adjacency order and tie-breaks are those of a graph built per tree.
        weighted = nx.Graph()
        weighted.add_edges_from(edges)
        slots = [weighted[u][v] for u, v in edges]
        for _ in range(self._num_trees):
            parent, depth = self._congestion_aware_tree(weighted, slots, lengths)
            self._trees.append((parent, depth))
            loads = self._relative_loads(parent, depth)
            max_load = max(loads.values(), default=1.0)
            if max_load <= 0:
                max_load = 1.0
            for edge_id, load in loads.items():
                lengths[edge_id] *= math.exp(self._epsilon * load / max_load)
        # Uniform mixture: each tree contributes equally.  (Weighting trees
        # by inverse max relative load gave no measurable improvement in
        # calibration runs and complicates reproducibility, so we keep the
        # uniform mixture and let the MWU length updates do the balancing.)
        self._tree_weights = [1.0 / len(self._trees)] * len(self._trees)

    def _congestion_aware_tree(
        self, weighted: nx.Graph, slots: List[Dict[str, float]], lengths: List[float]
    ) -> Tuple[ParentMap, DepthMap]:
        """A shortest-path tree from a random root (``slots[i]``: edge ``i``'s weight dict)."""
        for slot, base in zip(slots, lengths):
            noise = 1.0 + self._perturbation * float(self._rng.random())
            slot["weight"] = base * noise
        root_index = int(self._rng.integers(0, self.network.num_vertices))
        root = self.network.vertices[root_index]
        _, paths = nx.single_source_dijkstra(weighted, root, weight="weight")
        if len(paths) != self.network.num_vertices:
            raise RoutingError("failed to build a spanning routing tree")
        parent: ParentMap = {v: (path[-2] if len(path) > 1 else None) for v, path in paths.items()}
        depth: DepthMap = {v: len(path) - 1 for v, path in paths.items()}
        return parent, depth

    def _relative_loads(self, parent: ParentMap, depth: DepthMap) -> Dict[int, float]:
        """Relative load each network edge (by id) receives when the uniform demand rides the tree.

        Removing a tree edge splits the vertices into two sides of sizes
        ``a`` and ``n - a``; the uniform all-pairs demand sends ``a * (n -
        a)`` units over that edge.  Non-tree edges receive no load.
        """
        n = self.network.num_vertices
        loads: Dict[int, float] = {}
        subtree_size = {vertex: 1 for vertex in parent}
        for vertex in sorted(parent, key=depth.__getitem__, reverse=True):
            above = parent[vertex]
            if above is None:
                continue
            below = subtree_size[vertex]
            subtree_size[above] += below
            edge_id = self.network.edge_index(vertex, above)
            loads[edge_id] = below * (n - below) / self.network.capacity(vertex, above)
        return loads

    # ------------------------------------------------------------------ #
    # Distribution per pair
    # ------------------------------------------------------------------ #
    def tree_path(self, index: int, source: Vertex, target: Vertex) -> Path:
        """The unique ``source``–``target`` path of tree ``index``.

        Walks the deeper endpoint up to the other's depth, then both
        together until they meet at their lowest common ancestor.
        """
        parent, depth = self._trees[index]
        up = [source]
        down = [target]
        while depth[up[-1]] > depth[down[-1]]:
            up.append(parent[up[-1]])
        while depth[down[-1]] > depth[up[-1]]:
            down.append(parent[down[-1]])
        while up[-1] != down[-1]:
            up.append(parent[up[-1]])
            down.append(parent[down[-1]])
        down.pop()
        return tuple(up + down[::-1])

    def distribution_for(self, source: Vertex, target: Vertex) -> Dict[Path, float]:
        distribution: Dict[Path, float] = {}
        for index, weight in enumerate(self._tree_weights):
            path = self.tree_path(index, source, target)
            distribution[path] = distribution.get(path, 0.0) + weight
        return distribution

    def sample_path(self, source: Vertex, target: Vertex, rng: RngLike = None) -> Path:
        """Draw one path: pick a tree by weight, return its unique (s, t)-path."""
        generator = ensure_rng(rng) if rng is not None else self._rng
        index = int(generator.choice(len(self._trees), p=self._tree_weights))
        return self.tree_path(index, source, target)


__all__ = ["RaeckeTreeRouting"]
