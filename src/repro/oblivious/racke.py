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
Each tree is kept as two int arrays over vertex indices: every vertex's
parent (the root is its own parent) and its depth.  The shortest-path
tree comes from one ``scipy.sparse.csgraph.dijkstra`` call from the root
on a CSR graph built once per builder, whose arc weights each tree
overwrites.  The relative loads take subtree sizes from the parent
array, accumulated level by level from the deepest.

A tree has exactly one simple ``s``–``t`` path, so no per-pair graph
search runs: :meth:`RaeckeTreeRouting.tree_path` walks both endpoints up
to their lowest common ancestor, and :meth:`RaeckeTreeRouting.routing`
reads the paths of every pair at once from an ancestor table
(``anc[k]`` maps each vertex to its ``k``-th ancestor) in numpy.

Ties
----
With ``perturbation > 0`` the edge lengths carry continuous noise, so
equal-distance ties have probability zero and each tree is the one
networkx's Dijkstra builds from the same lengths.  With
``perturbation=0`` ties are common (uniform capacities); a tie keeps the
predecessor csgraph's heap settles first, which can differ from
networkx's order.  The tree is still a spanning shortest-path tree, and
the same seed gives the same trees.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from repro.core.path_system import IndexPaths, row_slots
from repro.exceptions import GraphError, RoutingError
from repro.graphs.network import Network, Path, Vertex
from repro.oblivious.base import ObliviousRoutingBuilder, Pair
from repro.utils.rng import RngLike, ensure_rng

#: A routing tree over vertex indices: each vertex's parent (the root's is
#: itself) and depth.
Tree = Tuple[np.ndarray, np.ndarray]


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
        building each tree (diversifies the tree collection).  At ``0``
        equal-distance ties keep the predecessor csgraph's Dijkstra
        settles first, not networkx's: each tree is still a spanning
        shortest-path tree and deterministic for a seed, but may differ
        from the tree networkx would pick.
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
        self._labels = network.vertices
        self._trees: List[Tree] = []
        # The same trees as lists, for the per-pair walk of ``tree_path``.
        self._walks: List[Tuple[List[int], List[int]]] = []
        self._tree_weights: List[float] = []
        self._build_trees()

    # ------------------------------------------------------------------ #
    # Tree construction
    # ------------------------------------------------------------------ #
    @property
    def trees(self) -> List[nx.Graph]:
        """The routing trees (spanning trees of the network), built from the parent arrays."""
        labels = self._labels
        graphs = []
        for parent, _ in self._trees:
            tree = nx.Graph()
            tree.add_nodes_from(self.network.graph.nodes())
            tree.add_edges_from(
                (labels[v], labels[u]) for v, u in enumerate(parent.tolist()) if u != v
            )
            graphs.append(tree)
        return graphs

    @property
    def tree_weights(self) -> List[float]:
        """Mixture weights over trees (sum to 1)."""
        return list(self._tree_weights)

    def _build_trees(self) -> None:
        network = self.network
        n = network.num_vertices
        capacities = network.capacities
        lengths = 1.0 / capacities
        # One Dijkstra graph over both arcs of every edge; each tree
        # overwrites its arc weights.
        indptr, heads, arc_edges = network.arcs_csr()
        graph = sparse.csr_matrix((np.ones(len(heads)), heads, indptr), shape=(n, n))
        for _ in range(self._num_trees):
            noise = 1.0 + self._perturbation * self._rng.random(len(lengths))
            graph.data[:] = (lengths * noise)[arc_edges]
            parent, depth = _shortest_path_tree(graph, int(self._rng.integers(0, n)))
            self._trees.append((parent, depth))
            self._walks.append((parent.tolist(), depth.tolist()))
            # Relative loads: removing the tree edge above ``child`` splits
            # the vertices into ``below`` and ``n - below``; the uniform
            # all-pairs demand sends ``below * (n - below)`` units over it.
            # Non-tree edges receive no load.
            child = np.flatnonzero(parent != np.arange(n))
            edges = network.arc_edge_ids(child, parent[child])
            below = _subtree_sizes(parent, depth)[child]
            loads = below * (n - below) / capacities[edges]
            max_load = loads.max() if len(loads) else 1.0
            if max_load <= 0:
                max_load = 1.0
            # math.exp, not np.exp: numpy does not promise the same last bit.
            lengths[edges] *= [math.exp(x) for x in (self._epsilon * loads / max_load).tolist()]
        # Uniform mixture: each tree contributes equally.  (Weighting trees
        # by inverse max relative load gave no measurable improvement in
        # calibration runs and complicates reproducibility, so we keep the
        # uniform mixture and let the MWU length updates do the balancing.)
        self._tree_weights = [1.0 / len(self._trees)] * len(self._trees)

    # ------------------------------------------------------------------ #
    # Distribution per pair
    # ------------------------------------------------------------------ #
    def tree_path(self, index: int, source: Vertex, target: Vertex) -> Path:
        """The unique ``source``–``target`` path of tree ``index``.

        Walks the deeper endpoint up to the other's depth, then both
        together until they meet at their lowest common ancestor.
        """
        parent, depth = self._walks[index]
        u = self.network.vertex_index(source)
        v = self.network.vertex_index(target)
        up, down = [u], [v]
        while depth[u] > depth[v]:
            u = parent[u]
            up.append(u)
        while depth[v] > depth[u]:
            v = parent[v]
            down.append(v)
        while u != v:
            u, v = parent[u], parent[v]
            up.append(u)
            down.append(v)
        down.pop()
        up.extend(reversed(down))
        labels = self._labels
        return tuple([labels[vertex] for vertex in up])

    def distribution_for(self, source: Vertex, target: Vertex) -> Dict[Path, float]:
        distribution: Dict[Path, float] = {}
        for index, weight in enumerate(self._tree_weights):
            path = self.tree_path(index, source, target)
            distribution[path] = distribution.get(path, 0.0) + weight
        return distribution

    def _index_paths(self, pairs: Sequence[Pair]) -> IndexPaths:
        """Every tree's path of every pair, pair by pair in tree order, from the ancestor tables."""
        ends = self.network.vertex_indices(chain.from_iterable(pairs)).reshape(-1, 2)
        if (ends < 0).any():
            raise GraphError("both endpoints of every pair must be network vertices")
        walks = [_tree_paths(*tree, ends[:, 0], ends[:, 1]) for tree in self._trees]
        # Row ``q * trees + k`` is pair ``q``'s path in tree ``k``.
        counts = np.column_stack([count for count, _ in walks]).ravel()
        indptr = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        vertices = np.empty(indptr[-1], dtype=np.int64)
        for index, (count, flat) in enumerate(walks):
            row, offset = row_slots(count)
            vertices[indptr[index:-1:len(walks)][row] + offset] = flat
        return IndexPaths(
            path_ptr=np.arange(len(pairs) + 1, dtype=np.int64) * len(walks),
            indptr=indptr,
            vertices=vertices,
            probs=np.tile(self._tree_weights, len(pairs)),
        )

    def sample_path(self, source: Vertex, target: Vertex, rng: RngLike = None) -> Path:
        """Draw one path: pick a tree by weight, return its unique (s, t)-path."""
        generator = ensure_rng(rng) if rng is not None else self._rng
        index = int(generator.choice(len(self._trees), p=self._tree_weights))
        return self.tree_path(index, source, target)


def _shortest_path_tree(graph: sparse.csr_matrix, root: int) -> Tree:
    """The Dijkstra tree of ``graph`` from ``root``: parent (the root's is itself) and depth."""
    _, parent = csgraph.dijkstra(graph, indices=root, return_predecessors=True)
    parent = parent.astype(np.int64)
    parent[root] = root
    if (parent < 0).any():
        raise RoutingError("failed to build a spanning routing tree")
    # Pointer jumping: ``depth[v]`` counts the steps from ``v`` to ``jump[v]``.
    depth = (parent != np.arange(len(parent))).astype(np.int64)
    jump = parent
    while (jump != root).any():
        depth += depth[jump]
        jump = jump[jump]
    return parent, depth


def _subtree_sizes(parent: np.ndarray, depth: np.ndarray) -> np.ndarray:
    """Vertices in each vertex's subtree, accumulated level by level from the deepest."""
    size = np.ones(len(parent), dtype=np.int64)
    order = np.argsort(depth, kind="stable")
    bounds = np.searchsorted(depth[order], np.arange(depth.max() + 2))
    for level in range(depth.max(), 0, -1):
        nodes = order[bounds[level]:bounds[level + 1]]
        np.add.at(size, parent[nodes], size[nodes])
    return size


def _tree_paths(
    parent: np.ndarray, depth: np.ndarray, sources: np.ndarray, targets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The tree path of every ``sources[i]``–``targets[i]``: vertex counts, and vertices flat.

    ``anc[k][v]`` is the ``k``-th ancestor of ``v`` (the root is its own
    parent).  Both endpoints are lifted to their common depth; a binary
    search then finds how many more steps reach the lowest common
    ancestor, and the path is the source's ancestors up to it followed by
    the target's, reversed.
    """
    anc = np.empty((depth.max() + 1, len(parent)), dtype=np.int64)
    anc[0] = np.arange(len(parent))
    for k in range(1, len(anc)):
        anc[k] = parent[anc[k - 1]]
    common = np.minimum(depth[sources], depth[targets])
    up = depth[sources] - common
    down = depth[targets] - common
    lifted_source = anc[up, sources]
    lifted_target = anc[down, targets]
    # Smallest k with a shared k-th ancestor; k = common (the root) always works.
    low, high = np.zeros_like(common), common
    while (low < high).any():
        mid = (low + high) // 2
        shared = anc[mid, lifted_source] == anc[mid, lifted_target]
        high = np.where(shared, mid, high)
        low = np.where(shared, low, mid + 1)
    up += low
    down += low
    counts = up + down + 1
    starts = np.cumsum(counts) - counts
    flat = np.empty(int(counts.sum()), dtype=np.int64)
    row, step = row_slots(up + 1)
    flat[starts[row] + step] = anc[step, sources[row]]
    row, step = row_slots(down)
    flat[starts[row] + counts[row] - 1 - step] = anc[step, targets[row]]
    return counts, flat


__all__ = ["RaeckeTreeRouting"]
