"""The :class:`Network` abstraction used throughout the library.

The paper works with undirected connected graphs where parallel edges play
the role of capacities (Section 4).  ``Network`` wraps a
:class:`networkx.Graph` with per-edge capacities (a capacity-``c`` edge is
equivalent to ``c`` parallel unit edges), and provides:

* canonical vertex indexing (for LP column layouts), and edge capacities
  and endpoint vertex indices as read-only arrays in edge-id order,
* edge ids from one interned adjacency map ``{u: {v: edge_id}}`` for every
  hot lookup (:func:`edge_key` is kept only for the public edge keys),
* directed-arc iteration,
* path validation (simple, adjacent, correct endpoints), per path on
  vertex labels or in bulk on vertex indices (:meth:`Network.vertex_indices`,
  :meth:`Network.arc_edge_ids`),
* congestion accounting for weighted path collections,
* shortest paths (one networkx search per call; nothing is cached) and
  the connectivity check at construction.

Paths are represented everywhere as tuples of vertices
``(v0, v1, ..., vk)`` with ``v0`` the source and ``vk`` the destination.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.exceptions import GraphError, PathError

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]
Path = Tuple[Vertex, ...]


def edge_key(u: Vertex, v: Vertex) -> Edge:
    """Return the canonical (order-independent) key for the undirected edge {u, v}.

    Endpoints are ordered by ``repr``, so an equal vertex of another type
    (``np.int64(10)`` for ``10``) orders differently; a :class:`Network`
    finds edge ids through its adjacency map instead.
    """
    return (u, v) if repr(u) <= repr(v) else (v, u)


def path_edges(path: Sequence[Vertex]) -> List[Edge]:
    """Return the canonical edge keys traversed by ``path`` (in order)."""
    return [edge_key(path[i], path[i + 1]) for i in range(len(path) - 1)]


class Network:
    """An undirected, capacitated, connected communication network.

    Parameters
    ----------
    graph:
        A networkx ``Graph`` or ``MultiGraph``.  Multi-edges are collapsed
        into a single edge whose capacity is the number of parallel edges
        (plus any explicit ``capacity`` attributes).
    name:
        Optional human-readable topology name.
    require_connected:
        When True (default) a :class:`GraphError` is raised for
        disconnected or empty graphs, matching the paper's standing
        assumption of connected graphs.
    """

    def __init__(
        self,
        graph: nx.Graph,
        name: str = "network",
        require_connected: bool = True,
    ) -> None:
        if graph.number_of_nodes() == 0:
            raise GraphError("network must have at least one vertex")
        simple = nx.Graph()
        # Node/edge attributes (labels, coordinates, latencies from the
        # ingestion layer) are preserved; only ``capacity`` is interpreted.
        simple.add_nodes_from((node, dict(data)) for node, data in graph.nodes(data=True))
        if isinstance(graph, (nx.MultiGraph, nx.MultiDiGraph)):
            edge_iter: Iterable = graph.edges(keys=False, data=True)
        else:
            edge_iter = graph.edges(data=True)
        for u, v, data in edge_iter:
            if u == v:
                continue  # self-loops carry no traffic
            try:
                capacity = float(data.get("capacity", 1.0))
            except (TypeError, ValueError):
                raise GraphError(
                    f"edge {(u, v)!r} has non-numeric capacity {data.get('capacity')!r}"
                ) from None
            # NaN compares False against every threshold: check finiteness
            # explicitly or it slips through and poisons congestion math.
            if not math.isfinite(capacity) or capacity <= 0:
                raise GraphError(
                    f"edge {(u, v)!r} has non-positive or non-finite capacity {capacity}"
                )
            extra = {key: value for key, value in data.items() if key != "capacity"}
            if simple.has_edge(u, v):
                simple[u][v]["capacity"] += capacity
                for key, value in extra.items():
                    simple[u][v].setdefault(key, value)
            else:
                simple.add_edge(u, v, capacity=capacity, **extra)
        if require_connected and not nx.is_connected(simple):
            raise GraphError("network must be connected")
        self._graph = simple
        self.name = name
        self._vertices: List[Vertex] = list(simple.nodes())
        self._vertex_index: Dict[Vertex, int] = {v: i for i, v in enumerate(self._vertices)}
        # Any equal label (np.int64(3) for 3) -> the network's own vertex object.
        self._own: Dict[Vertex, Vertex] = {v: v for v in self._vertices}
        self._edges: List[Edge] = sorted((edge_key(u, v) for u, v in simple.edges()), key=repr)
        self._capacities: List[float] = [float(simple[u][v]["capacity"]) for u, v in self._edges]
        self._capacity_array = np.array(self._capacities)
        self._capacity_array.flags.writeable = False
        index = self._vertex_index
        self._endpoints = np.fromiter(
            ((index[u], index[v]) for u, v in self._edges),
            dtype=np.dtype((np.int64, 2)), count=len(self._edges),
        )
        self._endpoints.flags.writeable = False
        # Both arcs of every edge as sorted keys ``tail * n + head``, with their edge ids.
        n = len(self._vertices)
        keys = np.concatenate([
            self._endpoints[:, 0] * n + self._endpoints[:, 1],
            self._endpoints[:, 1] * n + self._endpoints[:, 0],
        ])
        order = np.argsort(keys)
        self._arc_keys = keys[order]
        self._arc_edges = np.tile(np.arange(len(self._edges), dtype=np.int64), 2)[order]
        self._arc_keys.flags.writeable = self._arc_edges.flags.writeable = False
        self._adjacent: Dict[Vertex, Dict[Vertex, int]] = {v: {} for v in self._vertices}
        for index, (u, v) in enumerate(self._edges):
            self._adjacent[u][v] = self._adjacent[v][u] = index

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> nx.Graph:
        """The underlying networkx graph (capacities stored on edges)."""
        return self._graph

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def vertices(self) -> List[Vertex]:
        """Vertices in canonical (indexing) order."""
        return list(self._vertices)

    @property
    def edges(self) -> List[Edge]:
        """Canonical undirected edge keys in indexing order."""
        return list(self._edges)

    @property
    def capacities(self) -> np.ndarray:
        """Edge capacities in :attr:`edges` (edge-id) order, as one read-only array."""
        return self._capacity_array

    @property
    def endpoints(self) -> np.ndarray:
        """Each edge's two end vertex indices, an ``(m, 2)`` read-only array in edge-id order."""
        return self._endpoints

    def vertex_index(self, vertex: Vertex) -> int:
        try:
            return self._vertex_index[vertex]
        except KeyError as exc:
            raise GraphError(f"vertex {vertex!r} is not in the network") from exc

    def edge_index(self, u: Vertex, v: Vertex) -> int:
        """Position of the undirected edge {u, v} in :attr:`edges`."""
        try:
            return self._adjacent[u][v]
        except (KeyError, TypeError):
            raise GraphError(f"edge {(u, v)!r} is not in the network") from None

    def path_edge_ids(self, path: Sequence[Vertex]) -> List[int]:
        """The ids of the edges ``path`` traverses, in order."""
        adjacent = self._adjacent
        try:
            return [adjacent[u][v] for u, v in zip(path, path[1:])]
        except (KeyError, TypeError):
            # Walk again through edge_index for the typed error naming the bad step.
            return [self.edge_index(u, v) for u, v in zip(path, path[1:])]

    def vertex_indices(self, vertices: Iterable[Vertex]) -> np.ndarray:
        """Each of ``vertices``' index as an int64 array, ``-1`` for a label not in the network."""
        return np.fromiter(map(self._vertex_index.get, vertices, repeat(-1)), np.int64)

    def arc_edge_ids(self, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
        """Edge ids of the arcs ``tails[i] -> heads[i]`` (vertex indices); ``-1`` if not adjacent.

        One ``searchsorted`` of the arcs' keys ``tail * n + head`` into the
        sorted keys of both arcs of every edge.
        """
        keys = np.asarray(tails, dtype=np.int64) * self.num_vertices + heads
        if not len(self._arc_keys):
            return np.full(len(keys), -1, dtype=np.int64)
        slots = np.minimum(np.searchsorted(self._arc_keys, keys), len(self._arc_keys) - 1)
        return np.where(self._arc_keys[slots] == keys, self._arc_edges[slots], -1)

    def arcs_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Both arcs of every edge, CSR by tail: ``(indptr, heads, edge_ids)``, heads ascending."""
        n = self.num_vertices
        indptr = np.searchsorted(self._arc_keys, np.arange(n + 1) * n)
        return indptr, self._arc_keys % n, self._arc_edges

    def has_vertex(self, vertex: Vertex) -> bool:
        return vertex in self._vertex_index

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        try:
            return v in self._adjacent.get(u, ())
        except TypeError:
            return False

    def capacity(self, u: Vertex, v: Vertex) -> float:
        """Capacity of the undirected edge {u, v}."""
        return self._capacities[self.edge_index(u, v)]

    def capacity_of(self, edge: Edge) -> float:
        return self.capacity(edge[0], edge[1])

    def neighbors(self, vertex: Vertex) -> List[Vertex]:
        if not self.has_vertex(vertex):
            raise GraphError(f"vertex {vertex!r} is not in the network")
        return list(self._graph.neighbors(vertex))

    def degree(self, vertex: Vertex) -> int:
        if not self.has_vertex(vertex):
            raise GraphError(f"vertex {vertex!r} is not in the network")
        return self._graph.degree(vertex)

    def max_degree(self) -> int:
        return max(dict(self._graph.degree()).values())

    def arcs(self) -> Iterator[Tuple[Vertex, Vertex]]:
        """Iterate both orientations of every undirected edge."""
        for u, v in self._edges:
            yield (u, v)
            yield (v, u)

    def vertex_pairs(self, ordered: bool = False) -> Iterator[Tuple[Vertex, Vertex]]:
        """Iterate distinct vertex pairs (unordered by default)."""
        vertices = self._vertices
        for i, u in enumerate(vertices):
            start = 0 if ordered else i + 1
            for j in range(start, len(vertices)):
                v = vertices[j]
                if u == v:
                    continue
                yield (u, v)

    # ------------------------------------------------------------------ #
    # Path helpers
    # ------------------------------------------------------------------ #
    def validate_path(self, path: Sequence[Vertex], source: Vertex = None, target: Vertex = None) -> Path:
        """Validate ``path`` and return it as a canonical tuple.

        The path must have at least one vertex, be simple (no repeated
        vertices), have consecutive vertices adjacent in the network, and
        (when given) match the requested ``source`` and ``target``.  The
        tuple holds the network's own vertex objects, so its edge keys
        are the network's even for equal labels of another type.
        """
        if len(path) == 0:
            raise PathError("a path must contain at least one vertex")
        if len(set(path)) != len(path):
            raise PathError(f"path {tuple(path)!r} is not simple")
        own = self._own
        try:
            canonical: Path = tuple([own[vertex] for vertex in path])
        except KeyError:
            vertex = next(vertex for vertex in path if vertex not in own)
            raise PathError(f"path vertex {vertex!r} is not in the network") from None
        adjacent = self._adjacent
        for u, v in zip(canonical, canonical[1:]):
            if v not in adjacent[u]:
                raise PathError(f"path step {(u, v)!r} is not an edge of the network")
        if source is not None and canonical[0] != source:
            raise PathError(f"path starts at {canonical[0]!r}, expected {source!r}")
        if target is not None and canonical[-1] != target:
            raise PathError(f"path ends at {canonical[-1]!r}, expected {target!r}")
        return canonical

    def path_length(self, path: Sequence[Vertex]) -> int:
        """Number of edges (hops) of ``path``."""
        return max(len(path) - 1, 0)

    def shortest_path(self, source: Vertex, target: Vertex, weight: Optional[str] = None) -> Path:
        """A shortest (fewest hops, or by ``weight`` attribute) path as a tuple."""
        if not self.has_vertex(source) or not self.has_vertex(target):
            raise GraphError("both endpoints must be network vertices")
        try:
            nodes = nx.shortest_path(self._graph, source, target, weight=weight)
        except nx.NetworkXNoPath as exc:  # pragma: no cover - connected by construction
            raise GraphError(f"no path between {source!r} and {target!r}") from exc
        return tuple(nodes)

    def distance(self, source: Vertex, target: Vertex) -> int:
        """Hop distance between two vertices."""
        return self.path_length(self.shortest_path(source, target))

    def diameter(self) -> int:
        """Hop diameter of the network."""
        return nx.diameter(self._graph)

    # ------------------------------------------------------------------ #
    # Congestion accounting
    # ------------------------------------------------------------------ #
    def edge_loads(self, weighted_paths: Iterable[Tuple[Sequence[Vertex], float]]) -> Dict[Edge, float]:
        """Aggregate per-edge load of a weighted path collection.

        Parameters
        ----------
        weighted_paths:
            Iterable of ``(path, weight)`` pairs.  Weights may be
            fractional; paths are not re-validated here for speed.
        """
        loads: Dict[Edge, float] = {}
        for path, weight in weighted_paths:
            if weight == 0:
                continue
            for edge in path_edges(path):
                loads[edge] = loads.get(edge, 0.0) + weight
        return loads

    def congestion(self, weighted_paths: Iterable[Tuple[Sequence[Vertex], float]]) -> float:
        """Maximum edge congestion (load divided by capacity) of a path collection."""
        loads = self.edge_loads(weighted_paths)
        worst = 0.0
        for edge, load in loads.items():
            worst = max(worst, load / self.capacity_of(edge))
        return worst

    # ------------------------------------------------------------------ #
    # Construction helpers and dunder methods
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[Vertex, Vertex]],
        capacities: Optional[Mapping[Tuple[Vertex, Vertex], float]] = None,
        name: str = "network",
        vertices: Optional[Iterable[Vertex]] = None,
    ) -> "Network":
        """Build a network from an edge list with optional capacities.

        When ``vertices`` is given it declares the full vertex set: an
        edge endpoint outside it raises :class:`GraphError` (the typed
        diagnostic the ingestion parsers rely on), and declared but
        isolated vertices still fail the connectivity check rather than
        being silently dropped.  Zero or negative entries in
        ``capacities`` raise :class:`GraphError` naming the edge.
        """
        graph = nx.Graph()
        known = None
        if vertices is not None:
            known = list(vertices)
            graph.add_nodes_from(known)
            known = set(known)
        for u, v in edges:
            if known is not None:
                missing = [vertex for vertex in (u, v) if vertex not in known]
                if missing:
                    raise GraphError(
                        f"edge {(u, v)!r} references unknown vertices "
                        f"{sorted(map(repr, missing))}"
                    )
            capacity = 1.0
            if capacities is not None:
                capacity = capacities.get((u, v), capacities.get((v, u), 1.0))
                try:
                    capacity = float(capacity)
                except (TypeError, ValueError):
                    raise GraphError(
                        f"edge {(u, v)!r} has non-numeric capacity {capacity!r}"
                    ) from None
                if not math.isfinite(capacity) or capacity <= 0:
                    raise GraphError(
                        f"edge {(u, v)!r} has non-positive or non-finite capacity {capacity}"
                    )
            if graph.has_edge(u, v):
                graph[u][v]["capacity"] += capacity
            else:
                graph.add_edge(u, v, capacity=capacity)
        return cls(graph, name=name)

    def relabeled(self, mapping: Mapping[Vertex, Vertex], name: Optional[str] = None) -> "Network":
        """Return a copy with vertices relabeled through ``mapping``."""
        relabeled = nx.relabel_nodes(self._graph, dict(mapping), copy=True)
        return Network(relabeled, name=name or self.name)

    def subnetwork(self, vertices: Iterable[Vertex], name: Optional[str] = None) -> "Network":
        """Return the induced subnetwork on ``vertices`` (must stay connected)."""
        vertex_set = set(vertices)
        missing = vertex_set - set(self._vertices)
        if missing:
            raise GraphError(f"vertices {sorted(map(repr, missing))} are not in the network")
        sub = self._graph.subgraph(vertex_set).copy()
        return Network(sub, name=name or f"{self.name}-sub")

    def __setstate__(self, state: Dict) -> None:
        self.__dict__.update(state)
        # A pickle round trip drops the flag.
        for array in (self._capacity_array, self._endpoints, self._arc_keys, self._arc_edges):
            array.flags.writeable = False

    def __contains__(self, vertex: Vertex) -> bool:
        return self.has_vertex(vertex)

    def __len__(self) -> int:
        return self.num_vertices

    def __repr__(self) -> str:
        return (
            f"Network(name={self.name!r}, n={self.num_vertices}, m={self.num_edges})"
        )


__all__ = ["Network", "Vertex", "Edge", "Path", "edge_key", "path_edges"]
