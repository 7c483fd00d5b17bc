"""Hop-constrained oblivious routing (the [GHZ21] stand-in, Section 7).

The completion-time results of Section 7 consume a *h-hop oblivious
routing*: a routing whose dilation is at most ``beta * h`` (hop stretch
``beta``) and whose congestion is within a factor ``C`` of the best
routing restricted to dilation ``h``.  The exact [GHZ21] construction
(hop-constrained expander decompositions) is far outside laptop scope, so
we build a simulated equivalent that honours the same black-box
interface:

* candidate paths are restricted to at most ``hop_bound * hop_stretch``
  hops;
* within the hop budget, traffic is spread over many near-shortest paths
  using the same congestion-aware MWU-over-trees idea as
  :class:`~repro.oblivious.racke.RaeckeTreeRouting`, but with trees built
  from hop-limited searches (so tree paths respect the budget), falling
  back to hop-limited k-shortest paths for pairs the trees fail to serve
  within budget;
* pairs whose graph distance already exceeds the hop bound raise
  :class:`InfeasibleError` — matching the paper's convention that
  ``opt^{(h)}`` is only compared against routings that meet the bound.

The measured hop-stretch and congestion-approximation of the construction
are reported by experiment E7; only those two measured quantities enter
the Section 7 pipeline, so the substitution preserves the behaviour the
theory relies on (see docs/ARCHITECTURE.md, "Substitutions").
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.exceptions import InfeasibleError, RoutingError
from repro.graphs.network import Network, Path, Vertex, edge_key
from repro.oblivious.base import ObliviousRoutingBuilder
from repro.utils.rng import RngLike, ensure_rng


class HopConstrainedRouting(ObliviousRoutingBuilder):
    """An oblivious routing whose paths respect a hop budget.

    Parameters
    ----------
    network:
        Underlying network.
    hop_bound:
        The target hop bound ``h``.
    hop_stretch:
        Allowed multiplicative slack: produced paths use at most
        ``ceil(hop_stretch * hop_bound)`` hops (the ``beta`` of the
        [GHZ21] interface).  Defaults to 2.
    num_trees:
        Number of congestion-aware trees used to diversify paths.
    fallback_paths:
        Number of hop-limited shortest simple paths used when the trees
        cannot serve a pair within budget.
    rng:
        Randomness source.
    """

    name = "hop-constrained"

    def __init__(
        self,
        network: Network,
        hop_bound: int,
        hop_stretch: float = 2.0,
        num_trees: Optional[int] = None,
        fallback_paths: int = 4,
        rng: RngLike = None,
    ) -> None:
        super().__init__(network)
        if hop_bound < 1:
            raise RoutingError("hop_bound must be at least 1")
        if hop_stretch < 1.0:
            raise RoutingError("hop_stretch must be at least 1")
        self._hop_bound = hop_bound
        self._hop_limit = int(math.ceil(hop_bound * hop_stretch))
        self._fallback_paths = max(1, fallback_paths)
        self._rng = ensure_rng(rng)
        if num_trees is None:
            num_trees = max(2, int(math.ceil(math.log2(max(network.num_vertices, 2)))))
        self._num_trees = num_trees
        self._lengths: Dict[Tuple[Vertex, Vertex], float] = {
            edge: 1.0 / network.capacity_of(edge) for edge in network.edges
        }
        self._length_graphs: List[nx.Graph] = self._build_length_graphs()

    @property
    def hop_bound(self) -> int:
        return self._hop_bound

    @property
    def hop_limit(self) -> int:
        """The actual per-path hop cap (``ceil(hop_stretch * hop_bound)``)."""
        return self._hop_limit

    def _build_length_graphs(self) -> List[nx.Graph]:
        """Randomly perturbed length graphs; each plays the role of one 'tree'."""
        graphs = []
        for _ in range(self._num_trees):
            weighted = nx.Graph()
            for u, v in self.network.edges:
                base = self._lengths[edge_key(u, v)]
                noise = 1.0 + 0.5 * float(self._rng.random())
                weighted.add_edge(u, v, weight=base * noise)
            graphs.append(weighted)
        return graphs

    # ------------------------------------------------------------------ #
    def _hop_limited_paths(self, source: Vertex, target: Vertex) -> List[Path]:
        shortest = self.network.distance(source, target)
        if shortest > self._hop_limit:
            raise InfeasibleError(
                f"pair {(source, target)!r} has distance {shortest} > hop limit {self._hop_limit}"
            )
        candidates: List[Path] = []
        seen = set()
        # Randomized-length shortest paths (diverse but short).
        for weighted in self._length_graphs:
            nodes = nx.shortest_path(weighted, source, target, weight="weight")
            path = tuple(nodes)
            if len(path) - 1 <= self._hop_limit and path not in seen:
                seen.add(path)
                candidates.append(path)
        # Hop-limited k-shortest fallback to guarantee coverage.
        if len(candidates) < self._fallback_paths:
            generator = nx.shortest_simple_paths(self.network.graph, source, target)
            for nodes in islice(generator, 4 * self._fallback_paths):
                path = tuple(nodes)
                if len(path) - 1 > self._hop_limit:
                    break  # simple paths are produced in length order
                if path not in seen:
                    seen.add(path)
                    candidates.append(path)
                if len(candidates) >= self._fallback_paths:
                    break
        if not candidates:
            raise InfeasibleError(
                f"no path within {self._hop_limit} hops between {source!r} and {target!r}"
            )
        return candidates

    def distribution_for(self, source: Vertex, target: Vertex) -> Dict[Path, float]:
        candidates = self._hop_limited_paths(source, target)
        probability = 1.0 / len(candidates)
        return {path: probability for path in candidates}

    def sample_path(self, source: Vertex, target: Vertex, rng: RngLike = None) -> Path:
        """Sample a path uniformly from the hop-limited candidate set."""
        generator = ensure_rng(rng) if rng is not None else self._rng
        candidates = self._hop_limited_paths(source, target)
        index = int(generator.integers(0, len(candidates)))
        return candidates[index]

    # ------------------------------------------------------------------ #
    def measured_hop_stretch(self, pairs: Optional[List[Tuple[Vertex, Vertex]]] = None) -> float:
        """Maximum produced-path hops divided by the hop bound (the empirical beta)."""
        if pairs is None:
            pairs = list(self.network.vertex_pairs(ordered=False))
        worst = 0.0
        for source, target in pairs:
            try:
                candidates = self._hop_limited_paths(source, target)
            except InfeasibleError:
                continue
            longest = max(len(path) - 1 for path in candidates)
            worst = max(worst, longest / self._hop_bound)
        return worst


__all__ = ["HopConstrainedRouting"]
