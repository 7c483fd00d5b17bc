"""Sampling candidate paths from an oblivious routing (Definition 5.2).

The paper's construction is exactly this simple: for every vertex pair,
draw α (or α + cut_G(s, t)) independent samples from the oblivious
routing's path distribution and install the sampled paths as the
candidate set.  Duplicates are kept as a single stored path (a path
system is a set per pair), which only makes the system sparser.

Builders may expose a ``sample_path(source, target, rng)`` method (the
Valiant and Räcke builders do) to sample without materializing the full
distribution; otherwise the materialized distribution is sampled.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.path_system import PathSystem
from repro.core.routing import Routing
from repro.exceptions import RoutingError
from repro.graphs.cuts import CutCache
from repro.graphs.network import Network, Path, Vertex
from repro.oblivious.base import ObliviousRoutingBuilder
from repro.utils.rng import RngLike, ensure_rng

Pair = Tuple[Vertex, Vertex]


def _sample_from_distribution(
    distribution: Dict[Path, float],
    count: int,
    rng: np.random.Generator,
) -> List[Path]:
    paths = list(distribution.keys())
    probabilities = np.array([distribution[path] for path in paths], dtype=float)
    probabilities = probabilities / probabilities.sum()
    indices = rng.choice(len(paths), size=count, replace=True, p=probabilities)
    return [paths[int(index)] for index in indices]


def _network_of(source_of_paths) -> Network:
    """Return the network of a Routing/builder, rejecting anything else."""
    if isinstance(source_of_paths, (Routing, ObliviousRoutingBuilder)):
        return source_of_paths.network
    raise RoutingError(
        "paths must be sampled from a Routing or an ObliviousRoutingBuilder"
    )


def _distribution(oblivious, source: Vertex, target: Vertex) -> Dict[Path, float]:
    """The path distribution of a pair under a Routing or a builder."""
    if isinstance(oblivious, Routing):
        return oblivious.distribution(source, target)
    return oblivious.pair_distribution(source, target)


def _sample_paths(
    source_of_paths,
    source: Vertex,
    target: Vertex,
    count: int,
    rng: np.random.Generator,
) -> List[Path]:
    """Draw ``count`` paths for a pair from a Routing or a builder."""
    sampler = getattr(source_of_paths, "sample_path", None)
    if isinstance(source_of_paths, ObliviousRoutingBuilder) and callable(sampler):
        return [sampler(source, target, rng=rng) for _ in range(count)]
    return _sample_from_distribution(_distribution(source_of_paths, source, target), count, rng)


def alpha_sample(
    oblivious: "Routing | ObliviousRoutingBuilder",
    alpha: int,
    pairs: Optional[Iterable[Pair]] = None,
    rng: RngLike = None,
) -> PathSystem:
    """An α-sample of an oblivious routing (Definition 5.2).

    Parameters
    ----------
    oblivious:
        The oblivious routing to sample from — a materialized
        :class:`Routing` or an :class:`ObliviousRoutingBuilder`.
    alpha:
        Number of independent samples per pair.
    pairs:
        Pairs to cover (default: every ordered pair of the network).
    rng:
        Randomness (seed, generator or None).
    """
    if alpha < 1:
        raise RoutingError("alpha must be at least 1")
    generator = ensure_rng(rng)
    network = _network_of(oblivious)
    if pairs is None:
        pairs = list(network.vertex_pairs(ordered=True))
    buckets: Dict[Pair, List[Path]] = {}
    for source, target in pairs:
        if source == target:
            continue
        buckets.setdefault((source, target), []).extend(
            _sample_paths(oblivious, source, target, alpha, generator)
        )
    return PathSystem(network, buckets)


def alpha_plus_cut_sample(
    oblivious: "Routing | ObliviousRoutingBuilder",
    alpha: int,
    cut_oracle: Optional[Callable[[Vertex, Vertex], float]] = None,
    pairs: Optional[Iterable[Pair]] = None,
    rng: RngLike = None,
) -> PathSystem:
    """An (α + cut_G)-sample of an oblivious routing (Definition 5.2).

    For each pair, ``alpha + cut_G(s, t)`` paths are sampled with
    replacement.  ``cut_oracle`` defaults to a cached exact min-cut
    oracle on the network.
    """
    if alpha < 0:
        raise RoutingError("alpha must be nonnegative")
    generator = ensure_rng(rng)
    network = _network_of(oblivious)
    if cut_oracle is None:
        cut_oracle = CutCache(network)
    if pairs is None:
        pairs = list(network.vertex_pairs(ordered=True))
    buckets: Dict[Pair, List[Path]] = {}
    for source, target in pairs:
        if source == target:
            continue
        count = alpha + int(round(cut_oracle(source, target)))
        count = max(count, 1)
        buckets.setdefault((source, target), []).extend(
            _sample_paths(oblivious, source, target, count, generator)
        )
    return PathSystem(network, buckets)


def deterministic_top_paths(
    oblivious: "Routing | ObliviousRoutingBuilder",
    alpha: int,
    pairs: Optional[Iterable[Pair]] = None,
) -> PathSystem:
    """The *deterministic* variant: keep the α most probable paths per pair.

    The paper's Section 1.1 "deterministic routing" consequence notes
    that derandomizing the selection is possible; taking the heaviest α
    support paths of the oblivious routing is the natural deterministic
    selection rule and is what this helper implements (useful as an
    ablation against the randomized sample).
    """
    if alpha < 1:
        raise RoutingError("alpha must be at least 1")
    network = oblivious.network
    if pairs is None:
        pairs = list(network.vertex_pairs(ordered=True))
    buckets: Dict[Pair, List[Path]] = {}
    for source, target in pairs:
        if source == target:
            continue
        ranked = sorted(
            _distribution(oblivious, source, target).items(), key=lambda item: (-item[1], item[0])
        )
        buckets.setdefault((source, target), []).extend(path for path, _ in ranked[:alpha])
    return PathSystem(network, buckets)


def support_system(oblivious: "Routing | ObliviousRoutingBuilder", pairs: Optional[Iterable[Pair]] = None) -> PathSystem:
    """The full support of the oblivious routing as a path system (no sampling)."""
    network = oblivious.network
    if pairs is None:
        pairs = list(network.vertex_pairs(ordered=True))
    buckets: Dict[Pair, List[Path]] = {}
    for source, target in pairs:
        if source == target:
            continue
        buckets.setdefault((source, target), []).extend(_distribution(oblivious, source, target))
    return PathSystem(network, buckets)


__all__ = [
    "alpha_sample",
    "alpha_plus_cut_sample",
    "deterministic_top_paths",
    "support_system",
]
