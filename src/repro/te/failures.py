"""Link-failure models and robustness evaluation of candidate path systems.

One of the practical reasons SMORE samples *diverse* paths from an
oblivious routing (rather than, say, k shortest paths) is robustness: when
links fail, the rates can be shifted onto the surviving candidate paths
without touching forwarding tables.  This module provides the failure
*events* and *processes* the scenario-sweep subsystem
(:mod:`repro.scenarios`) draws from, and the one evaluation path every
failure result goes through.

Contracts
---------

**Failure events.**  A :class:`FailureEvent` is a set of removed edges
plus a per-edge capacity-scale map (partial degradation).  Events are
value objects: JSON round-trippable via ``to_dict``/``from_dict`` and
independent of the network object they were sampled on.  A scale outside
``(0, 1]`` is rejected when the event is built.

**Failure processes.**  A :class:`FailureProcess` turns randomness into
events: ``process.sample(network, rng)`` consumes the passed generator
*only* (no global numpy state), so two calls with generators seeded
identically yield identical events — this is what makes scenario cells
reproducible across serial and multiprocessing execution.  Processes are
declarative (``kind`` + parameters) and JSON round-trippable.

**Units.**  All congestion figures in this module are *utilizations*:
edge load divided by edge capacity, so a value of 1.0 means the most
loaded link runs exactly at capacity.  Ratios divide an achieved
utilization by the optimal utilization **on the failed network** — the
fair comparator, since the failure affects the offline optimum too.

Evaluation helpers:

* :func:`apply_failure` / :func:`rebase_system` — build the degraded
  network for an event and re-anchor onto it the paths of a system that
  survive it, by the one survival rule
  (:meth:`~repro.core.path_system.PathIncidence.surviving`),
* :func:`readapt_surviving` — coverage and re-optimized congestion of a
  path system's surviving candidates; the scenario runner calls it per
  scheme and shares one degraded-network optimum across a cell's schemes,
* :func:`evaluate_failure_event` — one system against one event, with its
  own degraded-network optimum; :func:`failure_sweep` loops it over every
  single-link failure (E12),
* ``routing.evaluator("auto").rebased(event)`` — the counterpart for
  fixed-ratio routings: mask failed paths and rescale capacities on the
  compiled arrays (:mod:`repro.linalg`) instead of recompiling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

import networkx as nx

from repro.core.competitive import congestion_ratio
from repro.core.path_system import PathSystem
from repro.core.rate_adaptation import optimal_rates
from repro.demands.demand import Demand
from repro.exceptions import GraphError, ReproError
from repro.graphs.network import Network, Vertex, edge_key
from repro.mcf.lp import min_congestion_lp
from repro.utils.rng import RngLike, ensure_rng

Edge = Tuple[Vertex, Vertex]


@dataclass
class FailureSweepSummary:
    """Aggregate of single-link-failure reports."""

    reports: List[FailureEventReport] = field(default_factory=list)

    @property
    def num_failures(self) -> int:
        return len(self.reports)

    def mean_coverage(self) -> float:
        if not self.reports:
            return 1.0
        return sum(report.coverage for report in self.reports) / len(self.reports)

    def full_coverage_fraction(self) -> float:
        """Fraction of failures after which every demanded pair is still covered."""
        if not self.reports:
            return 1.0
        return sum(1 for report in self.reports if report.coverage >= 1.0) / len(self.reports)

    def worst_ratio(self) -> Optional[float]:
        ratios = [report.ratio for report in self.reports if report.ratio is not None]
        return max(ratios) if ratios else None

    def mean_ratio(self) -> Optional[float]:
        ratios = [report.ratio for report in self.reports if report.ratio is not None]
        return sum(ratios) / len(ratios) if ratios else None


def failure_sweep(
    system: PathSystem,
    demand: Demand,
    edges: Optional[Iterable[Edge]] = None,
) -> FailureSweepSummary:
    """Evaluate every (or the given) single-link failure against ``system``."""
    if edges is None:
        edges = system.network.edges
    summary = FailureSweepSummary()
    for edge in edges:
        event = FailureEvent(failed_edges=(edge_key(*edge),), label="k-edge(k=1)")
        summary.reports.append(evaluate_failure_event(system, demand, event))
    return summary


# --------------------------------------------------------------------- #
# Generalized failure events and processes (scenario-sweep substrate)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class FailureEvent:
    """A correlated failure: removed edges plus partial capacity degradation.

    ``failed_edges`` are removed outright; ``capacity_scale`` maps
    surviving edges to a multiplicative capacity factor in ``(0, 1]``.
    The empty event (no removals, no scaling) represents a healthy
    network and is treated specially by :func:`apply_failure`.  A scale
    outside ``(0, 1]`` raises :class:`GraphError` here, so no consumer
    ever sees one (a zero capacity would turn utilizations into NaN).
    """

    failed_edges: Tuple[Edge, ...] = ()
    capacity_scale: Tuple[Tuple[Edge, float], ...] = ()
    label: str = "none"

    def __post_init__(self) -> None:
        for edge, scale in self.capacity_scale:
            if not (0.0 < scale <= 1.0):
                raise GraphError(
                    f"capacity scale for edge {edge!r} must be in (0, 1], got {scale}"
                )

    def is_null(self) -> bool:
        return not self.failed_edges and not self.capacity_scale

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "failed_edges": [list(edge) for edge in self.failed_edges],
            "capacity_scale": [[list(edge), scale] for edge, scale in self.capacity_scale],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FailureEvent":
        return cls(
            failed_edges=tuple(_edge_from_json(edge) for edge in payload.get("failed_edges", ())),
            capacity_scale=tuple(
                (_edge_from_json(edge), float(scale))
                for edge, scale in payload.get("capacity_scale", ())
            ),
            label=str(payload.get("label", "none")),
        )


def _vertex_from_json(value: Any) -> Any:
    """Undo JSON's tuple->list conversion for composite vertex labels.

    Vertices are hashable (tuples like ``("core", 3)`` on fat-trees,
    ``(0, 1)`` on tori), never lists, so every list in a serialized edge
    is a tuple that went through JSON.
    """
    if isinstance(value, list):
        return tuple(_vertex_from_json(item) for item in value)
    return value


def _edge_from_json(edge: Any) -> Edge:
    u, v = edge
    return (_vertex_from_json(u), _vertex_from_json(v))


def apply_failure(network: Network, event: FailureEvent) -> Optional[Network]:
    """The degraded network after ``event``, or ``None`` if it disconnects.

    Removed edges must exist in ``network`` (:class:`GraphError`
    otherwise); capacity scales apply only to surviving edges.  A null
    event returns ``network`` itself (no copy), so the healthy path stays
    allocation-free.
    """
    if event.is_null():
        return network
    graph = network.graph.copy()
    for u, v in event.failed_edges:
        if not graph.has_edge(u, v):
            raise GraphError(f"failure event removes edge {(u, v)!r} not in the network")
        graph.remove_edge(u, v)
    if not nx.is_connected(graph):
        return None
    for (u, v), scale in event.capacity_scale:
        if graph.has_edge(u, v):
            graph[u][v]["capacity"] *= scale
    return Network(graph, name=f"{network.name}-{event.label}")


def rebase_system(system: PathSystem, degraded: Network) -> PathSystem:
    """Re-anchor ``system`` onto ``degraded``, dropping broken paths.

    A candidate path survives iff it crosses none of the edges of
    ``system.network`` that ``degraded`` lacks (the one survival rule,
    :meth:`~repro.core.path_system.PathIncidence.surviving`); surviving
    paths are audited against (and therefore priced by the capacities
    of) ``degraded``.  A capacity-only event keeps every path.
    """
    failed = [
        index for index, (u, v) in enumerate(system.network.edges) if not degraded.has_edge(u, v)
    ]
    incidence = system.incidence()
    alive = incidence.surviving(failed).tolist()
    paths = incidence.paths
    return PathSystem(degraded, {
        pair: [paths[row] for row in range(start, stop) if alive[row]]
        for pair, (start, stop) in incidence.slices.items()
    })


class FailureProcess:
    """Declarative random failure model: ``sample(network, rng) -> FailureEvent``.

    Subclasses must consume randomness only through the generator passed
    to :meth:`sample` and must key every random choice off the network's
    canonical vertex/edge order, so equal seeds give equal events in any
    execution mode.
    """

    kind: str = "none"

    def sample(self, network: Network, rng: RngLike = None) -> FailureEvent:
        raise NotImplementedError

    def params(self) -> Dict[str, Any]:
        return {}

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, **self.params()}

    def describe(self) -> str:
        rendered = ", ".join(f"{key}={value}" for key, value in sorted(self.params().items()))
        return f"{self.kind}({rendered})" if rendered else self.kind

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()!r})"


class NoFailure(FailureProcess):
    """The healthy-network baseline: always samples the null event."""

    kind = "none"

    def sample(self, network: Network, rng: RngLike = None) -> FailureEvent:
        return FailureEvent(label="none")


class KEdgeFailureProcess(FailureProcess):
    """``k`` independent uniform link failures (sampled without replacement)."""

    kind = "k-edge"

    def __init__(self, k: int = 1) -> None:
        if k < 1:
            raise ReproError("k-edge failure process needs k >= 1")
        self.k = int(k)

    def params(self) -> Dict[str, Any]:
        return {"k": self.k}

    def sample(self, network: Network, rng: RngLike = None) -> FailureEvent:
        generator = ensure_rng(rng)
        edges = network.edges  # canonical order
        count = min(self.k, len(edges))
        chosen = generator.choice(len(edges), size=count, replace=False)
        failed = tuple(edges[int(index)] for index in sorted(chosen))
        return FailureEvent(failed_edges=failed, label=f"k-edge(k={count})")


class RegionalFailureProcess(FailureProcess):
    """SRLG-style correlated failure: every link inside a random hop-ball fails.

    A center vertex is drawn uniformly; all edges whose *both* endpoints
    lie within hop distance ``radius`` of the center share the fate (they
    model a shared conduit / region outage).  ``radius=1`` fails the
    links among the center and its neighbors.
    """

    kind = "regional"

    def __init__(self, radius: int = 1) -> None:
        if radius < 0:
            raise ReproError("regional failure radius must be nonnegative")
        self.radius = int(radius)

    def params(self) -> Dict[str, Any]:
        return {"radius": self.radius}

    def sample(self, network: Network, rng: RngLike = None) -> FailureEvent:
        generator = ensure_rng(rng)
        vertices = network.vertices  # canonical order
        center = vertices[int(generator.integers(0, len(vertices)))]
        lengths = nx.single_source_shortest_path_length(
            network.graph, center, cutoff=self.radius
        )
        ball = set(lengths)
        failed = tuple(
            edge for edge in network.edges if edge[0] in ball and edge[1] in ball
        )
        return FailureEvent(failed_edges=failed, label=f"regional(r={self.radius})")


class CapacityDegradationProcess(FailureProcess):
    """Partial degradation: a random fraction of links keep only ``factor`` capacity.

    No link is removed, so candidate paths all survive; only the rate
    re-optimization (and the failed-network optimum) see the thinner
    links.  Models brown-outs / FEC rate-downs rather than fiber cuts.
    """

    kind = "degrade"

    def __init__(self, fraction: float = 0.25, factor: float = 0.5) -> None:
        if not (0.0 < fraction <= 1.0):
            raise ReproError("degradation fraction must be in (0, 1]")
        if not (0.0 < factor <= 1.0):
            raise ReproError("degradation factor must be in (0, 1]")
        self.fraction = float(fraction)
        self.factor = float(factor)

    def params(self) -> Dict[str, Any]:
        return {"fraction": self.fraction, "factor": self.factor}

    def sample(self, network: Network, rng: RngLike = None) -> FailureEvent:
        generator = ensure_rng(rng)
        edges = network.edges
        count = max(1, int(round(self.fraction * len(edges))))
        count = min(count, len(edges))
        chosen = generator.choice(len(edges), size=count, replace=False)
        scaled = tuple((edges[int(index)], self.factor) for index in sorted(chosen))
        return FailureEvent(
            capacity_scale=scaled,
            label=f"degrade(f={self.fraction:g}, x={self.factor:g})",
        )


_FAILURE_PROCESSES: Dict[str, type] = {
    NoFailure.kind: NoFailure,
    KEdgeFailureProcess.kind: KEdgeFailureProcess,
    RegionalFailureProcess.kind: RegionalFailureProcess,
    CapacityDegradationProcess.kind: CapacityDegradationProcess,
}

_FAILURE_ALIASES = {"srlg": "regional", "healthy": "none", "link": "k-edge"}


def available_failure_processes() -> List[str]:
    """Canonical kinds of the registered failure processes."""
    return sorted(_FAILURE_PROCESSES)


def build_failure_process(kind: str, **params: Any) -> FailureProcess:
    """Instantiate a failure process from its declarative ``kind`` + params."""
    canonical = _FAILURE_ALIASES.get(kind, kind)
    if canonical not in _FAILURE_PROCESSES:
        raise ReproError(
            f"unknown failure process {kind!r}; available: {available_failure_processes()}"
        )
    try:
        return _FAILURE_PROCESSES[canonical](**params)
    except TypeError as error:
        raise ReproError(f"bad parameters for failure process {kind!r}: {error}") from error


@dataclass
class FailureEventReport:
    """Outcome of one multi-edge failure event against a candidate path system.

    ``coverage`` is the fraction of demanded pairs that still have at
    least one surviving candidate path; congestion figures are ``None``
    when the event disconnects the network or some demanded pair loses
    every candidate path.
    """

    event: FailureEvent
    coverage: float
    achieved_congestion: Optional[float]
    optimal_congestion: Optional[float]
    disconnects_network: bool = False

    @property
    def ratio(self) -> Optional[float]:
        if self.achieved_congestion is None or self.optimal_congestion is None:
            return None
        return congestion_ratio(self.achieved_congestion, self.optimal_congestion)


def readapt_surviving(
    system: PathSystem,
    demand: Demand,
    event: FailureEvent,
    degraded: Optional[Network],
) -> Tuple[float, Optional[float]]:
    """Coverage and re-adapted congestion of the paths of ``system`` surviving ``event``.

    A candidate path survives iff it avoids every failed edge, so the
    coverage (fraction of demanded pairs keeping at least one path) is
    defined even when the event disconnects the network.  ``degraded`` is
    ``apply_failure(system.network, event)``; the congestion re-optimizes
    the rates over the survivors rebased onto it (:func:`rebase_system`),
    and is ``None`` when ``degraded`` is ``None`` or some demanded pair
    lost every candidate path.  A failed edge not in the network raises
    :class:`GraphError`.
    """
    pairs = demand.pairs()
    network = system.network
    failed = {network.edge_index(u, v) for u, v in event.failed_edges}
    incidence = system.incidence()
    alive, slices = incidence.surviving(failed), incidence.slices
    covered = sum(1 for pair in pairs if pair in slices and alive[slice(*slices[pair])].any())
    coverage = covered / len(pairs) if pairs else 1.0
    if degraded is None or covered < len(pairs):
        return coverage, None
    if not pairs:
        return coverage, 0.0
    return coverage, optimal_rates(rebase_system(system, degraded), demand).congestion


def evaluate_failure_event(
    system: PathSystem,
    demand: Demand,
    event: FailureEvent,
) -> FailureEventReport:
    """Re-optimize rates on the paths surviving ``event``.

    Removed edges break candidate paths, capacity scales thin the
    surviving links, and the comparison baseline is the optimum on the
    degraded network.  An unknown failed edge raises :class:`GraphError`.
    """
    degraded = apply_failure(system.network, event)
    optimum = None if degraded is None else min_congestion_lp(degraded, demand).congestion
    coverage, achieved = readapt_surviving(system, demand, event, degraded)
    return FailureEventReport(
        event=event,
        coverage=coverage,
        achieved_congestion=achieved,
        optimal_congestion=optimum,
        disconnects_network=degraded is None,
    )


__all__ = [
    "FailureSweepSummary",
    "failure_sweep",
    "FailureEvent",
    "FailureEventReport",
    "FailureProcess",
    "NoFailure",
    "KEdgeFailureProcess",
    "RegionalFailureProcess",
    "CapacityDegradationProcess",
    "available_failure_processes",
    "build_failure_process",
    "apply_failure",
    "rebase_system",
    "readapt_surviving",
    "evaluate_failure_event",
]
