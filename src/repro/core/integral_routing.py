"""Integral semi-oblivious routing (Definition 6.1).

``cong_Z(P, d)`` is the minimum congestion over routings on the candidate
path system that send each unit of the integral demand along a single
path.  Computing it exactly is NP-hard, so this module provides the two
standard practical attacks, both of which the paper's Section 6 pipeline
uses implicitly:

* :func:`integral_routing_by_rounding` — solve the fractional path LP and
  apply the Lemma 6.3 randomized rounding (the paper's reduction), then
* :func:`local_search_improve` — greedy single-unit moves: repeatedly
  re-route one unit from its current path to the candidate path that
  minimizes the resulting maximum congestion, until no move improves.

The combination gives a certified upper bound on ``cong_Z(P, d)`` that is
within the Lemma 6.3 guarantee of the fractional optimum and usually much
closer; :func:`integral_congestion` wraps the full pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.path_system import PathSystem
from repro.core.rounding import randomized_rounding, rounding_bound
from repro.core.routing import Routing
from repro.demands.demand import Demand
from repro.exceptions import DemandError, InfeasibleError
from repro.graphs.network import Network, Path, Vertex, path_edges
from repro.mcf.path_lp import min_congestion_on_paths
from repro.utils.rng import RngLike, ensure_rng

Assignment = Dict[Tuple[Tuple[Vertex, Vertex], int], Path]


@dataclass
class IntegralRoutingResult:
    """An integral routing of an integral demand on a candidate path system.

    Attributes
    ----------
    congestion:
        Maximum edge congestion of the assignment.
    assignment:
        Mapping ``((source, target), unit_index) -> path``.
    routing:
        The same assignment expressed as a :class:`Routing` (weights are
        unit counts divided by the pair's demand).
    fractional_congestion:
        The fractional optimum ``cong_R(P, d)`` (lower bound).
    certified_bound:
        The Lemma 6.3 guarantee ``2 * fractional + 3 ln m`` the result is
        certified against.
    local_search_moves:
        Number of improving single-unit moves applied.
    """

    congestion: float
    assignment: Assignment
    routing: Routing
    fractional_congestion: float
    certified_bound: float
    local_search_moves: int


def _assignment_from_routing(routing: Routing, demand: Demand) -> Assignment:
    """Expand an integral routing into per-unit path assignments."""
    assignment: Assignment = {}
    for pair, amount in demand.items():
        units = int(round(amount))
        if units <= 0:
            continue
        distribution = routing.distribution(*pair)
        unit_index = 0
        for path, probability in distribution.items():
            count = int(round(probability * units))
            for _ in range(count):
                if unit_index >= units:
                    break
                assignment[(pair, unit_index)] = path
                unit_index += 1
        # Numerical safety: assign any leftover units to the heaviest path.
        heaviest = max(distribution, key=distribution.get)
        while unit_index < units:
            assignment[(pair, unit_index)] = heaviest
            unit_index += 1
    return assignment


def _routing_from_assignment(network: Network, assignment: Assignment, demand: Demand) -> Routing:
    per_pair: Dict[Tuple[Vertex, Vertex], Dict[Path, int]] = {}
    for (pair, _), path in assignment.items():
        per_pair.setdefault(pair, {})[path] = per_pair.setdefault(pair, {}).get(path, 0) + 1
    distributions = {}
    for pair, counts in per_pair.items():
        total = sum(counts.values())
        distributions[pair] = {path: count / total for path, count in counts.items()}
    _ = demand
    return Routing(network, distributions)


def _edge_loads(network: Network, assignment: Assignment) -> Dict[Tuple[Vertex, Vertex], float]:
    loads: Dict[Tuple[Vertex, Vertex], float] = {}
    for path in assignment.values():
        for edge in path_edges(path):
            loads[edge] = loads.get(edge, 0.0) + 1.0
    return loads


def _congestion(network: Network, loads: Dict[Tuple[Vertex, Vertex], float]) -> float:
    worst = 0.0
    for edge, load in loads.items():
        worst = max(worst, load / network.capacity_of(edge))
    return worst


def integral_routing_by_rounding(
    system: PathSystem,
    demand: Demand,
    rng: RngLike = None,
) -> Tuple[Assignment, float, float]:
    """Fractional path LP + Lemma 6.3 rounding, returned as a unit assignment.

    Returns ``(assignment, congestion, fractional_optimum)``.
    """
    if not demand.is_integral():
        raise DemandError("integral routing requires an integral demand")
    fractional = min_congestion_on_paths(system, demand)
    if fractional.routing is None:
        return {}, 0.0, 0.0
    rounded = randomized_rounding(fractional.routing, demand, rng=ensure_rng(rng))
    assignment = _assignment_from_routing(rounded.routing, demand)
    loads = _edge_loads(system.network, assignment)
    return assignment, _congestion(system.network, loads), fractional.congestion


def local_search_improve(
    system: PathSystem,
    assignment: Assignment,
    max_passes: int = 20,
) -> Tuple[Assignment, float, int]:
    """Greedy single-unit re-routing until no move lowers the max congestion.

    Each pass iterates over all assigned units; a unit is moved to the
    candidate path minimizing the resulting maximum congestion (over the
    edges it touches) if that strictly improves the situation for the
    currently most congested edge it uses.

    Returns ``(assignment, congestion, number_of_moves)``.
    """
    network = system.network
    assignment = dict(assignment)
    loads = _edge_loads(network, assignment)
    moves = 0

    def edge_congestion(edge) -> float:
        return loads.get(edge, 0.0) / network.capacity_of(edge)

    for _ in range(max_passes):
        improved = False
        for key, current_path in list(assignment.items()):
            pair, _ = key
            candidates = system.paths(*pair)
            if len(candidates) < 2:
                continue
            current_worst = max(edge_congestion(edge) for edge in path_edges(current_path))
            best_path = current_path
            best_worst = current_worst
            for candidate in candidates:
                if candidate == current_path:
                    continue
                # Worst congestion along the candidate after moving the unit there
                # (remove from current path first).
                worst = 0.0
                current_edges = set(path_edges(current_path))
                for edge in path_edges(candidate):
                    load = loads.get(edge, 0.0)
                    if edge in current_edges:
                        load -= 1.0
                    worst = max(worst, (load + 1.0) / network.capacity_of(edge))
                if worst < best_worst - 1e-12:
                    best_worst = worst
                    best_path = candidate
            if best_path is not current_path and best_path != current_path:
                for edge in path_edges(current_path):
                    loads[edge] = loads.get(edge, 0.0) - 1.0
                for edge in path_edges(best_path):
                    loads[edge] = loads.get(edge, 0.0) + 1.0
                assignment[key] = best_path
                moves += 1
                improved = True
        if not improved:
            break
    return assignment, _congestion(network, loads), moves


def integral_congestion(
    system: PathSystem,
    demand: Demand,
    rng: RngLike = None,
    local_search: bool = True,
) -> IntegralRoutingResult:
    """Full pipeline: fractional LP -> rounding -> optional local search.

    Raises
    ------
    DemandError
        If the demand is not integral.
    InfeasibleError
        If some demanded pair has no candidate path.
    """
    if not demand.is_integral():
        raise DemandError("integral routing requires an integral demand")
    for pair in demand.pairs():
        if not system.paths(*pair):
            raise InfeasibleError(f"no candidate path for pair {pair!r}")
    if demand.is_empty():
        empty_routing = Routing(system.network, {})
        return IntegralRoutingResult(
            congestion=0.0,
            assignment={},
            routing=empty_routing,
            fractional_congestion=0.0,
            certified_bound=rounding_bound(0.0, system.network.num_edges),
            local_search_moves=0,
        )
    assignment, congestion, fractional = integral_routing_by_rounding(system, demand, rng=rng)
    moves = 0
    if local_search:
        assignment, congestion, moves = local_search_improve(system, assignment)
    routing = _routing_from_assignment(system.network, assignment, demand)
    return IntegralRoutingResult(
        congestion=congestion,
        assignment=assignment,
        routing=routing,
        fractional_congestion=fractional,
        certified_bound=rounding_bound(fractional, system.network.num_edges),
        local_search_moves=moves,
    )


__all__ = [
    "IntegralRoutingResult",
    "integral_congestion",
    "integral_routing_by_rounding",
    "local_search_improve",
]
