"""E10 — competitiveness of the base oblivious routings (Section 3 context).

Theorem 5.3 is stated relative to the sampling source R; every upstream
experiment therefore depends on the base oblivious routings being
reasonably competitive.  This experiment measures, per topology and
random permutation demands, the congestion ratio of:

* the Räcke-style MWU-over-trees routing,
* the electrical-flow routing,
* Valiant's routing (hypercubes only),
* single shortest path and uniform k-shortest-paths,

establishing the quality of the substitution documented in
docs/ARCHITECTURE.md, "Substitutions".
"""

from __future__ import annotations

from repro.core.competitive import evaluate_oblivious_routing
from repro.demands.generators import random_permutation_demand
from repro.experiments.harness import ExperimentConfig, ExperimentResult
from repro.graphs import topologies
from repro.mcf.lp import min_congestion_lp
from repro.oblivious.electrical import ElectricalFlowRouting
from repro.oblivious.racke import RaeckeTreeRouting
from repro.oblivious.shortest_path import KShortestPathRouting, ShortestPathRouting
from repro.oblivious.valiant import ValiantHypercubeRouting
from repro.utils.rng import ensure_rng

_DEFAULTS = {
    "smoke": {"hypercube_dim": 3, "expander_n": 12, "num_demands": 1},
    "small": {"hypercube_dim": 4, "expander_n": 20, "num_demands": 2},
    "paper": {"hypercube_dim": 6, "expander_n": 48, "num_demands": 5},
}


def run(config: ExperimentConfig) -> ExperimentResult:
    rng = ensure_rng(config.seed)
    result = ExperimentResult(experiment_id="E10_oblivious_baselines")

    dim = config.param("hypercube_dim", _DEFAULTS)
    expander_n = config.param("expander_n", _DEFAULTS)
    num_demands = config.param("num_demands", _DEFAULTS)

    cube = topologies.hypercube(dim)
    expander = topologies.random_regular_expander(expander_n, degree=4, rng=rng)

    scenarios = [
        ("hypercube", cube, {
            "valiant": ValiantHypercubeRouting(cube, dim, rng=rng),
            "raecke-trees": RaeckeTreeRouting(cube, rng=rng),
            "electrical": ElectricalFlowRouting(cube),
            "spf": ShortestPathRouting(cube),
            "ksp4": KShortestPathRouting(cube, k=4),
        }),
        ("expander", expander, {
            "raecke-trees": RaeckeTreeRouting(expander, rng=rng),
            "electrical": ElectricalFlowRouting(expander),
            "spf": ShortestPathRouting(expander),
            "ksp4": KShortestPathRouting(expander, k=4),
        }),
    ]

    for label, network, builders in scenarios:
        demands = [random_permutation_demand(network, rng=rng) for _ in range(num_demands)]
        optima = [min_congestion_lp(network, demand).congestion for demand in demands]
        for scheme, builder in builders.items():
            worst = 0.0
            mean = 0.0
            for demand, optimum in zip(demands, optima):
                routing = builder.routing_for_demand(demand)
                report = evaluate_oblivious_routing(
                    routing, demand, scheme=scheme, optimal_congestion=optimum
                )
                worst = max(worst, report.ratio)
                mean += report.ratio / len(demands)
            result.add_row(
                "oblivious_baselines",
                graph=label,
                n=network.num_vertices,
                scheme=scheme,
                worst_ratio=round(worst, 3),
                mean_ratio=round(mean, 3),
            )
    result.add_note(
        "The sampling sources (valiant, raecke-trees, electrical) should show small worst ratios "
        "on permutation demands; spf is the weak baseline the sampled systems must beat."
    )
    return result


__all__ = ["run"]
