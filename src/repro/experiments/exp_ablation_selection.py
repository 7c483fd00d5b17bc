"""E11 — ablation: how should the few candidate paths be selected?

The paper's construction samples paths *randomly* from a competitive
oblivious routing.  This ablation compares, at the same sparsity budget α,
four path-selection rules on the same demands:

* ``random-sample`` — the paper's rule (α-sample of the Räcke-style routing),
* ``top-alpha``    — deterministic: the α most probable support paths,
* ``ksp``          — the α shortest simple paths (oblivious-routing-free),
* ``vlb-sample``   — α samples from Valiant load balancing (random
  intermediate vertex), the diversity-without-Räcke baseline.

The qualitative expectation (and the reason SMORE samples from Räcke's
routing rather than using KSP): randomized samples from a
congestion-aware routing dominate both the deterministic truncation and
the purely structural KSP/VLB choices on adversarial demands, while all
adaptive schemes beat the non-adaptive oblivious source.
"""

from __future__ import annotations

from repro.core.competitive import evaluate_path_system
from repro.core.sampling import alpha_sample, deterministic_top_paths, support_system
from repro.demands.generators import random_permutation_demand
from repro.experiments.harness import ExperimentConfig, ExperimentResult
from repro.graphs import topologies
from repro.mcf.lp import min_congestion_lp
from repro.oblivious.racke import RaeckeTreeRouting
from repro.oblivious.shortest_path import KShortestPathRouting
from repro.oblivious.valiant_general import ValiantGeneralRouting
from repro.utils.rng import ensure_rng

_DEFAULTS = {
    "smoke": {"expander_n": 12, "torus_size": 3, "alpha": 2, "num_demands": 1},
    "small": {"expander_n": 20, "torus_size": 4, "alpha": 4, "num_demands": 2},
    "paper": {"expander_n": 48, "torus_size": 6, "alpha": 4, "num_demands": 4},
}


def _selection_systems(network, alpha, pairs, rng):
    """Build one candidate path system per selection rule."""
    racke = RaeckeTreeRouting(network, rng=rng)
    systems = {
        "random-sample": alpha_sample(racke, alpha, pairs=pairs, rng=rng),
        "top-alpha": deterministic_top_paths(racke, alpha, pairs=pairs),
        "vlb-sample": alpha_sample(ValiantGeneralRouting(network, rng=rng), alpha, pairs=pairs, rng=rng),
    }
    systems["ksp"] = support_system(KShortestPathRouting(network, k=alpha), pairs)
    return systems


def run(config: ExperimentConfig) -> ExperimentResult:
    rng = ensure_rng(config.seed)
    result = ExperimentResult(experiment_id="E11_ablation_selection")

    alpha = config.param("alpha", _DEFAULTS)
    num_demands = config.param("num_demands", _DEFAULTS)
    networks = [
        topologies.random_regular_expander(config.param("expander_n", _DEFAULTS), degree=4, rng=rng),
        topologies.torus_2d(config.param("torus_size", _DEFAULTS)),
    ]

    for network in networks:
        demands = [random_permutation_demand(network, rng=rng) for _ in range(num_demands)]
        optima = [min_congestion_lp(network, demand).congestion for demand in demands]
        pairs = {pair for demand in demands for pair in demand.pairs()}
        systems = _selection_systems(network, alpha, pairs, rng)
        for rule, system in systems.items():
            worst = 0.0
            mean = 0.0
            for demand, optimum in zip(demands, optima):
                report = evaluate_path_system(system, demand, optimal_congestion=optimum)
                worst = max(worst, report.ratio)
                mean += report.ratio / len(demands)
            result.add_row(
                "selection_ablation",
                graph=network.name,
                n=network.num_vertices,
                alpha=alpha,
                rule=rule,
                sparsity=system.sparsity(),
                worst_ratio=round(worst, 3),
                mean_ratio=round(mean, 3),
            )
    result.add_note(
        "On benign random permutation demands every adaptive rule lands within a small factor "
        "of optimal (structural ksp can even win); the value of sampling randomly from a "
        "competitive oblivious routing is worst-case robustness, which the adversarial "
        "experiments E3/E4 isolate.  This ablation documents that the average case does not "
        "distinguish the rules — matching the paper's framing that the guarantee is for all demands."
    )
    return result


__all__ = ["run"]
