"""E4 — deterministic routing on hypercubes (Section 1.1 consequence, [KKT91]).

Compare, on adversarial hypercube permutations (bit reversal, transpose):

* the deterministic 1-path bit-fixing routing (KKT91 barrier ~ sqrt(n)/d),
* a deterministic selection of α = Θ(log n) heaviest Valiant paths,
* a randomized α-sample of the Valiant routing.

The claim: few (deterministically or randomly selected) paths with
adaptive rates break the single-path deterministic barrier.
"""

from __future__ import annotations

import math

from repro.analysis.theory import deterministic_single_path_barrier
from repro.core.competitive import evaluate_path_system
from repro.core.path_system import PathSystem
from repro.core.sampling import alpha_sample
from repro.demands.generators import bit_reversal_demand, transpose_demand
from repro.experiments.harness import ExperimentConfig, ExperimentResult
from repro.graphs import topologies
from repro.mcf.lp import min_congestion_lp
from repro.oblivious.valiant import ValiantHypercubeRouting, bit_fixing_path
from repro.utils.rng import ensure_rng

_DEFAULTS = {
    "smoke": {"dims": [3]},
    "small": {"dims": [4]},
    "paper": {"dims": [4, 5, 6]},
}


def run(config: ExperimentConfig) -> ExperimentResult:
    rng = ensure_rng(config.seed)
    result = ExperimentResult(experiment_id="E4_deterministic_hypercube")

    for dim in config.param("dims", _DEFAULTS):
        network = topologies.hypercube(dim)
        n = network.num_vertices
        # The deterministic-routing consequence selects Theta(log n) paths.
        alpha = max(2, int(math.ceil(math.log2(n))))
        valiant = ValiantHypercubeRouting(network, dim, rng=rng)

        demands = {"bit-reversal": bit_reversal_demand(network, dim)}
        if dim % 2 == 0:
            demands["transpose"] = transpose_demand(network, dim)

        for demand_name, demand in demands.items():
            if demand.is_empty():
                continue
            optimum = min_congestion_lp(network, demand).congestion

            # Deterministic single bit-fixing path per pair (no adaptation possible:
            # one path is one path, so its congestion is just the load it induces).
            single = PathSystem(network, {
                (source, target): [bit_fixing_path(source, target, dim)]
                for source, target in demand.pairs()
            })
            single_report = evaluate_path_system(single, demand, optimal_congestion=optimum)

            # Randomized alpha-sample from Valiant's routing.
            sampled = alpha_sample(valiant, alpha, pairs=demand.pairs(), rng=rng)
            sampled_report = evaluate_path_system(sampled, demand, optimal_congestion=optimum)

            result.add_row(
                "deterministic_vs_sampled",
                dim=dim,
                n=n,
                demand=demand_name,
                alpha=alpha,
                optimum=round(optimum, 3),
                single_path_ratio=round(single_report.ratio, 3),
                sampled_ratio=round(sampled_report.ratio, 3),
                kkt_barrier=round(deterministic_single_path_barrier(n, network.max_degree()), 3),
            )
    result.add_note(
        "single_path_ratio should grow roughly like sqrt(n)/log(n) on the adversarial "
        "permutations, while sampled_ratio stays polylogarithmic — the separation the paper "
        "highlights for deterministic routing via a few paths."
    )
    return result


__all__ = ["run"]
