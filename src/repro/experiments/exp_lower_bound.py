"""E3 — the lower bound (Lemmas 8.1/8.2, Corollary 8.3, Figure 1).

Build the gadget ``C(n, k)`` with ``k = floor(n^{1/(2α)})``, sample an
α-sparse semi-oblivious routing from a competitive oblivious routing, run
the Lemma 8.1 adversary, and verify the measured congestion of the best
adaptive routing on the sampled paths exceeds the guaranteed bound
``|matching| / α`` while the offline optimum is 1.
"""

from __future__ import annotations

from repro.analysis.theory import predicted_lower_bound
from repro.core.competitive import congestion_ratio
from repro.core.rate_adaptation import optimal_rates
from repro.core.sampling import alpha_sample
from repro.demands.adversarial import lower_bound_adversary
from repro.experiments.harness import ExperimentConfig, ExperimentResult
from repro.graphs.lower_bound import ascii_render_gadget, gadget_size_k, lower_bound_gadget
from repro.mcf.lp import min_congestion_lp
from repro.oblivious.racke import RaeckeTreeRouting
from repro.utils.rng import ensure_rng

_DEFAULTS = {
    "smoke": {"n": 16, "alphas": [1, 2]},
    "small": {"n": 64, "alphas": [1, 2, 3]},
    "paper": {"n": 144, "alphas": [1, 2, 3, 4]},
}


def run(config: ExperimentConfig) -> ExperimentResult:
    rng = ensure_rng(config.seed)
    result = ExperimentResult(experiment_id="E3_lower_bound")
    n = config.param("n", _DEFAULTS)
    alphas = config.param("alphas", _DEFAULTS)

    for alpha in alphas:
        k = max(gadget_size_k(n, alpha), 1)
        network, layout = lower_bound_gadget(n, k)
        oblivious = RaeckeTreeRouting(network, rng=rng)
        pairs = [
            (source, target)
            for source in layout.left_leaves
            for target in layout.right_leaves
        ]
        system = alpha_sample(oblivious, alpha, pairs=pairs, rng=rng)
        adversary = lower_bound_adversary(system, layout)
        adaptation = optimal_rates(system, adversary.demand)
        optimum = min_congestion_lp(network, adversary.demand).congestion
        measured_ratio = congestion_ratio(adaptation.congestion, optimum)
        result.add_row(
            "lower_bound",
            n=n,
            alpha=alpha,
            k=k,
            gadget_vertices=network.num_vertices,
            matching_size=len(adversary.matching),
            guaranteed_bound=round(adversary.congestion_lower_bound, 3),
            measured_congestion=round(adaptation.congestion, 3),
            offline_optimum=round(optimum, 3),
            measured_ratio=round(measured_ratio, 3),
            theory_bound=round(predicted_lower_bound(n, alpha), 3),
        )

    # Figure 1: structural check of C(256, 4) at paper scale (smaller otherwise).
    fig_n = 256 if config.scale == "paper" else n
    fig_network, fig_layout = lower_bound_gadget(fig_n, 4)
    result.add_row(
        "figure1_structure",
        n=fig_n,
        k=4,
        vertices=fig_network.num_vertices,
        edges=fig_network.num_edges,
        expected_vertices=2 * fig_n + 2 + 4,
        expected_edges=2 * fig_n + 8,
    )
    result.add_note(ascii_render_gadget(fig_layout))
    result.add_note(
        "measured_congestion should be >= guaranteed_bound = matching/|S'| while the offline "
        "optimum is 1 (Lemma 8.1); the ratio grows like n^{1/(2 alpha)} / alpha."
    )
    return result


__all__ = ["run"]
