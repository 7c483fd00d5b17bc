"""Experiment harness reproducing every quantitative claim of the paper.

Each ``exp_*`` module exposes a ``run(config) -> ExperimentResult``
function; ``tests/test_experiments.py`` checks the paper's headline
shapes on their tables, and the example scripts print them.  The
experiment ids match the records in EXPERIMENTS.md.
"""

from repro.experiments.harness import ExperimentResult, ExperimentConfig, run_experiment
from repro.experiments import (
    exp_sparsity_tradeoff,
    exp_log_sparsity,
    exp_lower_bound,
    exp_deterministic,
    exp_weak_routing,
    exp_rounding,
    exp_completion_time,
    exp_smore_te,
    exp_arbitrary_demands,
    exp_oblivious_baselines,
    exp_ablation_selection,
    exp_robustness,
)

REGISTRY = {
    "E1_sparsity_tradeoff": exp_sparsity_tradeoff.run,
    "E2_log_sparsity": exp_log_sparsity.run,
    "E3_lower_bound": exp_lower_bound.run,
    "E4_deterministic_hypercube": exp_deterministic.run,
    "E5_weak_routing_process": exp_weak_routing.run,
    "E6_rounding": exp_rounding.run,
    "E7_completion_time": exp_completion_time.run,
    "E8_smore_te": exp_smore_te.run,
    "E9_arbitrary_demands": exp_arbitrary_demands.run,
    "E10_oblivious_baselines": exp_oblivious_baselines.run,
    "E11_ablation_selection": exp_ablation_selection.run,
    "E12_robustness": exp_robustness.run,
}

__all__ = ["ExperimentResult", "ExperimentConfig", "run_experiment", "REGISTRY"]
