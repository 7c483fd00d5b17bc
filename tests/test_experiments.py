"""Tests for the experiment harness, smoke runs of every experiment, and
the paper's headline shapes on the experiment tables."""

import math

import pytest

from repro.experiments import REGISTRY
from repro.experiments.harness import ExperimentConfig, ExperimentResult, run_experiment


def test_config_param_lookup():
    config = ExperimentConfig(scale="small", overrides={"x": 10})
    defaults = {"small": {"x": 1, "y": 2}, "paper": {"x": 5, "y": 6}}
    assert config.param("x", defaults) == 10  # override wins
    assert config.param("y", defaults) == 2
    with pytest.raises(KeyError):
        config.param("z", defaults)


def test_result_rendering_and_columns():
    result = ExperimentResult(experiment_id="demo")
    result.add_row("table1", a=1, b="x")
    result.add_row("table1", a=2, c=3.5)
    result.add_note("a note")
    assert result.table_columns("table1") == ["a", "b", "c"]
    text = result.render()
    assert "demo" in text and "table1" in text and "a note" in text
    assert str(result) == text


def test_run_experiment_wrapper(capsys):
    def runner(config):
        result = ExperimentResult(experiment_id="wrapped")
        result.add_row("t", value=config.seed)
        return result

    result = run_experiment(runner, ExperimentConfig(seed=3), print_result=True)
    assert result.config.seed == 3
    assert "wrapped" in capsys.readouterr().out


def test_registry_contains_all_experiments():
    assert len(REGISTRY) == 12
    assert set(REGISTRY) == {
        "E1_sparsity_tradeoff",
        "E2_log_sparsity",
        "E3_lower_bound",
        "E4_deterministic_hypercube",
        "E5_weak_routing_process",
        "E6_rounding",
        "E7_completion_time",
        "E8_smore_te",
        "E9_arbitrary_demands",
        "E10_oblivious_baselines",
        "E11_ablation_selection",
        "E12_robustness",
    }


@pytest.mark.parametrize("experiment_id", sorted(REGISTRY))
def test_each_experiment_runs_at_smoke_scale(experiment_id):
    runner = REGISTRY[experiment_id]
    result = runner(ExperimentConfig(seed=1, scale="smoke"))
    assert result.experiment_id == experiment_id
    assert result.tables, "experiment produced no tables"
    for rows in result.tables.values():
        assert rows, "experiment produced an empty table"
    assert result.render()


def test_e3_lower_bound_exceeds_guarantee():
    result = REGISTRY["E3_lower_bound"](ExperimentConfig(seed=2, scale="smoke"))
    for row in result.tables["lower_bound"]:
        # Any routing on the sparse system exceeds the pigeonhole guarantee
        # while the offline optimum is 1 (Lemma 8.1).
        assert row["measured_congestion"] >= row["guaranteed_bound"] - 1e-6
        assert row["offline_optimum"] <= 1.0 + 1e-6
    structure = result.tables["figure1_structure"][0]
    assert structure["vertices"] == structure["expected_vertices"]
    assert structure["edges"] == structure["expected_edges"]


def test_e6_rounding_respects_bound():
    result = REGISTRY["E6_rounding"](ExperimentConfig(seed=2, scale="smoke"))
    for row in result.tables["rounding"]:
        # Lemma 6.3: the integral rounding stays within the bound and can
        # never beat the fractional routing it rounds.
        assert row["integral"] <= row["bound"] + 1e-6
        assert row["integral"] >= row["fractional"] - 1e-6


def test_e1_ratios_improve_with_alpha():
    result = REGISTRY["E1_sparsity_tradeoff"](ExperimentConfig(seed=3, scale="smoke"))
    rows = result.tables["sparsity_tradeoff"]
    # Theorem 2.5's trade-off on every graph: the largest alpha should not
    # be worse than the smallest one.
    for graph in {row["graph"] for row in rows}:
        by_alpha = {row["alpha"]: row["worst_ratio"] for row in rows if row["graph"] == graph}
        alphas = sorted(by_alpha)
        assert by_alpha[alphas[-1]] <= by_alpha[alphas[0]] + 1e-6, graph


def _e2_log_sparsity(result):
    # Theorem 2.3: worst ratios stay bounded (well under n) at log sparsity.
    for row in result.tables["log_sparsity"]:
        assert row["worst_ratio"] <= row["n"]


def _e4_deterministic(result):
    # With Theta(log n) sampled paths the ratio stays polylogarithmic; the
    # sqrt(n) separation from the single deterministic path emerges at the
    # larger "paper"-scale dimensions (see EXPERIMENTS.md).
    for row in result.tables["deterministic_vs_sampled"]:
        assert row["sampled_ratio"] <= 2.0 * math.log2(row["n"]) + 1e-6


def _e5_weak_routing(result):
    # Lemma 5.6: at the most generous allowance the process routes
    # (nearly) everything.
    most_generous = max(result.tables["weak_routing"], key=lambda row: row["gamma_over_opt"])
    assert most_generous["mean_fraction_routed"] >= 0.5
    assert most_generous["empirical_failure_rate"] <= 0.5


def _e7_completion_time(result):
    # Section 7: the multi-scale hop-constrained sample stays
    # completion-time competitive.
    for row in result.tables["completion_time"]:
        assert row["hop_sample_ratio"] <= 10.0
        assert row["hop_sample_sparsity"] >= row["alpha"]


def _e8_smore_te(result):
    # Headline ordering: adaptive semi-oblivious beats fixed-split
    # oblivious and spf.
    by_scheme = {row["scheme"]: row for row in result.tables["te_utilization_ratios"]}
    semi = by_scheme["semi-oblivious"]["mean_ratio"]
    assert semi <= by_scheme["oblivious"]["mean_ratio"] + 1e-6
    assert semi <= by_scheme["spf"]["mean_ratio"] + 1e-6


def _e9_arbitrary_demands(result):
    # Lemma 2.7: the (alpha + cut)-sample is no worse than the plain
    # alpha-sample on the high-cut pair, and close to optimal.
    necessity = result.tables["cut_sparsity_necessity"][0]
    assert necessity["cut_sample_ratio"] <= necessity["plain_sample_ratio"] + 1e-6
    assert necessity["cut_sample_ratio"] <= 4.0
    arbitrary = result.tables["arbitrary_integral"][0]
    assert arbitrary["direct_ratio"] <= arbitrary["bucketed_ratio"] + 1e-6


def _e10_oblivious_baselines(result):
    # The sampling sources the other experiments use are reasonably good.
    for row in result.tables["oblivious_baselines"]:
        if row["scheme"] in {"valiant", "raecke-trees", "electrical"}:
            assert row["worst_ratio"] <= 0.75 * row["n"]


def _e11_ablation_selection(result):
    # At equal sparsity every rule stays within a small factor of optimal
    # on these benign demands; the interesting ordering (random sample
    # best) is a trend over many seeds, so only sanity bounds here.
    for row in result.tables["selection_ablation"]:
        assert row["mean_ratio"] >= 1.0 - 1e-6
        assert row["sparsity"] <= row["alpha"]


def _e12_robustness(result):
    # Sampled candidate sets keep at least as much coverage as single
    # shortest paths.
    by_scheme = {row["scheme"]: row for row in result.tables["failure_robustness"]}
    assert (
        by_scheme["semi-oblivious-sample"]["mean_coverage"]
        >= by_scheme["spf"]["mean_coverage"] - 1e-9
    )


#: The paper's headline shapes, checked at ``small`` scale (about 2 s for
#: all of them); E1, E3 and E6 have their own tests above.
HEADLINE_SHAPES = {
    "E2_log_sparsity": _e2_log_sparsity,
    "E4_deterministic_hypercube": _e4_deterministic,
    "E5_weak_routing_process": _e5_weak_routing,
    "E7_completion_time": _e7_completion_time,
    "E8_smore_te": _e8_smore_te,
    "E9_arbitrary_demands": _e9_arbitrary_demands,
    "E10_oblivious_baselines": _e10_oblivious_baselines,
    "E11_ablation_selection": _e11_ablation_selection,
    "E12_robustness": _e12_robustness,
}


@pytest.mark.parametrize("experiment_id", sorted(HEADLINE_SHAPES))
def test_headline_shape_at_small_scale(experiment_id):
    result = REGISTRY[experiment_id](ExperimentConfig(seed=0, scale="small"))
    assert all(result.tables.values()), "experiment produced an empty table"
    HEADLINE_SHAPES[experiment_id](result)
