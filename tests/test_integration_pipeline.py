"""End-to-end integration tests across modules.

These tests exercise the whole pipeline the paper describes — build an
oblivious routing, sample a sparse candidate system, reveal a demand,
adapt rates, round to an integral routing, and compare against the
offline optimum — plus the lower-bound and completion-time pipelines.
"""

import math

import pytest

from repro.analysis.theory import logarithmic_sparsity
from repro.core.competitive import congestion_ratio
from repro.core.rounding import randomized_rounding, rounding_bound
from repro.core.sampling import alpha_sample
from repro.core.completion_time import MultiScaleHopSample, completion_time_competitive_ratio
from repro.core.rate_adaptation import optimal_rates
from repro.demands.adversarial import lower_bound_adversary
from repro.demands.demand import Demand
from repro.demands.generators import bit_reversal_demand, random_permutation_demand
from repro.engine import SemiObliviousRouter
from repro.graphs import topologies
from repro.graphs.lower_bound import gadget_size_k, lower_bound_gadget
from repro.mcf.lp import min_congestion_lp
from repro.oblivious.racke import RaeckeTreeRouting
from repro.oblivious.valiant import ValiantHypercubeRouting


def test_full_pipeline_on_hypercube():
    """Sample from Valiant, adapt, round, and stay within a polylog-ish factor."""
    dim = 4
    network = topologies.hypercube(dim)
    n = network.num_vertices
    alpha = max(2, logarithmic_sparsity(n))
    valiant = ValiantHypercubeRouting(network, dim, rng=0)
    demand = random_permutation_demand(network, rng=1)

    router = SemiObliviousRouter(network, valiant, alpha=alpha, rng=2)
    router.install(demand.pairs())
    fractional = router.route(demand)
    optimum = min_congestion_lp(network, demand).congestion
    ratio = congestion_ratio(fractional.congestion, optimum)
    # Theorem 2.3 predicts polylog competitiveness; a generous numeric cap
    # for n=16 with log-many sampled paths.
    assert ratio <= 4.0 * (math.log2(n) ** 2)

    integral = randomized_rounding(fractional.routing, demand.rounded_up(), rng=3)
    assert integral.routing.is_integral_on(demand)
    assert integral.congestion <= rounding_bound(fractional.congestion, network.num_edges) + 1e-9


def test_adversarial_hypercube_demand_still_fine_with_sampling():
    """Bit-reversal is adversarial for single-path routing but fine for sampled systems."""
    dim = 4
    network = topologies.hypercube(dim)
    valiant = ValiantHypercubeRouting(network, dim, rng=0)
    demand = bit_reversal_demand(network, dim)
    optimum = min_congestion_lp(network, demand).congestion

    sampled = SemiObliviousRouter(network, valiant, alpha=4, rng=1)
    sampled.install(demand.pairs())
    sampled_ratio = congestion_ratio(sampled.route(demand).congestion, optimum)

    from repro.core.path_system import PathSystem
    from repro.oblivious.valiant import bit_fixing_path

    single = PathSystem(network, {
        (source, target): [bit_fixing_path(source, target, dim)]
        for source, target in demand.pairs()
    })
    single_ratio = congestion_ratio(optimal_rates(single, demand).congestion, optimum)

    assert sampled_ratio <= single_ratio + 1e-9
    assert sampled_ratio <= 6.0


def test_lower_bound_pipeline_matches_theory_direction():
    """On C(n, k) the sampled sparse system is provably non-competitive."""
    n, alpha = 16, 1
    k = gadget_size_k(n, alpha)
    network, layout = lower_bound_gadget(n, k)
    oblivious = RaeckeTreeRouting(network, rng=0)
    pairs = [(s, t) for s in layout.left_leaves for t in layout.right_leaves]
    system = alpha_sample(oblivious, alpha, pairs=pairs, rng=0)
    adversary = lower_bound_adversary(system, layout)
    measured = optimal_rates(system, adversary.demand).congestion
    optimum = min_congestion_lp(network, adversary.demand).congestion
    assert optimum <= 1.0 + 1e-6
    assert measured >= adversary.congestion_lower_bound - 1e-6
    assert congestion_ratio(measured, optimum) >= 1.5  # clearly non-competitive at alpha=1


def test_completion_time_pipeline_on_ring_of_cliques():
    network = topologies.ring_of_cliques(4, 3)
    demand = Demand({((0, 2), (2, 2)): 1.0, ((1, 2), (3, 2)): 1.0})
    sample = MultiScaleHopSample.build(network, alpha=2, pairs=demand.pairs(), rng=0)
    ratio, achieved, baseline = completion_time_competitive_ratio(sample, demand)
    assert baseline > 0
    assert achieved.dilation <= network.diameter() * 3
    assert ratio < 5.0


def test_semi_oblivious_beats_oblivious_source_on_its_own_demand():
    """Rate adaptation can only improve on the sampled oblivious source."""
    network = topologies.random_regular_expander(12, degree=4, rng=6)
    oblivious = RaeckeTreeRouting(network, rng=7)
    demand = random_permutation_demand(network, rng=8)
    routing = oblivious.routing_for_demand(demand)
    oblivious_congestion = routing.congestion(demand)

    # Sampling the full support of the oblivious routing and adapting rates is
    # at least as good as the oblivious routing's own (fixed) split.
    from repro.core.sampling import support_system

    system = support_system(oblivious, pairs=demand.pairs())
    adapted = optimal_rates(system, demand).congestion
    assert adapted <= oblivious_congestion + 1e-6
