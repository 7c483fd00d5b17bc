"""ECMP-realizable forwarding subsystem tests.

The load-bearing invariants: quantized per-node split ratios are exact
multiples of ``1/k`` summing to 1, realized edge loads converge to the
fractional ideal as buckets and flows grow (on both the scipy and
numpy-only compiled legs), the quantizer refuses weight sums away from 1
with a typed :class:`ForwardingError` rather than renormalizing, and the
exact non-congestion recursion agrees with brute force and with seeded
Monte Carlo confidence intervals on real catalog topologies.
"""

from __future__ import annotations

import dataclasses
import itertools
import json

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.routing import Routing
from repro.demands.generators import gravity_demand
from repro.engine import RoutingEngine, build_router
from repro.exceptions import ForwardingError
from repro.graphs.network import Network
from repro.forwarding import (
    analyze_placement,
    evaluate_realization,
    forwarding_churn,
    monte_carlo_non_congestion,
    non_congestion_probability,
    quantize_pair,
    quantize_routing,
    realize_flows,
)
from repro.net import load_catalog_topology
from repro.scenarios import get_suite, run_suite
from repro.stream import build_stream

def _routing(network, spec="oblivious(ksp, k=3)", seed=0):
    router = build_router(spec, network, rng=seed)
    router.install()
    demand = gravity_demand(network, total=8.0, rng=seed + 1)
    result = router.route(demand)
    assert result.routing is not None
    return result.routing, demand


@st.composite
def _random_routings(draw):
    """A routing on a connected 4-7 node graph: 1-4 random-weight simple paths per pair."""
    n = draw(st.integers(4, 7))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}  # a random spanning tree
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    edges |= {(min(u, v), max(u, v)) for u, v in extra if u != v}
    network = Network.from_edges(sorted(edges))
    vertex = st.integers(0, n - 1)
    pairs = draw(
        st.lists(st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]),
                 min_size=1, max_size=5, unique=True)
    )
    distributions = {}
    for source, target in pairs:
        candidates = list(nx.all_simple_paths(network.graph, source, target))
        picks = draw(st.lists(st.integers(0, len(candidates) - 1), min_size=1, max_size=4,
                              unique=True))
        weights = [draw(st.floats(1e-3, 1.0)) for _ in picks]
        distributions[(source, target)] = {
            tuple(candidates[pick]): w / sum(weights) for pick, w in zip(picks, weights)
        }
    return Routing(network, distributions)


# --------------------------------------------------------------------- #
# Quantizer invariants
# --------------------------------------------------------------------- #
class TestQuantizer:
    @pytest.mark.parametrize("buckets", [2, 4, 8, 16])
    def test_split_ratios_are_multiples_of_one_over_k_and_sum_to_one(
        self, cube3, buckets
    ):
        routing, _ = _routing(cube3)
        table = quantize_routing(routing, buckets=buckets)
        assert len(table) == len(routing.pairs())
        for pair in table.pairs():
            entry = table[pair]
            if entry.mode == "next-hop":
                for node, counts in entry.next_hops:
                    total = sum(count for _, count in counts)
                    assert total == buckets
                for node, ratios in entry.next_hop_ratios().items():
                    assert sum(ratios.values()) == pytest.approx(1.0, abs=1e-12)
                    for ratio in ratios.values():
                        scaled = ratio * buckets
                        assert scaled == pytest.approx(round(scaled), abs=1e-12)
            # Realized path weights form a probability distribution over
            # valid source->target paths in both modes.
            weights = [weight for _, weight in entry.paths]
            assert sum(weights) == pytest.approx(1.0, abs=1e-9)
            for path, weight in entry.paths:
                assert weight > 0
                assert path[0] == pair[0] and path[-1] == pair[1]

    def test_path_mode_weights_are_multiples_of_one_over_k(self):
        pair = ("a", "t")
        distribution = {("a", "u", "v", "t"): 0.6, ("a", "v", "u", "t"): 0.4}
        entry = quantize_pair(pair, distribution, buckets=8)
        assert entry.mode == "path"  # the arc union has the u<->v cycle
        for _, weight in entry.paths:
            assert (weight * 8) == pytest.approx(round(weight * 8), abs=1e-12)

    def test_cycle_raises_under_on_cycle_error(self):
        pair = ("a", "t")
        distribution = {("a", "u", "v", "t"): 0.6, ("a", "v", "u", "t"): 0.4}
        with pytest.raises(ForwardingError, match="cycle"):
            quantize_pair(pair, distribution, buckets=8, on_cycle="error")

    def test_weight_sum_off_by_more_than_tolerance_is_typed_error(self):
        # The satellite contract: never renormalize silently.
        with pytest.raises(ForwardingError, match="does not renormalize"):
            quantize_pair(("a", "b"), {("a", "b"): 0.5}, buckets=4)
        with pytest.raises(ForwardingError, match="sum"):
            quantize_pair(
                ("a", "c"),
                {("a", "b", "c"): 0.7, ("a", "c"): 0.3 + 1e-6},
                buckets=4,
            )

    def test_near_zero_weight_path_quantizes_cleanly(self):
        # Regression: a path carrying ~0 weight must neither trip the
        # sum check (sum is still 1 within 1e-9) nor receive a bucket.
        tiny = 1e-15
        entry = quantize_pair(
            ("a", "c"),
            {("a", "b", "c"): 1.0 - tiny, ("a", "c"): tiny},
            buckets=8,
        )
        ratios = entry.next_hop_ratios()["a"]
        assert {succ: r for succ, r in ratios.items() if r > 0} == {"b": 1.0}
        assert entry.next_hop_sets()["a"] == frozenset({"b"})
        assert [path for path, _ in entry.paths] == [("a", "b", "c")]
        assert entry.error == pytest.approx(tiny, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(_random_routings(), st.integers(1, 16))
    def test_per_node_bucket_counts_sum_to_k_on_random_graphs(self, routing, buckets):
        table = quantize_routing(routing, buckets=buckets)
        assert table.pairs() == sorted(routing.pairs(), key=repr)
        for pair in table.pairs():
            entry = table[pair]
            if entry.mode == "next-hop":
                assert entry.next_hops
                for node, counts in entry.next_hops:
                    assert all(count >= 0 for _, count in counts)
                    assert sum(count for _, count in counts) == buckets
            else:  # path form: the path weights are whole buckets summing to k
                counts = [weight * buckets for _, weight in entry.paths]
                assert counts == pytest.approx([round(c) for c in counts], abs=1e-9)
                assert sum(round(c) for c in counts) == buckets

    def test_buckets_must_be_positive(self, cube3):
        routing, _ = _routing(cube3)
        with pytest.raises(ForwardingError, match="positive"):
            quantize_routing(routing, buckets=0)

    def test_error_shrinks_as_buckets_grow(self, cube3):
        routing, _ = _routing(cube3)
        errors = [
            quantize_routing(routing, buckets=k).max_error() for k in (2, 16, 256)
        ]
        assert errors[0] >= errors[1] >= errors[2]
        assert errors[2] < 1e-2

    def test_table_to_dict_is_json_stable(self, cube3):
        routing, _ = _routing(cube3)
        table = quantize_routing(routing, buckets=4)
        first = json.dumps(table.to_dict(), sort_keys=True)
        second = json.dumps(quantize_routing(routing, buckets=4).to_dict(),
                            sort_keys=True)
        assert first == second


# --------------------------------------------------------------------- #
# Flow realization and convergence
# --------------------------------------------------------------------- #
class TestRealization:
    def test_quantized_congestion_converges_as_buckets_grow(self, cube3):
        routing, demand = _routing(cube3)
        gaps = []
        for buckets in (2, 16, 256):
            _, result = evaluate_realization(routing, demand, buckets=buckets)
            gaps.append(abs(result.gap - 1.0))
        assert gaps[0] >= gaps[2]
        assert gaps[2] < 5e-2

    def test_flow_loads_converge_to_fractional_as_flows_grow(self, cube3):
        routing, demand = _routing(cube3)
        table = quantize_routing(routing, buckets=8)
        deviations = []
        for flows in (16, 4096):
            _, result = evaluate_realization(
                routing, demand, buckets=8, flows=flows, seed=7, table=table,
            )
            deviations.append(abs(result.flow_congestion - result.quantized_congestion))
        assert deviations[1] <= deviations[0]
        assert deviations[1] < 0.05 * result.quantized_congestion

    def test_realize_flows_is_bit_identical_per_seed(self, cube3):
        routing, _ = _routing(cube3)
        table = quantize_routing(routing, buckets=4)
        first = realize_flows(table, 64, seed=3)
        second = realize_flows(table, 64, seed=3)
        other = realize_flows(table, 64, seed=4)
        for pair in table.pairs():
            assert first.distribution(*pair) == second.distribution(*pair)
        assert any(
            first.distribution(*pair) != other.distribution(*pair)
            for pair in table.pairs()
        )

    def test_flow_paths_follow_the_table(self, cube3):
        routing, _ = _routing(cube3)
        table = quantize_routing(routing, buckets=4)
        empirical = realize_flows(table, 32, seed=0)
        for pair in table.pairs():
            allowed = table[pair].next_hop_sets()
            for path in empirical.distribution(*pair):
                assert path[0] == pair[0] and path[-1] == pair[1]
                for node, successor in zip(path, path[1:]):
                    assert successor in allowed[node]


# --------------------------------------------------------------------- #
# Churn
# --------------------------------------------------------------------- #
class TestChurn:
    def test_self_churn_is_zero_and_none_counts_in_full(self, cube3):
        routing, _ = _routing(cube3)
        table = quantize_routing(routing, buckets=8)
        assert forwarding_churn(table, table) == 0
        assert forwarding_churn(None, table) == len(table.next_hop_sets())

    def test_bucket_change_registers_churn(self, cube3):
        routing, _ = _routing(cube3)
        coarse = quantize_routing(routing, buckets=2)
        fine = quantize_routing(routing, buckets=8)
        assert forwarding_churn(coarse, fine) > 0

    def test_stream_summary_reports_churn(self, torus3):
        engine = RoutingEngine(torus3, ["spf"], rng=0)
        stream = build_stream("random-walk", torus3, num_steps=8, seed=1)
        report = engine.run_stream(
            stream, policies=["static", "periodic(k=4)"], churn_buckets=4
        )
        for name in report.results:
            summary = report.results[name].summary
            assert summary["churn_buckets"] == 4
            assert summary["forwarding_churn"] >= summary["forwarding_rules"] > 0
        baseline = engine.run_stream(stream, policies=["static"])
        assert "forwarding_churn" not in baseline.results["static"].summary


# --------------------------------------------------------------------- #
# Analytic non-congestion probabilities
# --------------------------------------------------------------------- #
class TestAnalytic:
    def test_tiny_closed_forms(self):
        # Two flows in two bins, limit 1: the flows must separate.
        assert non_congestion_probability(2, 2, 1) == pytest.approx(0.5)
        assert non_congestion_probability(3, 1, 1) == 1.0
        assert non_congestion_probability(2, 5, 2) == 0.0

    def test_exact_matches_brute_force_enumeration(self):
        bins, flows, limit = 3, 4, 2
        good = 0
        for assignment in itertools.product(range(bins), repeat=flows):
            occupancy = [assignment.count(b) for b in range(bins)]
            good += max(occupancy) <= limit
        expected = good / bins**flows
        assert non_congestion_probability(bins, flows, limit) == pytest.approx(
            expected, abs=1e-12
        )

    @pytest.mark.parametrize(
        "source", ["zoo(abilene)", "sndlib(polska)", "sndlib(geant)"]
    )
    def test_exact_within_monte_carlo_ci_on_catalog_topologies(self, source):
        # The acceptance gate: bins = k = 8, flows scaled to 2n for each
        # real topology, exact recursion inside the seeded 99% interval.
        network = load_catalog_topology(source)
        flows = 2 * network.num_vertices
        exact = analyze_placement(8, flows, method="exact")
        mc = monte_carlo_non_congestion(
            8, flows, exact["limit"], samples=20_000, seed=11, confidence=0.99
        )
        assert mc["ci_low"] <= exact["non_congestion_probability"] <= mc["ci_high"]

    def test_auto_method_switches_to_monte_carlo(self):
        small = analyze_placement(8, 32)
        assert small["method"] == "exact"
        big = analyze_placement(8, 32, max_states=10)
        assert big["method"] == "monte-carlo"
        assert big["ci_low"] <= big["non_congestion_probability"] <= big["ci_high"]
        again = analyze_placement(8, 32, max_states=10)
        assert big == again  # seeded sampling is bit-identical

    def test_validation(self):
        with pytest.raises(ForwardingError, match="bins"):
            non_congestion_probability(0, 4, 2)
        with pytest.raises(ForwardingError, match="method"):
            analyze_placement(4, 4, method="quantum")


# --------------------------------------------------------------------- #
# Engine / scenario integration
# --------------------------------------------------------------------- #
class TestIntegration:
    def test_realized_router_matches_direct_evaluation(self, cube3):
        base = build_router("oblivious(ksp, k=3)", cube3, rng=0)
        base.install()
        wrapped = build_router(
            "realized(oblivious(ksp, k=3), buckets=8)", cube3, rng=0
        )
        wrapped.install()
        assert wrapped.name == "realized[oblivious, k=8]"
        demand = gravity_demand(cube3, total=8.0, rng=5)
        base_result = base.route(demand)
        result = wrapped.route(demand)
        assert result.method == "ecmp"
        assert result.extra["buckets"] == 8
        assert result.extra["fractional_congestion"] == pytest.approx(
            base_result.congestion
        )
        assert result.congestion == pytest.approx(
            result.extra["gap"] * base_result.congestion
        )
        # Repeat routes hit the cached table and stay bit-identical.
        assert wrapped.route(demand).congestion == result.congestion

    def test_realized_scheme_through_the_engine(self, cube3):
        from repro.demands.traffic_matrix import diurnal_gravity_series

        engine = RoutingEngine(
            cube3,
            ["oblivious(ksp, k=3)", "realized(oblivious(ksp, k=3), buckets=8)"],
            rng=0,
        )
        series = diurnal_gravity_series(cube3, num_snapshots=2, rng=1)
        report = engine.evaluate_matrix_series(series)
        realized_label = next(
            label for label in report.results if label.startswith("realized[")
        )
        result = report.results[realized_label]
        assert len(result.max_utilizations) == 2
        assert all(np.isfinite(value) for value in result.max_utilizations)

    def test_adaptive_inner_fresh_routings_are_requantized(self, cube3):
        # Regression: the quantize cache was keyed on id(routing) without
        # retaining the routing, and adaptive inners build a fresh
        # Routing per route() — after the old object was freed, CPython
        # could reuse its address (and _version collides at the pair
        # count), silently serving the previous demand's table.  The
        # cache must hold a strong reference and hit on live identity.
        wrapped = build_router("realized(ksp(k=3), buckets=8)", cube3, rng=0)
        wrapped.install()
        solo = build_router("realized(ksp(k=3), buckets=8)", cube3, rng=0)
        solo.install()
        first = gravity_demand(cube3, total=8.0, rng=5)
        second = gravity_demand(cube3, total=8.0, rng=6)
        wrapped.route(first)
        cached_routing = wrapped._cache[0]
        assert cached_routing is not None  # strong reference retained
        result = wrapped.route(second)
        assert wrapped._cache[0] is not cached_routing
        # A router that never saw `first` must agree on `second`.
        assert result.congestion == pytest.approx(solo.route(second).congestion)

    def test_flow_seed_requires_install_and_optimal_is_rejected(self, cube3):
        router = build_router("ecmp(spf, buckets=4, flows=16)", cube3, rng=0)
        assert router.name == "realized[spf, k=4, flows=16]"
        optimal = build_router("realized(optimal, buckets=4)", cube3, rng=0)
        optimal.install()
        demand = gravity_demand(cube3, total=4.0, rng=2)
        with pytest.raises(ForwardingError, match="routing"):
            optimal.route(demand)

    def test_ecmp_gap_suite_is_registered_and_bit_identical_across_workers(self):
        suite = get_suite("ecmp-gap")
        assert suite.num_cells() == 8
        assert any("realized(" in scheme for scheme in suite.schemes)
        probe = dataclasses.replace(suite, topologies=suite.topologies[:2])
        serial = run_suite(probe, workers=1)
        parallel = run_suite(probe, workers=4)
        assert serial.to_json() == parallel.to_json()
        for cell in serial.cells:
            rows = {row["scheme"]: row for row in cell["rows"]}
            fractional = next(
                row for scheme, row in rows.items() if "realized(" not in scheme
            )
            for scheme, row in rows.items():
                if "realized(" in scheme:
                    assert row["congestion"] == pytest.approx(
                        fractional["congestion"], rel=0.5
                    )
