"""Cross-checks of the two LPs behind the competitive ratio.

The normalizer (:func:`repro.mcf.lp.min_congestion_lp`) aggregates
commodities by source; the per-pair arc LP below is its oracle.  The
path LP over *every* simple path must reach the same optimum, and the
ratio every scheme reports passes through
:func:`repro.engine.router.congestion_ratio`, which refuses a routing
that beats the optimum.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

from repro.core.path_system import PathSystem
from repro.demands.demand import Demand
from repro.engine.router import RouteResult, congestion_ratio
from repro.exceptions import SolverError
from repro.graphs.network import Network
from repro.mcf.lp import min_congestion_lp
from repro.mcf.path_lp import min_congestion_on_paths
from repro.obs import RecordingSink, Tracer, install_tracer, span_records, uninstall_tracer


def per_pair_optimum(network: Network, demand: Demand) -> float:
    """The min-congestion arc LP with one commodity per (s, t) pair."""
    commodities = [(pair, amount) for pair, amount in demand.items() if amount > 0]
    n, edges = network.num_vertices, network.edges
    m, k = len(edges), len(commodities)
    num_vars = k * 2 * m + 1
    eq_rows, eq_cols, eq_vals = [], [], []
    b_eq = np.zeros(k * n)
    for c, ((source, target), amount) in enumerate(commodities):
        b_eq[c * n + network.vertex_index(source)] = amount
        b_eq[c * n + network.vertex_index(target)] = -amount
        for e, (u, v) in enumerate(edges):
            for a, (tail, head) in enumerate(((u, v), (v, u))):
                column = c * 2 * m + 2 * e + a
                eq_rows += [c * n + network.vertex_index(tail), c * n + network.vertex_index(head)]
                eq_cols += [column, column]
                eq_vals += [1.0, -1.0]
    ub_rows, ub_cols, ub_vals = [], [], []
    for e, edge in enumerate(edges):
        for c in range(k):
            ub_rows += [e, e]
            ub_cols += [c * 2 * m + 2 * e, c * 2 * m + 2 * e + 1]
            ub_vals += [1.0, 1.0]
        ub_rows.append(e)
        ub_cols.append(num_vars - 1)
        ub_vals.append(-network.capacity_of(edge))
    cost = np.zeros(num_vars)
    cost[-1] = 1.0
    result = linprog(
        cost,
        A_ub=sparse.csr_matrix((ub_vals, (ub_rows, ub_cols)), shape=(m, num_vars)),
        b_ub=np.zeros(m),
        A_eq=sparse.csr_matrix((eq_vals, (eq_rows, eq_cols)), shape=(k * n, num_vars)),
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
    )
    assert result.success, result.message
    return float(result.x[-1])


@st.composite
def instances(draw):
    """A connected 4-8 node graph with random capacities and a multi-sink demand."""
    n = draw(st.integers(4, 8))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}  # a random spanning tree
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    edges |= {(min(u, v), max(u, v)) for u, v in extra if u != v}
    capacity = st.floats(0.25, 4.0, allow_nan=False)
    capacities = {edge: draw(capacity) for edge in sorted(edges)}
    network = Network.from_edges(sorted(edges), capacities=capacities)

    amount = st.floats(0.05, 3.0, allow_nan=False)
    vertex = st.integers(0, n - 1)
    entries = {}
    for source in draw(st.lists(vertex, min_size=1, max_size=3, unique=True)):
        for target in draw(st.lists(vertex, min_size=2, max_size=4, unique=True)):
            if target != source:
                entries[(source, target)] = draw(amount)
    (source, target), _ = next(iter(entries.items()), ((0, 1), None))
    entries.setdefault((source, target), draw(amount))
    entries[(target, source)] = draw(amount)  # both directions of one pair
    return network, Demand(entries)


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


@settings(max_examples=40, deadline=None)
@given(instances())
def test_source_aggregated_optimum_equals_per_pair_oracle(instance):
    network, demand = instance
    assert _close(min_congestion_lp(network, demand).congestion, per_pair_optimum(network, demand))


@settings(max_examples=40, deadline=None)
@given(instances())
def test_peeled_routing_is_valid_and_optimal(instance):
    network, demand = instance
    result = min_congestion_lp(network, demand, return_routing=True)
    for (source, target), _ in demand.items():
        distribution = result.routing.distribution(source, target)
        assert sum(distribution.values()) == pytest.approx(1.0, abs=1e-12)
        for path in distribution:
            assert path[0] == source and path[-1] == target
            assert len(set(path)) == len(path)
            assert network.validate_path(path, source=source, target=target) == path
    assert _close(result.routing.congestion(demand), result.congestion)


@settings(max_examples=25, deadline=None)
@given(instances())
def test_path_lp_over_all_simple_paths_equals_arc_lp(instance):
    network, demand = instance
    system = PathSystem(network)
    for source, target in demand.pairs():
        for path in nx.all_simple_paths(network.graph, source, target):
            system.add_path(source, target, path)
    on_paths = min_congestion_on_paths(system, demand).congestion
    assert _close(on_paths, min_congestion_lp(network, demand).congestion)


def test_path_added_after_a_route_is_used_by_the_next(cycle5):
    system = PathSystem(cycle5)
    system.add_path(0, 1, (0, 1))
    demand = Demand({(0, 1): 1.0})
    assert min_congestion_on_paths(system, demand).congestion == pytest.approx(1.0)
    system.add_path(0, 1, (0, 4, 3, 2, 1))
    result = min_congestion_on_paths(system, demand)
    assert result.congestion == pytest.approx(0.5)
    assert len(result.routing.distribution(0, 1)) == 2


def test_congestion_ratio_refuses_a_routing_below_the_optimum():
    with pytest.raises(SolverError, match="0.5.*1.0"):
        congestion_ratio(0.5, 1.0)
    with pytest.raises(SolverError):
        RouteResult(scheme="x", congestion=0.5, optimal_congestion=1.0).to_dict()


def test_congestion_ratio_tolerates_lp_rounding():
    assert congestion_ratio(1.0 - 1e-9, 1.0) == pytest.approx(1.0)
    assert congestion_ratio(float("inf"), 1.0) == float("inf")
    assert congestion_ratio(0.0, 0.0) == 1.0


def test_both_lps_report_their_size_and_iterations(cube3):
    tracer = install_tracer(Tracer(sink=RecordingSink()))
    try:
        demand = Demand({(0, 7): 1.0, (0, 3): 2.0, (5, 0): 1.0})
        min_congestion_lp(cube3, demand)
        system = PathSystem(cube3)
        for pair in demand.pairs():
            system.add_path(*pair, cube3.shortest_path(*pair))
        min_congestion_on_paths(system, demand)
    finally:
        uninstall_tracer()
    spans = {record["name"]: record for record in span_records(tracer.records)}
    normalizer = spans["mcf.lp"]["counters"]
    assert normalizer["sources"] == 2
    assert normalizer["columns"] == 2 * 2 * cube3.num_edges + 1
    assert normalizer["rows"] == 2 * cube3.num_vertices + cube3.num_edges
    assert normalizer["nnz"] > 0 and normalizer["iterations"] >= 0
    path_lp = spans["mcf.path_lp"]["counters"]
    assert path_lp["cols"] == 3 + 1
    assert path_lp["rows"] == cube3.num_edges + 3
    assert path_lp["nnz"] == (3 + 2 + 2) + cube3.num_edges + 3
    assert "iterations" in path_lp
    parent = spans["mcf.path_lp"]["seq"]
    assert spans["mcf.path_lp_setup"]["parent"] == parent
    assert spans["mcf.path_lp_solve"]["parent"] == parent
