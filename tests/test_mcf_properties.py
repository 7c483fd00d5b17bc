"""Cross-checks of the two LPs behind the competitive ratio.

The normalizer (:func:`repro.mcf.lp.min_congestion_lp`) aggregates
commodities by source; the per-pair arc LP below is its oracle.  It
drives HiGHS through :mod:`repro.mcf.highs`, and ``linprog`` on the same
model, stacked as ``A_ub``/``A_eq``, must return the same ``z`` and
utilization bit for bit.  The path LP over *every* simple path must
reach the same optimum, and the ratio every scheme reports passes
through :func:`repro.core.competitive.congestion_ratio`, which refuses
a routing that beats the optimum.  On one installed system, the rates
the path LP adapts congest no more than any fixed split over the same
paths.

The path LP solves a demand cold over its own pairs' paths; after
``warm_start`` it first re-solves a demand on every installed pair on
the system's persistent model, from the reference basis.  The cold
``linprog`` LP over only the demanded pairs' paths below is its oracle:
a persistent re-solve reaches its ``z`` with flows that carry every
demanded amount within the congestion, and results must not depend on
solve order or on a pickle round trip of the system.
"""

from __future__ import annotations

import pickle
from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

from repro.core.competitive import congestion_ratio
from repro.core.path_system import PathSystem
from repro.core.rate_adaptation import optimal_rates
from repro.core.routing import Routing
from repro.demands.demand import Demand
from repro.engine.router import RouteResult
from repro.exceptions import SolverError
from repro.graphs.network import Network
from repro.mcf.lp import min_congestion_lp
from repro.mcf import highs, path_lp
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


def source_aggregated_linprog(network: Network, demand: Demand):
    """The normalizer's model, stacked as ``A_ub``/``A_eq`` and solved by ``linprog``.

    Returns ``z`` and the per-edge utilization, computed as the
    normalizer computes them from the primal vector.
    """
    commodities = [(pair, amount) for pair, amount in demand.items() if amount > 0]
    sources = list(dict.fromkeys(source for (source, _), _ in commodities))
    n, edges = network.num_vertices, network.edges
    m, k = len(edges), len(sources)
    num_vars = k * 2 * m + 1
    eq_rows, eq_cols, eq_vals = [], [], []
    b_eq = np.zeros(k * n)
    for (source, target), amount in commodities:
        row = sources.index(source) * n
        b_eq[row + network.vertex_index(source)] += amount
        b_eq[row + network.vertex_index(target)] -= amount
    ub_rows, ub_cols, ub_vals = [], [], []
    for c in range(k):
        for e, (u, v) in enumerate(edges):
            for a, (tail, head) in enumerate(((u, v), (v, u))):
                column = c * 2 * m + 2 * e + a
                eq_rows += [c * n + network.vertex_index(tail), c * n + network.vertex_index(head)]
                eq_cols += [column, column]
                eq_vals += [1.0, -1.0]
                ub_rows.append(e)
                ub_cols.append(column)
                ub_vals.append(1.0)
    ub_rows += range(m)
    ub_cols += [num_vars - 1] * m
    ub_vals += [-network.capacity_of(edge) for edge in edges]
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
    utilization = result.x[:-1].reshape(k, m, 2).sum(axis=(0, 2)) / network.capacities
    return float(result.x[-1]), utilization


def column_selected_optimum(system: PathSystem, demand: Demand) -> float:
    """The cold path LP over only the demanded pairs' paths, solved by ``linprog``."""
    incidence = system.incidence()
    blocks = [(amount, *incidence.slices[pair]) for pair, amount in demand.items() if amount > 0]
    if not blocks:
        return 0.0
    m = len(incidence.capacities)
    selected = [j for _, start, stop in blocks for j in range(start, stop)]
    num_vars = len(selected) + 1
    ub_rows, ub_cols = [], []
    for column, j in enumerate(selected):
        edge_ids = incidence.edge_ids[incidence.indptr[j]:incidence.indptr[j + 1]]
        ub_rows += edge_ids.tolist()
        ub_cols += [column] * len(edge_ids)
    ub_vals = [1.0] * len(ub_rows) + (-incidence.capacities).tolist()
    ub_rows += list(range(m))
    ub_cols += [num_vars - 1] * m
    eq_rows = [row for row, (_, start, stop) in enumerate(blocks) for _ in range(start, stop)]
    cost = np.zeros(num_vars)
    cost[-1] = 1.0
    result = linprog(
        cost,
        A_ub=sparse.csr_matrix((ub_vals, (ub_rows, ub_cols)), shape=(m, num_vars)),
        b_ub=np.zeros(m),
        A_eq=sparse.csr_matrix(
            (np.ones(len(selected)), (eq_rows, range(len(selected)))),
            shape=(len(blocks), num_vars),
        ),
        b_eq=[amount for amount, _, _ in blocks],
        bounds=(0, None),
        method="highs",
    )
    assert result.success, result.message
    return float(result.x[-1])


@st.composite
def graphs(draw) -> Network:
    """A connected 4-8 node graph with random capacities."""
    n = draw(st.integers(4, 8))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}  # a random spanning tree
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    edges |= {(min(u, v), max(u, v)) for u, v in extra if u != v}
    capacity = st.floats(0.25, 4.0, allow_nan=False)
    capacities = {edge: draw(capacity) for edge in sorted(edges)}
    return Network.from_edges(sorted(edges), capacities=capacities)


@st.composite
def instances(draw):
    """A connected 4-8 node graph with random capacities and a multi-sink demand."""
    network = draw(graphs())
    n = network.num_vertices

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


@st.composite
def installed_systems(draw):
    """A warm-started system with 1-4 simple paths per installed pair and 2-4 demands.

    A demand either puts a positive amount on every installed pair (the
    warm-started case) or covers a random subset of them, some with
    amount 0 (the cold case).
    """
    network = draw(graphs())
    n = network.num_vertices
    vertex = st.integers(0, n - 1)
    pairs = draw(
        st.lists(st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]),
                 min_size=1, max_size=6, unique=True)
    )
    buckets = {}
    for source, target in pairs:
        candidates = list(nx.all_simple_paths(network.graph, source, target))
        picks = draw(st.lists(st.integers(0, len(candidates) - 1), min_size=1, max_size=4,
                              unique=True))
        buckets[(source, target)] = [candidates[pick] for pick in picks]
    system = PathSystem(network, buckets)
    positive = st.floats(0.05, 3.0, allow_nan=False)
    amount = st.one_of(st.just(0.0), positive)
    demands = []
    for _ in range(draw(st.integers(2, 4))):
        if draw(st.booleans()):
            demands.append(Demand({pair: draw(positive) for pair in pairs}))
        else:
            covered = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
            demands.append(Demand({pair: draw(amount) for pair in covered}))
    path_lp.warm_start(system)
    return system, demands


def _outcome(result):
    """Everything a path-LP result carries, for exact comparison."""
    routing = result.routing
    distributions = (
        None if routing is None else [(pair, routing.distribution(*pair)) for pair in routing]
    )
    return result.congestion, result.edge_congestions, distributions


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


@settings(max_examples=40, deadline=None)
@given(instances())
def test_source_aggregated_optimum_equals_per_pair_oracle(instance):
    network, demand = instance
    assert _close(min_congestion_lp(network, demand).congestion, per_pair_optimum(network, demand))


@settings(max_examples=40, deadline=None)
@given(instances())
def test_normalizer_is_bit_identical_to_linprog_on_the_stacked_model(instance):
    network, demand = instance
    result = min_congestion_lp(network, demand)
    congestion, utilization = source_aggregated_linprog(network, demand)
    assert result.congestion == congestion
    assert result.utilization.tobytes() == utilization.tobytes()


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
    system = PathSystem(network, {
        pair: list(nx.all_simple_paths(network.graph, *pair)) for pair in demand.pairs()
    })
    on_paths = min_congestion_on_paths(system, demand).congestion
    assert _close(on_paths, min_congestion_lp(network, demand).congestion)


@settings(max_examples=40, deadline=None)
@given(installed_systems())
def test_rate_lp_matrix_equals_a_loop_built_reference(instance):
    system, _ = instance
    network = system.network
    incidence = system.incidence()
    for j, path in enumerate(incidence.paths):  # edge ids in hop order
        row = incidence.edge_ids[incidence.indptr[j]:incidence.indptr[j + 1]]
        assert row.tolist() == network.path_edge_ids(path)
    # One column per path: its edge rows ascending, then its pair row; then z.
    m = network.num_edges
    start, index, value = [], [], []
    for i, (_, paths) in enumerate(system.items()):
        for path in paths:
            start.append(len(index))
            rows = sorted(network.path_edge_ids(path)) + [m + i]
            index += rows
            value += [1.0] * len(rows)
    start.append(len(index))
    index += range(m)
    value += (-network.capacities).tolist()
    lp = system.rate_lp(path_lp.RateLP)
    assert lp._start.tobytes() == np.array(start, dtype=np.int32).tobytes()
    assert lp._index.tobytes() == np.array(index, dtype=np.int32).tobytes()
    assert lp._value.tobytes() == np.array(value, dtype=float).tobytes()


@settings(max_examples=40, deadline=None)
@given(installed_systems())
def test_warm_started_path_lp_equals_cold_oracle(instance):
    system, demands = instance
    for demand in demands:
        result = min_congestion_on_paths(system, demand)
        assert _close(result.congestion, column_selected_optimum(system, demand))
        if result.routing is not None:  # the returned rates realize the optimum
            assert _close(result.routing.congestion(demand), result.congestion)
            assert _close(max(result.edge_congestions.values()), result.congestion)


@settings(max_examples=40, deadline=None)
@given(installed_systems(), st.data())
def test_persistent_re_solve_equals_a_fresh_cold_solve_and_is_feasible(instance, data):
    system, _ = instance
    lp = system.rate_lp(path_lp.RateLP)
    incidence = lp.incidence
    positive = st.floats(0.05, 3.0, allow_nan=False)
    for _ in range(3):
        amounts = np.array([data.draw(positive) for _ in lp.pairs])
        flows, z, counters = lp.solve(amounts)
        assert counters["warm"] == 1  # answered by the persistent model
        assert _close(z, column_selected_optimum(system, Demand(dict(zip(lp.pairs, amounts)))))
        carried = np.add.reduceat(flows, lp.pair_starts)
        assert np.all(np.abs(carried - amounts) <= 1e-9 * amounts), (carried, amounts)
        loads = np.bincount(
            incidence.edge_ids, weights=np.repeat(flows, lp.hops),
            minlength=len(incidence.capacities),
        )
        assert np.all(loads <= z * incidence.capacities * (1 + 1e-9)), (loads, z)


@settings(max_examples=30, deadline=None)
@given(installed_systems())
def test_path_lp_results_do_not_depend_on_solve_order(instance):
    system, demands = instance
    forward = [_outcome(min_congestion_on_paths(system, demand)) for demand in demands]
    backward = [_outcome(min_congestion_on_paths(system, demand)) for demand in demands[::-1]]
    assert forward == backward[::-1]


@settings(max_examples=30, deadline=None)
@given(installed_systems())
def test_pickled_system_routes_the_next_demand_identically(instance):
    system, demands = instance
    min_congestion_on_paths(system, demands[0])
    restored = pickle.loads(pickle.dumps(system))  # as the sweep pool ships it
    tracer = install_tracer(Tracer(sink=RecordingSink()))
    try:
        for demand in demands[1:]:
            expected = _outcome(min_congestion_on_paths(system, demand))
            assert _outcome(min_congestion_on_paths(restored, demand)) == expected
    finally:
        uninstall_tracer()
    # The basis travelled with the system: neither side solved it again.
    names = {record["name"] for record in span_records(tracer.records)}
    assert "mcf.path_lp_reference" not in names


@settings(max_examples=30, deadline=None)
@given(installed_systems(), st.data())
def test_trusted_routing_equals_the_validated_one(instance, data):
    system, _ = instance
    weight = st.floats(1e-6, 1.0, allow_nan=False)
    distributions = {}
    for pair, paths in system.items():
        raw = [data.draw(weight) for _ in paths]
        distributions[pair] = {path: w / sum(raw) for path, w in zip(paths, raw)}
    trusted = Routing._from_validated(system.network, distributions, system.incidence())
    validated = Routing(system.network, distributions)
    assert [(pair, trusted.distribution(*pair)) for pair in trusted] == [
        (pair, validated.distribution(*pair)) for pair in validated
    ]
    assert trusted._incidence.paths == validated._incidence.paths
    assert trusted._incidence.edge_ids.tolist() == validated._incidence.edge_ids.tolist()


@settings(max_examples=30, deadline=None)
@given(installed_systems(), st.data())
def test_adapted_rates_congest_no_more_than_any_fixed_split(instance, data):
    system, demands = instance
    weight = st.floats(1e-6, 1.0, allow_nan=False)
    distributions = {}
    for pair, paths in system.items():
        raw = [data.draw(weight) for _ in paths]
        distributions[pair] = {path: w / sum(raw) for path, w in zip(paths, raw)}
    fixed = Routing(system.network, distributions)
    for demand in demands:
        adapted = optimal_rates(system, demand).congestion
        split = fixed.congestion(demand)
        assert adapted <= split * (1.0 + 1e-9) + 1e-12, (adapted, split)


def test_path_lp_without_the_bundled_highs_names_the_scipy_floor(cube3, monkeypatch):
    binding = highs.highs
    assert highs.checked(binding) is binding
    # A binding whose solver lacks a method the persistent model calls counts as missing.
    methods = ("changeColsBounds", "clearSolver")
    for lacking in methods:
        solver = type("_Highs", (), {name: None for name in methods if name != lacking})
        members = {name: getattr(binding, name) for name in dir(binding)}
        assert highs.checked(SimpleNamespace(**{**members, "_Highs": solver})) is None
    monkeypatch.setattr(highs, "highs", None)
    system = PathSystem(cube3, {(0, 1): [(0, 1)]})
    demand = Demand({(0, 1): 1.0})
    with pytest.raises(SolverError, match=r"scipy >= 1\.15") as path_error:
        min_congestion_on_paths(system, demand)
    with pytest.raises(SolverError, match=r"scipy >= 1\.15") as warm_error:
        path_lp.warm_start(system)
    with pytest.raises(SolverError, match=r"scipy >= 1\.15") as normalizer_error:
        min_congestion_lp(cube3, demand)
    assert str(normalizer_error.value) == str(path_error.value) == str(warm_error.value)


def test_path_added_after_a_route_is_used_by_the_next(cycle5):
    # A system never changes: a path is added by building a new system,
    # which gets its own LP while the first keeps its own.
    system = PathSystem(cycle5, {(0, 1): [(0, 1)]})
    demand = Demand({(0, 1): 1.0})
    assert min_congestion_on_paths(system, demand).congestion == pytest.approx(1.0)
    wider = system.merge(PathSystem(cycle5, {(0, 1): [(0, 4, 3, 2, 1)]}))
    result = min_congestion_on_paths(wider, demand)
    assert result.congestion == pytest.approx(0.5)
    assert len(result.routing.distribution(0, 1)) == 2
    assert min_congestion_on_paths(system, demand).congestion == pytest.approx(1.0)


def test_congestion_ratio_refuses_a_routing_below_the_optimum():
    with pytest.raises(SolverError, match="0.5.*1.0"):
        congestion_ratio(0.5, 1.0)
    with pytest.raises(SolverError):
        RouteResult(scheme="x", congestion=0.5, optimal_congestion=1.0).to_dict()


def test_congestion_ratio_tolerates_lp_rounding():
    assert congestion_ratio(1.0 - 1e-9, 1.0) == pytest.approx(1.0)
    assert congestion_ratio(float("inf"), 1.0) == float("inf")
    assert congestion_ratio(0.0, 0.0) == 1.0


def test_warm_attempt_past_its_cap_gives_the_cold_answer(cube3, monkeypatch):
    demand = Demand({(0, 7): 3.0, (0, 6): 0.1, (1, 7): 2.5, (3, 4): 0.2})
    buckets = {
        pair: list(nx.all_simple_paths(cube3.graph, *pair, cutoff=4))[:3]
        for pair in demand.pairs()
    }
    cold, warm = PathSystem(cube3, buckets), PathSystem(cube3, buckets)
    path_lp.warm_start(warm)
    monkeypatch.setattr(path_lp, "WARM_ITERATIONS", 0)
    tracer = install_tracer(Tracer(sink=RecordingSink()))
    try:
        capped = _outcome(min_congestion_on_paths(warm, demand))
    finally:
        uninstall_tracer()
    (span,) = [r for r in span_records(tracer.records) if r["name"] == "mcf.path_lp"]
    assert span["counters"]["warm"] == 0
    assert span["counters"]["capped"] == 1
    assert capped == _outcome(min_congestion_on_paths(cold, demand))


def test_both_lps_report_their_size_and_iterations(cube3):
    tracer = install_tracer(Tracer(sink=RecordingSink()))
    try:
        demand = Demand({(0, 7): 1.0, (0, 3): 2.0, (5, 0): 1.0})
        min_congestion_lp(cube3, demand)
        system = PathSystem(cube3, {pair: [cube3.shortest_path(*pair)] for pair in demand.pairs()})
        min_congestion_on_paths(system, demand)  # not warm-started: cold, no reference
        path_lp.warm_start(system)
        path_lp.warm_start(system)
        min_congestion_on_paths(system, demand)
        min_congestion_on_paths(system, Demand({(0, 7): 2.0, (0, 3): 1.0, (5, 0): 3.0}))
        min_congestion_on_paths(system, Demand({(0, 3): 1.0}))
    finally:
        uninstall_tracer()
    records = span_records(tracer.records)
    spans = {record["name"]: record for record in records}
    normalizer = spans["mcf.lp"]["counters"]
    assert normalizer["sources"] == 2
    assert normalizer["columns"] == 2 * 2 * cube3.num_edges + 1
    assert normalizer["rows"] == 2 * cube3.num_vertices + cube3.num_edges
    assert normalizer["nnz"] > 0 and normalizer["iterations"] >= 0
    path_lps = [record for record in records if record["name"] == "mcf.path_lp"]
    assert [record["counters"]["warm"] for record in path_lps] == [0, 1, 1, 0]
    assert [record["counters"]["capped"] for record in path_lps] == [0, 0, 0, 0]
    # Demands on every installed pair: every installed path is a column.
    for record in path_lps[:3]:
        counters = record["counters"]
        assert counters["cols"] == 3 + 1
        assert counters["rows"] == cube3.num_edges + 3
        assert counters["nnz"] == (3 + 2 + 2) + 3 + cube3.num_edges
        assert counters["iterations"] >= 0
    # A demand on one pair: only that pair's path is a column.
    counters = path_lps[3]["counters"]
    assert counters["cols"] == 1 + 1
    assert counters["rows"] == cube3.num_edges + 1
    assert counters["nnz"] == 2 + 1 + cube3.num_edges
    assert counters["iterations"] >= 0
    # One reference solve per system, by warm_start, in no route.
    references = [record for record in records if record["name"] == "mcf.path_lp_reference"]
    assert len(references) == 1
    assert references[0]["parent"] is None
    assert references[0]["counters"]["iterations"] >= 0
    parent = spans["mcf.path_lp"]["seq"]
    assert spans["mcf.path_lp_setup"]["parent"] == parent
    assert spans["mcf.path_lp_solve"]["parent"] == parent
