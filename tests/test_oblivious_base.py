"""Unit tests for the oblivious routing builder interface."""

import pytest

from repro.core.routing import Routing
from repro.demands.demand import Demand
from repro.exceptions import PathError, ReproError, RoutingError
from repro.obs import RecordingSink, Tracer, install_tracer, span_records, uninstall_tracer
from repro.oblivious.base import ObliviousRoutingBuilder
from repro.oblivious.electrical import ElectricalFlowRouting
from repro.oblivious.hop_constrained import HopConstrainedRouting
from repro.oblivious.racke import RaeckeTreeRouting
from repro.oblivious.shortest_path import KShortestPathRouting, ShortestPathRouting
from repro.oblivious.valiant import ValiantHypercubeRouting
from repro.oblivious.valiant_general import ValiantGeneralRouting
from strategies import oracle_distributions


class _CountingBuilder(ObliviousRoutingBuilder):
    """Test double counting distribution_for calls (to verify caching)."""

    name = "counting"

    def __init__(self, network):
        super().__init__(network)
        self.calls = 0

    def distribution_for(self, source, target):
        self.calls += 1
        return {self.network.shortest_path(source, target): 1.0}


class _EmptyBuilder(ObliviousRoutingBuilder):
    def distribution_for(self, source, target):
        return {}


def test_pair_distribution_is_cached(cube3):
    builder = _CountingBuilder(cube3)
    builder.pair_distribution(0, 7)
    builder.pair_distribution(0, 7)
    assert builder.calls == 1
    builder.clear_cache()
    builder.pair_distribution(0, 7)
    assert builder.calls == 2


def test_pair_distribution_rejects_self_pair(cube3):
    builder = _CountingBuilder(cube3)
    with pytest.raises(RoutingError):
        builder.pair_distribution(3, 3)


def test_empty_distribution_rejected(cube3):
    builder = _EmptyBuilder(cube3)
    with pytest.raises(RoutingError):
        builder.pair_distribution(0, 1)


def test_routing_materialization_all_pairs(path4):
    builder = ShortestPathRouting(path4)
    routing = builder.routing()
    assert isinstance(routing, Routing)
    assert len(routing) == path4.num_vertices * (path4.num_vertices - 1)


def test_routing_for_demand_covers_support(cube3):
    builder = ShortestPathRouting(cube3)
    demand = Demand({(0, 7): 1.0, (1, 6): 2.0})
    routing = builder.routing_for_demand(demand)
    assert set(routing.pairs()) == set(demand.pairs())


def test_build_routing_for_pairs(cube3):
    builder = ShortestPathRouting(cube3)
    routing = builder.routing(pairs=[(0, 1), (2, 3)])
    assert set(routing.pairs()) == {(0, 1), (2, 3)}


def test_repr_mentions_network(cube3):
    builder = _CountingBuilder(cube3)
    assert "hypercube" in repr(builder)


#: One broken distribution per case for the pair (0, 3) of the 3-cube
#: (0-1-3 and 0-2-3 are its shortest paths), with the error the per-path
#: oracle raises.
_BROKEN = {
    "non-adjacent step": ({(0, 3): 1.0}, PathError),
    "repeated vertex": ({(0, 1, 5, 1, 3): 1.0}, PathError),
    "wrong endpoint": ({(0, 1, 5): 1.0}, PathError),
    "unknown vertex": ({(0, 99, 3): 1.0}, PathError),
    "sum 0.9": ({(0, 1, 3): 0.5, (0, 2, 3): 0.4}, RoutingError),
    "negative probability": ({(0, 1, 3): 1.2, (0, 2, 3): -0.2}, RoutingError),
    "empty distribution": ({}, RoutingError),
}


class _BrokenBuilder(ObliviousRoutingBuilder):
    """Shortest paths for every pair except (0, 3), which gets ``broken``."""

    def __init__(self, network, broken):
        super().__init__(network)
        self._broken = broken

    def distribution_for(self, source, target):
        if (source, target) == (0, 3):
            return dict(self._broken)
        return {self.network.shortest_path(source, target): 1.0}


@pytest.mark.parametrize("case", sorted(_BROKEN))
def test_broken_distributions_raise_what_routing_raises(cube3, case):
    distribution, error = _BROKEN[case]
    with pytest.raises(error):
        oracle_distributions(cube3, {(0, 3): distribution})
    with pytest.raises(ReproError) as direct:
        Routing(cube3, {(0, 3): distribution})
    with pytest.raises(ReproError) as materialized:
        _BrokenBuilder(cube3, distribution).routing(pairs=[(0, 1), (0, 3), (5, 6)])
    assert type(direct.value) is type(materialized.value) is error


def test_zero_probability_paths_are_dropped_unchecked(cube3):
    distribution = {(0, 1, 3): 1.0, (0, 99, 3): 0.0}
    expected = oracle_distributions(cube3, {(0, 3): distribution})[(0, 3)]
    direct = Routing(cube3, {(0, 3): distribution})
    routing = _BrokenBuilder(cube3, distribution).routing(pairs=[(0, 3)])
    assert routing.distribution(0, 3) == direct.distribution(0, 3) == expected == {(0, 1, 3): 1.0}


def test_nan_probability_is_rejected(cube3):
    distribution = {(0, 1, 3): float("nan")}
    with pytest.raises(RoutingError):
        oracle_distributions(cube3, {(0, 3): distribution})
    with pytest.raises(RoutingError):
        Routing(cube3, {(0, 3): distribution})
    with pytest.raises(RoutingError):
        _BrokenBuilder(cube3, distribution).routing(pairs=[(0, 3)])


_BUILDERS = {
    "spf": ShortestPathRouting,
    "ksp": lambda network: KShortestPathRouting(network, k=3),
    "racke": lambda network: RaeckeTreeRouting(network, rng=1),
    "valiant": lambda network: ValiantHypercubeRouting(network, 3, rng=1),
    "valiant-general": lambda network: ValiantGeneralRouting(network, rng=1),
    "electrical": ElectricalFlowRouting,
    "hop-constrained": lambda network: HopConstrainedRouting(network, hop_bound=3, rng=1),
}


@pytest.mark.parametrize("name", sorted(_BUILDERS))
def test_materialized_routing_equals_the_validated_one(cube3, name):
    builder = _BUILDERS[name](cube3)
    pairs = list(cube3.vertex_pairs(ordered=True))[::-3]
    routing = builder.routing(pairs + pairs[:4])
    reference = oracle_distributions(
        cube3, {pair: builder.pair_distribution(*pair) for pair in pairs}
    )
    assert routing.pairs() == list(reference) == pairs
    incidence = routing._incidence
    for pair in pairs:
        items = list(routing.distribution(*pair).items())
        assert items == list(reference[pair].items())
        start, stop = incidence.slices[pair]
        assert incidence.paths[start:stop] == tuple(path for path, _ in items)
        for row in range(start, stop):
            edges = incidence.edge_ids[incidence.indptr[row]:incidence.indptr[row + 1]]
            assert edges.tolist() == cube3.path_edge_ids(incidence.paths[row])


def test_materialize_span_counts_pairs_paths_and_entries(cube3):
    tracer = install_tracer(Tracer(sink=RecordingSink()))
    try:
        routing = RaeckeTreeRouting(cube3, rng=0).routing()
    finally:
        uninstall_tracer()
    (span,) = [r for r in span_records(tracer.records) if r["name"] == "source.materialize"]
    incidence = routing._incidence
    assert span["counters"] == {
        "pairs": 56, "paths": len(incidence.paths), "nnz": len(incidence.edge_ids),
    }
