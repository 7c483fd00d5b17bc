"""Unit tests for PathSystem (Definition 2.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import oracle_incidence, routing_inputs

from repro.core.path_system import PathSystem
from repro.exceptions import PathError, ReproError, RoutingError
from repro.graphs import topologies
from repro.graphs.cuts import CutCache


def test_add_and_query_paths(cube3):
    # A pair's repeated path is kept once, at its first occurrence.
    system = PathSystem(cube3, {(0, 3): [(0, 1, 3), (0, 1, 3), [0, 2, 3], (0, 1, 3)]})
    assert system.paths(0, 3) == [(0, 1, 3), (0, 2, 3)]
    assert len(system.paths(0, 3)) == 2
    assert system.paths(3, 0) == []
    assert system.has_pair(0, 3)
    assert (0, 3) in system
    assert len(system) == 1
    assert system.num_paths() == 2


def test_invalid_paths_rejected(cube3):
    # A pair from a vertex to itself fails the audit's pair check, as for a routing.
    with pytest.raises(RoutingError):
        PathSystem(cube3, {(0, 0): [(0,)]})
    with pytest.raises(PathError):
        PathSystem(cube3, {(0, 3): [(0, 3)]})  # not adjacent
    with pytest.raises(PathError):
        PathSystem(cube3, {(0, 3): [(0, 1, 2, 3)]})  # 1-2 not an edge in the cube


def test_constructor_mapping(cube3):
    system = PathSystem(cube3, {(0, 1): [(0, 1)], (0, 3): [(0, 1, 3), (0, 2, 3)]})
    assert system.sparsity() == 2


def test_sparsity_measures(cube3):
    system = PathSystem(cube3, {
        (0, 7): [(0, 1, 3, 7), (0, 2, 6, 7), (0, 4, 5, 7)],
        (0, 1): [(0, 1)],
    })
    assert system.sparsity() == 3
    assert system.is_alpha_sparse(3)
    assert not system.is_alpha_sparse(2)
    cuts = CutCache(cube3)
    # cut(0,7) = 3, so 3 paths <= 0 + cut.
    assert system.is_alpha_plus_cut_sparse(0, cuts)


def test_empty_system_sparsity_zero(cube3):
    assert PathSystem(cube3).sparsity() == 0


def test_merge(cube3):
    a = PathSystem(cube3, {(0, 3): [(0, 1, 3)]})
    b = PathSystem(cube3, {(0, 3): [(0, 2, 3)], (1, 5): [(1, 5)]})
    merged = a.merge(b)
    assert len(merged.paths(0, 3)) == 2
    assert merged.has_pair(1, 5)
    # Originals untouched.
    assert len(a.paths(0, 3)) == 1


def test_max_hops_and_restriction(cube3):
    system = PathSystem(cube3, {(0, 7): [(0, 1, 3, 7)], (0, 1): [(0, 1)]})
    assert system.max_hops() == 3
    restricted = system.restricted_to_pairs([(0, 1)])
    assert restricted.pairs() == [(0, 1)]


def test_covers(cube3):
    system = PathSystem(cube3, {(0, 1): [(0, 1)]})
    assert system.covers([(0, 1)])
    assert not system.covers([(0, 1), (1, 2)])


@settings(max_examples=30, deadline=None)
@given(pairs=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=10))
def test_property_sparsity_counts_max_bucket(pairs):
    cube = topologies.hypercube(3)
    buckets = {}
    for source, target in pairs:
        if source == target:
            continue
        buckets.setdefault((source, target), []).append(cube.shortest_path(source, target))
    system = PathSystem(cube, buckets)
    expected = max((len(set(paths)) for paths in buckets.values()), default=0)
    assert system.sparsity() == expected


def oracle_buckets(network, buckets):
    """The paths a system over ``buckets`` holds, checked path by path.

    The reference for the constructor: a pair with no path is left out, a
    pair from a vertex to itself raises :class:`RoutingError`, every other
    path passes ``Network.validate_path`` and is kept once, first
    occurrence first.
    """
    checked = {}
    for (source, target), paths in buckets.items():
        if not paths:
            continue
        if source == target:
            raise RoutingError("routings do not cover pairs with identical endpoints")
        canonical = [network.validate_path(path, source=source, target=target) for path in paths]
        checked[(source, target)] = list(dict.fromkeys(canonical))
    return checked


@settings(max_examples=200, deadline=None)
@given(case=routing_inputs(), rnd=st.randoms(use_true_random=False))
def test_constructor_agrees_with_the_per_path_oracle(case, rnd):
    network, distributions, fault = case
    buckets = {}
    for pair, distribution in distributions.items():
        bucket = [path for path, probability in distribution.items() if probability > 0]
        # Repeats of a path, some as lists, at random places.
        for path in rnd.sample(bucket, rnd.randint(0, len(bucket))):
            bucket.insert(rnd.randint(0, len(bucket)), list(path) if rnd.random() < 0.5 else path)
        buckets[pair] = bucket
    vertices = network.vertices
    for _ in range(rnd.randint(0, 2)):
        buckets.setdefault((rnd.choice(vertices), rnd.choice(vertices)), [])
    try:
        expected = oracle_buckets(network, buckets)
    except ReproError as error:
        assert fault is not None
        with pytest.raises(ReproError) as raised:
            PathSystem(network, buckets)
        assert type(raised.value) is type(error)
        return
    system = PathSystem(network, buckets)
    assert list(system.items()) == list(expected.items())
    assert system.pairs() == list(expected)
    reference = oracle_incidence(network, expected.items())
    incidence = system.incidence()
    assert incidence.paths == reference.paths
    assert incidence.slices == reference.slices
    for name in ("indptr", "edge_ids"):
        built, walked = getattr(incidence, name), getattr(reference, name)
        assert built.dtype == walked.dtype and built.tobytes() == walked.tobytes()
