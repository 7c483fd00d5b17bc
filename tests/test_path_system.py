"""Unit tests for PathSystem (Definition 2.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.path_system import PathSystem
from repro.exceptions import PathError
from repro.graphs import topologies
from repro.graphs.cuts import CutCache


def test_add_and_query_paths(cube3):
    system = PathSystem(cube3)
    assert system.add_path(0, 3, (0, 1, 3))
    assert not system.add_path(0, 3, (0, 1, 3))  # duplicate
    assert system.add_path(0, 3, (0, 2, 3))
    assert len(system.paths(0, 3)) == 2
    assert system.paths(3, 0) == []
    assert system.has_pair(0, 3)
    assert (0, 3) in system
    assert len(system) == 1
    assert system.num_paths() == 2


def test_invalid_paths_rejected(cube3):
    system = PathSystem(cube3)
    with pytest.raises(PathError):
        system.add_path(0, 0, (0,))
    with pytest.raises(PathError):
        system.add_path(0, 3, (0, 3))  # not adjacent
    with pytest.raises(PathError):
        system.add_path(0, 3, (0, 1, 2, 3))  # 1-2 not an edge in the cube


def test_constructor_mapping(cube3):
    system = PathSystem(cube3, {(0, 1): [(0, 1)], (0, 3): [(0, 1, 3), (0, 2, 3)]})
    assert system.sparsity() == 2


def test_sparsity_measures(cube3):
    system = PathSystem(cube3)
    system.add_paths(0, 7, [(0, 1, 3, 7), (0, 2, 6, 7), (0, 4, 5, 7)])
    system.add_path(0, 1, (0, 1))
    assert system.sparsity() == 3
    assert system.is_alpha_sparse(3)
    assert not system.is_alpha_sparse(2)
    cuts = CutCache(cube3)
    # cut(0,7) = 3, so 3 paths <= 0 + cut.
    assert system.is_alpha_plus_cut_sparse(0, cuts)


def test_empty_system_sparsity_zero(cube3):
    assert PathSystem(cube3).sparsity() == 0


def test_merge(cube3):
    a = PathSystem(cube3)
    a.add_path(0, 3, (0, 1, 3))
    b = PathSystem(cube3)
    b.add_path(0, 3, (0, 2, 3))
    b.add_path(1, 5, (1, 5))
    merged = a.merge(b)
    assert len(merged.paths(0, 3)) == 2
    assert merged.has_pair(1, 5)
    # Originals untouched.
    assert len(a.paths(0, 3)) == 1


def test_max_hops_and_restriction(cube3):
    system = PathSystem(cube3)
    system.add_path(0, 7, (0, 1, 3, 7))
    system.add_path(0, 1, (0, 1))
    assert system.max_hops() == 3
    restricted = system.restricted_to_pairs([(0, 1)])
    assert restricted.pairs() == [(0, 1)]


def test_covers(cube3):
    system = PathSystem(cube3)
    system.add_path(0, 1, (0, 1))
    assert system.covers([(0, 1)])
    assert not system.covers([(0, 1), (1, 2)])


@settings(max_examples=30, deadline=None)
@given(pairs=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=10))
def test_property_sparsity_counts_max_bucket(pairs):
    cube = topologies.hypercube(3)
    system = PathSystem(cube)
    added = {}
    for source, target in pairs:
        if source == target:
            continue
        path = cube.shortest_path(source, target)
        if system.add_path(source, target, path):
            added[(source, target)] = added.get((source, target), 0) + 1
    expected = max(added.values(), default=0)
    assert system.sparsity() == expected
