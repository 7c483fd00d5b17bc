"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.demands.generators import random_permutation_demand
from repro.graphs import topologies
from repro.oblivious.racke import RaeckeTreeRouting
from repro.oblivious.valiant import ValiantHypercubeRouting


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def cube3():
    """A 3-dimensional hypercube (8 vertices, 12 edges)."""
    return topologies.hypercube(3)


@pytest.fixture
def cube4():
    """A 4-dimensional hypercube (16 vertices, 32 edges)."""
    return topologies.hypercube(4)


@pytest.fixture
def small_expander():
    """A small 4-regular expander."""
    return topologies.random_regular_expander(12, degree=4, rng=7)


@pytest.fixture
def torus3():
    return topologies.torus_2d(3)


@pytest.fixture
def cycle5():
    return topologies.cycle_graph(5)


@pytest.fixture
def path4():
    return topologies.path_graph(4)


@pytest.fixture
def valiant3(cube3):
    return ValiantHypercubeRouting(cube3, 3, rng=3)


@pytest.fixture
def racke_cube3(cube3):
    return RaeckeTreeRouting(cube3, rng=5)


@pytest.fixture
def permutation_demand_cube3(cube3):
    return random_permutation_demand(cube3, rng=11)
