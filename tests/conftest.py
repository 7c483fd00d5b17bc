"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.demands.generators import random_permutation_demand
from repro.graphs import topologies
from repro.oblivious.racke import RaeckeTreeRouting
from repro.oblivious.valiant import ValiantHypercubeRouting


@pytest.fixture(scope="session", autouse=True)
def no_leaked_shm_segments():
    """Fail the session if a sweep leaked shared-memory segments.

    Dead-owner debris (e.g. from the SIGKILL harness in
    ``test_sweep_resume``) is swept first — only segments whose owning
    process is still alive count as leaks, and only those owned by this
    session's process or its descendants: another session's sweeps on
    the same machine are not this one's leaks.
    """
    yield
    from repro.scenarios.shm import cleanup_stale_segments, owned_segments

    cleanup_stale_segments()
    leaked = owned_segments(os.getpid())
    assert not leaked, f"sweep executor leaked shared-memory segments: {leaked}"


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
