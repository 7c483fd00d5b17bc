"""Unit tests for traffic-matrix series."""

import pytest

from repro.demands.demand import Demand
from repro.demands.traffic_matrix import TrafficMatrixSeries, constant_series, diurnal_gravity_series
from repro.exceptions import DemandError
from repro.graphs import topologies


def test_diurnal_series_shape(cube3):
    series = diurnal_gravity_series(cube3, num_snapshots=6, base_total=5.0, rng=0)
    assert len(series) == 6
    for snapshot in series:
        assert isinstance(snapshot, Demand)
        assert snapshot.size() > 0
    volumes = series.total_volumes()
    assert len(volumes) == 6
    assert series.peak().size() == pytest.approx(max(volumes))


def test_diurnal_series_reproducible(cube3):
    a = diurnal_gravity_series(cube3, num_snapshots=3, rng=9)
    b = diurnal_gravity_series(cube3, num_snapshots=3, rng=9)
    for x, y in zip(a, b):
        assert x == y


def test_diurnal_series_validation(cube3):
    with pytest.raises(DemandError):
        diurnal_gravity_series(cube3, num_snapshots=0)
    with pytest.raises(DemandError):
        diurnal_gravity_series(cube3, diurnal_amplitude=1.5)


def test_diurnal_modulation_changes_volumes(cube3):
    series = diurnal_gravity_series(
        cube3, num_snapshots=8, diurnal_amplitude=0.8, jitter=0.0, surge_probability=0.0, rng=1
    )
    volumes = series.total_volumes()
    assert max(volumes) > 1.5 * min(volumes)


def test_constant_series():
    demand = Demand({(0, 1): 1.0})
    series = constant_series(demand, 4)
    assert len(series) == 4
    assert all(snapshot == demand for snapshot in series)
    with pytest.raises(DemandError):
        constant_series(demand, 0)


def test_empty_series_peak_raises():
    with pytest.raises(DemandError):
        TrafficMatrixSeries(snapshots=[]).peak()


def test_indexing(cube3):
    series = diurnal_gravity_series(cube3, num_snapshots=3, rng=0)
    assert series[0].size() > 0
    assert series[2] is series.snapshots[2]
