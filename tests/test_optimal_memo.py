"""The memoizing optimal-MCF solver under concurrent callers, failures and pickling."""

import pickle
import sys
import threading
import time

import pytest

from repro.demands.traffic_matrix import diurnal_gravity_series
from repro.engine import MemoizedOptimalSolver
from repro.engine import registry
from repro.exceptions import SolverError
from repro.graphs import topologies
from repro.mcf.lp import min_congestion_lp


@pytest.fixture
def torus3_demands():
    network = topologies.torus_2d(3)
    return network, list(diurnal_gravity_series(network, num_snapshots=2, rng=5))


def _call_together(solver, demand, threads):
    """Call ``solver(demand)`` from ``threads`` threads released at once; outcomes in order."""
    barrier = threading.Barrier(threads)
    outcomes = [None] * threads

    def call(index):
        barrier.wait()
        try:
            outcomes[index] = solver(demand)
        except Exception as error:  # noqa: BLE001 - the outcome under test
            outcomes[index] = error

    workers = [threading.Thread(target=call, args=(index,)) for index in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=30.0)
        assert not worker.is_alive()
    return outcomes


def test_concurrent_calls_for_one_demand_solve_once(monkeypatch, torus3_demands):
    network, (demand, _) = torus3_demands
    calls = []

    def slow_lp(net, dem):
        calls.append(dem)
        time.sleep(0.2)  # every other caller arrives while this solve is in flight
        return min_congestion_lp(net, dem)

    monkeypatch.setattr(registry, "min_congestion_lp", slow_lp)
    solver = MemoizedOptimalSolver(network)
    outcomes = _call_together(solver, demand, threads=8)
    assert len(calls) == 1 and solver.num_solves == 1
    expected = min_congestion_lp(network, demand).congestion
    assert all(type(value) is float and value == expected for value in outcomes), outcomes
    assert solver._pending == {}


def test_many_threads_over_many_demands_solve_each_demand_once(monkeypatch):
    """Stress: short switch interval, more threads than cores, a lost update would double-solve."""
    network = topologies.torus_2d(3)
    demands = list(diurnal_gravity_series(network, num_snapshots=6, rng=9))
    calls = []

    class _Result:
        def __init__(self, demand):
            self.congestion = float(demands.index(demand))

    def counting_lp(net, dem):
        calls.append(dem)
        time.sleep(0.001)
        return _Result(dem)

    monkeypatch.setattr(registry, "min_congestion_lp", counting_lp)
    solver = MemoizedOptimalSolver(network)
    answers = {}

    def ask_all(index):
        order = demands[index % len(demands):] + demands[: index % len(demands)]
        answers[index] = [solver(demand) for demand in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=ask_all, args=(index,)) for index in range(16)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30.0)
            assert not worker.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == len(demands) and solver.num_solves == len(demands)
    for index, values in answers.items():
        shift = index % len(demands)
        assert values == [float((shift + k) % len(demands)) for k in range(len(demands))]
    assert solver._pending == {}


def test_failed_solve_reraises_in_every_waiter_and_is_not_memoized(monkeypatch, torus3_demands):
    network, (demand, _) = torus3_demands
    calls = []

    def failing_once_lp(net, dem):
        calls.append(dem)
        if len(calls) == 1:
            time.sleep(0.2)
            raise SolverError("normalizer failed")
        return min_congestion_lp(net, dem)

    monkeypatch.setattr(registry, "min_congestion_lp", failing_once_lp)
    solver = MemoizedOptimalSolver(network)
    outcomes = _call_together(solver, demand, threads=4)
    assert len(calls) == 1
    assert all(isinstance(error, SolverError) for error in outcomes), outcomes
    assert solver._pending == {} and solver._cache == {}
    assert solver(demand) == min_congestion_lp(network, demand).congestion
    assert len(calls) == 2 and solver.num_solves == 2


def test_pickle_keeps_finished_optima_and_drops_in_flight_entries(monkeypatch, torus3_demands):
    network, (finished, in_flight) = torus3_demands
    entered, release = threading.Event(), threading.Event()

    def gated_lp(net, dem):
        entered.set()
        release.wait()
        return min_congestion_lp(net, dem)

    solver = MemoizedOptimalSolver(network)
    value = solver(finished)
    monkeypatch.setattr(registry, "min_congestion_lp", gated_lp)
    worker = threading.Thread(target=solver, args=(in_flight,))
    worker.start()
    try:
        assert entered.wait(10.0)
        assert set(solver._pending) == {in_flight}
        restored = pickle.loads(pickle.dumps(solver))
    finally:
        release.set()
        worker.join(timeout=30.0)
    assert not worker.is_alive()
    assert restored._cache == {finished: value}
    assert restored._pending == {} and restored.num_solves == 2
    monkeypatch.undo()
    assert restored(in_flight) == min_congestion_lp(network, in_flight).congestion
    assert restored.num_solves == 3


def test_prime_stores_a_finished_value(torus3_demands):
    network, (demand, _) = torus3_demands
    solver = MemoizedOptimalSolver(network)
    solver.prime(demand, 2)
    assert solver(demand) == 2.0 and solver.num_solves == 0
