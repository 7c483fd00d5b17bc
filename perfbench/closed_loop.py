"""Closed-loop pipeline workloads: seeded inputs, set-up, the timed loop and its checks.

Every input derives through ``numpy.random.SeedSequence`` from two
integers: the manifest's instance seed (topology, pair set, gravity
weights, the engine's sampling randomness) and the run seed (demand
series, warm-up demand); the engine only ever sees the generated
inputs.  The loop is closed with one demand in flight: the next demand
is generated (untimed) and sent only after ``engine.route`` returns.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import RoutingEngine
from repro.demands.demand import Demand
from repro.demands.traffic_matrix import diurnal_gravity_series
from repro.engine.adapters import FixedRatioRouter
from repro.exceptions import ReproError
from repro.graphs import topologies
from repro.graphs.network import Network
from repro.synth import isp

MANIFEST_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "manifest.json")

#: Every normalized result must satisfy ``ratio >= 1 - RATIO_TOL``.
RATIO_TOL = 1e-7
#: Relative tolerance for two evaluations of the same routing and demand.
MATCH_TOL = 1e-9


def load_manifest() -> dict:
    with open(MANIFEST_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def workload_spec(name: str, smoke: bool = False) -> dict:
    """The manifest entry of ``name``; ``smoke`` applies its small-size overrides."""
    spec = dict(load_manifest()["workloads"][name])
    if smoke:
        spec.update(spec["smoke"])
    return spec


def matches(value: float, reference: float) -> bool:
    return abs(value - reference) <= MATCH_TOL * max(1.0, abs(reference))


# --------------------------------------------------------------------- #
# Seeded inputs
# --------------------------------------------------------------------- #
def _child(seq: np.random.SeedSequence, index: int) -> np.random.SeedSequence:
    """The ``index``-th child of ``seq`` without mutating ``seq``."""
    return np.random.SeedSequence(seq.entropy, spawn_key=tuple(seq.spawn_key) + (index,))


def _topology(spec: dict, seq: np.random.SeedSequence) -> Network:
    kind = spec["kind"]
    if kind == "torus":
        return topologies.torus_2d(spec["size"])
    if kind == "isp":
        return isp(pops=spec["pops"], rng=np.random.default_rng(seq))
    raise ValueError(f"unknown topology kind {kind!r}")


def _pairs(network: Network, spec: dict, seq: np.random.SeedSequence):
    """Ordered demanded pairs plus their (source, target) vertex indices."""
    vertices = network.vertices
    n = len(vertices)
    if spec["kind"] == "all":
        index = [(s, t) for s in range(n) for t in range(n) if s != t]
    elif spec["kind"] == "sources-x-targets":
        rng = np.random.default_rng(seq)
        index = []
        for s in rng.choice(n, size=max(1, n // spec["source_divisor"]), replace=False):
            others = np.delete(np.arange(n), s)
            targets = rng.choice(others, size=min(spec["targets"], n - 1), replace=False)
            index.extend((int(s), int(t)) for t in targets)
    else:
        raise ValueError(f"unknown pair-set kind {spec['kind']!r}")
    pairs = [(vertices[s], vertices[t]) for s, t in index]
    return pairs, np.array(index, dtype=np.int64).reshape(-1, 2)


def _diurnal_stream(network: Network, block: int, weights, seq) -> Iterator[Demand]:
    """Endless diurnal gravity series over all pairs, one seeded day per block."""
    day = 0
    while True:
        series = diurnal_gravity_series(
            network,
            num_snapshots=block,
            rng=np.random.default_rng(_child(seq, day)),
            weights=weights,
        )
        yield from series
        day += 1


def _pair_gravity_stream(network: Network, pairs, index: np.ndarray, seq) -> Iterator[Demand]:
    """Endless gravity-style demands over a fixed pair set.

    Each demand draws fresh log-normal source and target weights plus
    per-pair log-normal noise, so consecutive demands are distinct.
    """
    rng = np.random.default_rng(seq)
    n = network.num_vertices
    while True:
        weights = rng.lognormal(size=n)
        noise = rng.lognormal(sigma=0.25, size=len(pairs))
        values = weights[index[:, 0]] * weights[index[:, 1]] * noise
        yield Demand(dict(zip(pairs, values.tolist())), network=network)


@dataclass
class Inputs:
    """Everything one workload run feeds the engine.

    The instance (topology, pair set, gravity base weights and the
    engine's path sampling) derives from the manifest's
    ``instance_seed``, so every seed measures the same network with the
    same installed paths; the run seed drives the traffic: the demand
    series and the warm-up demand.
    """

    spec: dict
    network: Network
    pairs: list
    pair_index: np.ndarray
    weights: Dict
    demand_seq: np.random.SeedSequence
    warmup_seq: np.random.SeedSequence
    engine_seq: np.random.SeedSequence

    def engine_rng(self) -> np.random.Generator:
        """A fresh generator; every call yields the same stream."""
        return np.random.default_rng(self.engine_seq)

    def _stream(self, seq) -> Iterator[Demand]:
        demands = self.spec["demands"]
        if demands["kind"] == "diurnal-gravity":
            return _diurnal_stream(self.network, demands["block"], self.weights, seq)
        if demands["kind"] == "pair-gravity":
            return _pair_gravity_stream(self.network, self.pairs, self.pair_index, seq)
        raise ValueError(f"unknown demand kind {demands['kind']!r}")

    def demands(self) -> Iterator[Demand]:
        """The timed demand series; every call restarts it from the seed."""
        return self._stream(self.demand_seq)

    def warmup(self) -> Demand:
        """The warm-up demand, drawn from its own stream (never timed)."""
        return next(self._stream(self.warmup_seq))


def make_inputs(spec: dict, seed: int, instance_seed: int) -> Inputs:
    # Per-seed path sampling moved the path-LP time ~10% between seeds on
    # adapt-isp, more than the traffic did, so it belongs to the instance.
    topo_seq, pair_seq, weight_seq, engine_seq = np.random.SeedSequence(instance_seed).spawn(4)
    demand_seq, warmup_seq = np.random.SeedSequence(seed).spawn(2)
    network = _topology(spec["topology"], topo_seq)
    pairs, pair_index = _pairs(network, spec["pairs"], pair_seq)
    raw = np.random.default_rng(weight_seq).lognormal(size=network.num_vertices)
    weights = dict(zip(network.vertices, raw.tolist()))
    return Inputs(spec, network, pairs, pair_index, weights, demand_seq, warmup_seq, engine_seq)


# --------------------------------------------------------------------- #
# Set-up and the timed loop
# --------------------------------------------------------------------- #
def set_up(inputs: Inputs) -> Tuple[RoutingEngine, float]:
    """Build, install and warm one engine; returns it with the elapsed seconds."""
    warmup = inputs.warmup()
    start = time.perf_counter()
    engine = RoutingEngine(inputs.network, inputs.spec["schemes"], rng=inputs.engine_rng())
    engine.install(inputs.pairs)
    # The optimal-MCF LP keeps no lazy state, so the warm-up skips it.
    engine.route(warmup, with_optimal=False)
    return engine, time.perf_counter() - start


class ReferenceWork:
    """A fixed unit of work, timed right after every route so host speed cancels out.

    On a shared host the CPU runs, for seconds at a time, up to ~1.7x
    slower, and not by the same factor for every kind of code.  A route's
    latency divided by the time of this unit just after it keeps the
    program's cost and drops most of the host's phase.  The unit mixes
    what routes do (a HiGHS LP, a Python dict loop, sparse matrix-vector
    products) and uses numpy and scipy only, so no change to the program
    moves it.
    """

    def __init__(self) -> None:
        from scipy import sparse

        rng = np.random.default_rng(12345)
        sources, sinks = 12, 14
        supply = rng.random(sources) + 1.0
        self._lp = dict(
            c=rng.random(sources * sinks),
            A_ub=sparse.kron(sparse.eye(sources), np.ones((1, sinks)), format="csr"),
            b_ub=supply,
            A_eq=sparse.kron(np.ones((1, sources)), sparse.eye(sinks), format="csr"),
            b_eq=np.full(sinks, supply.sum() / sinks),
            method="highs",
        )
        self._matrix = sparse.random(6000, 4000, density=0.004, random_state=7, format="csr")
        self._vector = rng.random(4000)
        self._keys = [(i, i * 7 % 101) for i in range(3000)]
        for _ in range(3):  # warm scipy's lazy imports and the caches
            self()

    def __call__(self) -> float:
        """Seconds one unit takes now."""
        from scipy.optimize import linprog

        start = time.perf_counter()
        if not linprog(**self._lp).success:
            raise RuntimeError("the reference LP failed")
        table = {key: float(index) for index, key in enumerate(self._keys)}
        total = 0.0
        for key, value in table.items():
            total += value * key[1]
        vector = self._matrix @ self._vector
        for _ in range(4):
            vector = self._matrix @ (self._matrix.T @ vector)
            vector /= vector.max()
        return time.perf_counter() - start


@dataclass
class LoopResult:
    """What the timed closed loop observed.

    ``rows`` holds one entry per attempted demand: ``None`` when the
    route raised, else ``label -> congestion`` (plus ``"optimal"`` when
    the workload normalizes).  ``reference`` holds, per routed demand,
    the seconds the :class:`ReferenceWork` took right after it.
    """

    latencies: List[float] = field(default_factory=list)
    reference: List[float] = field(default_factory=list)
    rows: List[Optional[Dict[str, float]]] = field(default_factory=list)
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    optimal_solves: int = 0

    @property
    def attempted(self) -> int:
        return len(self.rows)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)


def closed_loop(
    engine: RoutingEngine, inputs: Inputs, seconds: float, reference: ReferenceWork
) -> LoopResult:
    """Route demands one at a time until ``seconds`` and ``min_demands`` are both reached."""
    spec = inputs.spec
    with_optimal = spec["with_optimal"]
    loop = LoopResult()
    solves_before = engine.num_optimal_solves
    demands = inputs.demands()
    start = time.perf_counter()
    while loop.attempted < spec["min_demands"] or time.perf_counter() - start < seconds:
        demand = next(demands)
        began = time.perf_counter()
        try:
            results = engine.route(demand, with_optimal=with_optimal)
        except ReproError as error:
            loop.rows.append(None)
            loop.fail(f"demand {loop.attempted - 1}: {type(error).__name__}: {error}")
            continue
        loop.latencies.append(time.perf_counter() - began)
        loop.reference.append(reference())
        row = {label: result.congestion for label, result in results.items()}
        if with_optimal:
            first = next(iter(results.values()))
            row["optimal"] = first.optimal_congestion
            bad = [label for label, r in results.items() if not r.ratio >= 1.0 - RATIO_TOL]
            if bad:
                loop.fail(f"demand {len(loop.rows)}: ratio below 1 - {RATIO_TOL} for {bad}")
        loop.rows.append(row)
    loop.optimal_solves = engine.num_optimal_solves - solves_before
    return loop


def cross_check_fixed(engine: RoutingEngine, inputs: Inputs, loop: LoopResult) -> None:
    """Compiled evaluation of the first timed demand must match the dict oracle."""
    row = loop.rows[0] if loop.rows else None
    if row is None:
        return
    demand = next(inputs.demands())
    for label, router in engine.routers.items():
        if isinstance(router, FixedRatioRouter):
            oracle = router.routing.evaluator("dict").congestion(demand)
            if not matches(row[label], oracle):
                loop.fail(f"{label}: compiled congestion {row[label]!r} != dict {oracle!r}")


def digest(loop: LoopResult, count: int) -> str:
    """sha256 over the congestions of the first ``count`` demands."""
    hasher = hashlib.sha256()
    for row in loop.rows[:count]:
        text = "fail" if row is None else ",".join(f"{k}={v:.12e}" for k, v in sorted(row.items()))
        hasher.update(text.encode() + b"\n")
    return hasher.hexdigest()[:16]
