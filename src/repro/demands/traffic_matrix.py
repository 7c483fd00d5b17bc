"""Traffic-matrix time series for the traffic-engineering experiments.

The SMORE evaluation replays sequences of traffic matrices against a set
of pre-installed candidate paths, re-optimising only the sending rates at
each snapshot.  Real ISP matrices are proprietary, so we synthesise
series with the qualitative features that matter for the comparison:

* a gravity-model base matrix (heavy-tailed per-node volumes),
* smooth diurnal modulation of the total volume,
* per-snapshot multiplicative jitter,
* occasional "surge" events concentrating extra volume on a few pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from repro.demands.demand import Demand
from repro.demands.generators import gravity_demand
from repro.exceptions import DemandError
from repro.graphs.network import Network
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class TrafficMatrixSeries:
    """An ordered sequence of demand snapshots."""

    snapshots: List[Demand] = field(default_factory=list)
    period_minutes: float = 15.0

    def __len__(self) -> int:
        return len(self.snapshots)

    def __iter__(self) -> Iterator[Demand]:
        return iter(self.snapshots)

    def __getitem__(self, index: int) -> Demand:
        return self.snapshots[index]

    def total_volumes(self) -> List[float]:
        """Total demand volume of each snapshot."""
        return [snapshot.size() for snapshot in self.snapshots]

    def peak(self) -> Demand:
        """The snapshot with the largest total volume."""
        if not self.snapshots:
            raise DemandError("empty traffic matrix series")
        return max(self.snapshots, key=lambda snapshot: snapshot.size())


def diurnal_gravity_series(
    network: Network,
    num_snapshots: int = 24,
    base_total: float = 10.0,
    diurnal_amplitude: float = 0.5,
    jitter: float = 0.1,
    surge_probability: float = 0.1,
    surge_factor: float = 3.0,
    rng: RngLike = None,
    weights: Optional[dict] = None,
) -> TrafficMatrixSeries:
    """Generate a diurnal gravity-model traffic-matrix series.

    Parameters
    ----------
    network:
        The topology whose vertices exchange traffic.
    num_snapshots:
        Number of snapshots (e.g. 96 for a day at 15-minute granularity).
    base_total:
        Mean total volume per snapshot.
    diurnal_amplitude:
        Relative amplitude of the sinusoidal day/night modulation.
    jitter:
        Relative standard deviation of per-pair multiplicative noise.
    surge_probability / surge_factor:
        Probability per snapshot of a surge event that multiplies a few
        random pairs by ``surge_factor``.
    """
    if num_snapshots < 1:
        raise DemandError("need at least one snapshot")
    if not (0 <= diurnal_amplitude < 1):
        raise DemandError("diurnal amplitude must be in [0, 1)")
    generator = ensure_rng(rng)
    base = gravity_demand(network, total=base_total, rng=generator, weights=weights)
    snapshots: List[Demand] = []
    pairs = base.pairs()
    for step in range(num_snapshots):
        phase = 2.0 * math.pi * step / max(num_snapshots, 1)
        scale = 1.0 + diurnal_amplitude * math.sin(phase)
        values = {}
        for pair in pairs:
            noise = max(0.0, 1.0 + jitter * float(generator.normal()))
            values[pair] = base.value(*pair) * scale * noise
        if pairs and generator.random() < surge_probability:
            surge_count = max(1, len(pairs) // 20)
            surge_indices = generator.choice(len(pairs), size=surge_count, replace=False)
            for index in surge_indices:
                pair = pairs[int(index)]
                values[pair] = values.get(pair, 0.0) * surge_factor
        snapshots.append(Demand(values, network=network))
    return TrafficMatrixSeries(snapshots=snapshots)


def constant_series(demand: Demand, num_snapshots: int) -> TrafficMatrixSeries:
    """A series repeating the same demand (useful for calibration tests)."""
    if num_snapshots < 1:
        raise DemandError("need at least one snapshot")
    return TrafficMatrixSeries(snapshots=[demand] * num_snapshots)


def permutation_series(
    network: Network,
    num_snapshots: int,
    rng: RngLike = None,
) -> TrafficMatrixSeries:
    """Independent uniformly random permutation demands, one per snapshot.

    The scenario-grid workload for the paper's worst-case demand class:
    the candidate paths are installed once, while the permutation changes
    every snapshot.  Deterministic given ``rng``.
    """
    if num_snapshots < 1:
        raise DemandError("need at least one snapshot")
    from repro.demands.generators import random_permutation_demand

    generator = ensure_rng(rng)
    snapshots = [random_permutation_demand(network, rng=generator) for _ in range(num_snapshots)]
    return TrafficMatrixSeries(snapshots=snapshots)


def gravity_series(
    network: Network,
    num_snapshots: int,
    total: float = 10.0,
    rng: RngLike = None,
) -> TrafficMatrixSeries:
    """Independent gravity-model draws (fresh vertex weights per snapshot).

    Unlike :func:`diurnal_gravity_series` — which perturbs one base
    matrix — every snapshot here resamples the heavy-tailed per-vertex
    weights, modelling day-scale rather than minute-scale drift.
    """
    if num_snapshots < 1:
        raise DemandError("need at least one snapshot")
    generator = ensure_rng(rng)
    snapshots = [
        gravity_demand(network, total=total, rng=generator) for _ in range(num_snapshots)
    ]
    return TrafficMatrixSeries(snapshots=snapshots)


__all__ = [
    "TrafficMatrixSeries",
    "diurnal_gravity_series",
    "constant_series",
    "permutation_series",
    "gravity_series",
]
