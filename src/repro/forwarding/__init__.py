"""ECMP-realizable forwarding: quantization, flow hashing, analytics.

The fractional routings produced by every scheme in the repository are
idealizations; switches forward discrete flows over hash buckets with
split ratios quantized to ``1/k``.  This package measures what that
costs:

* :mod:`repro.forwarding.quantize` — path distributions to per-node
  next-hop bucket tables (with the documented path-mode fallback for
  cyclic and non-confluent pairs);
* :mod:`repro.forwarding.realize` — seeded flow placement and the
  compiled-operator evaluation of realized edge loads;
* :mod:`repro.forwarding.analytic` — exact memoized non-congestion
  probabilities for random flow placement, Monte Carlo beyond;
* :mod:`repro.forwarding.router` — the ``realized(scheme, buckets=8)``
  engine wrapper;
* :mod:`repro.forwarding.scenario_axes` — the ``ecmp-gap`` suite
  (loaded lazily by the scenario spec layer);
* :mod:`repro.forwarding.bench` — the ``ecmp`` target of the
  :mod:`repro.bench` harness.
"""

from repro.forwarding.analytic import (
    analyze_placement,
    congestion_probability,
    monte_carlo_non_congestion,
    non_congestion_probability,
)
from repro.forwarding.quantize import (
    ForwardingTable,
    PairForwarding,
    forwarding_churn,
    quantize_pair,
    quantize_routing,
)
from repro.forwarding.realize import (
    RealizationResult,
    evaluate_realization,
    realize_flows,
)
from repro.forwarding.router import RealizedRouter

__all__ = [
    "ForwardingTable",
    "PairForwarding",
    "RealizationResult",
    "RealizedRouter",
    "analyze_placement",
    "congestion_probability",
    "evaluate_realization",
    "forwarding_churn",
    "monte_carlo_non_congestion",
    "non_congestion_probability",
    "quantize_pair",
    "quantize_routing",
    "realize_flows",
]
