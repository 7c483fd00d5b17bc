"""Oblivious routing constructions used as sampling sources.

The paper's construction samples candidate paths from *any* competitive
oblivious routing (Theorem 5.3 is stated relative to the chosen routing
R).  This package provides:

* :class:`~repro.oblivious.base.ObliviousRoutingBuilder` — the interface,
* Valiant–Brebner routing on hypercubes (``valiant``),
* deterministic shortest-path and k-shortest-path routings
  (``shortest_path``) — the weak baselines,
* electrical-flow routing (``electrical``),
* the practical Räcke construction: multiplicative-weights iteration over
  congestion-aware trees (``racke``),
* hop-constrained oblivious routing (``hop_constrained``), the GHZ21
  stand-in used by the Section 7 completion-time results.
"""

from repro.oblivious.base import ObliviousRoutingBuilder
from repro.oblivious.shortest_path import ShortestPathRouting, KShortestPathRouting
from repro.oblivious.valiant import ValiantHypercubeRouting
from repro.oblivious.valiant_general import ValiantGeneralRouting
from repro.oblivious.electrical import ElectricalFlowRouting
from repro.oblivious.racke import RaeckeTreeRouting
from repro.oblivious.hop_constrained import HopConstrainedRouting

__all__ = [
    "ObliviousRoutingBuilder",
    "ShortestPathRouting",
    "KShortestPathRouting",
    "ValiantHypercubeRouting",
    "ValiantGeneralRouting",
    "ElectricalFlowRouting",
    "RaeckeTreeRouting",
    "HopConstrainedRouting",
]
