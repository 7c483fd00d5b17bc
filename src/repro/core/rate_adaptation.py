"""Demand-adaptive rate optimization on a fixed candidate path system.

This is "Stage 4" of the semi-oblivious pipeline (Section 2.1): the
candidate paths are already installed; when the demand arrives, the
sending rates along the candidate paths are chosen to minimize the
maximum edge congestion, using all global information.  The rates are
the exact optimum of the path LP (Definition 5.1,
:func:`repro.mcf.path_lp.min_congestion_on_paths`).
"""

from __future__ import annotations

from repro.core.path_system import PathSystem
from repro.demands.demand import Demand
from repro.mcf.path_lp import PathLPResult, min_congestion_on_paths


def optimal_rates(system: PathSystem, demand: Demand) -> PathLPResult:
    """Choose sending rates over ``system`` minimizing congestion for ``demand``."""
    return min_congestion_on_paths(system, demand)


__all__ = ["optimal_rates"]
