"""Multicommodity-flow solvers.

The paper compares semi-oblivious routings against the offline optimum
``opt_{G,R}(d)``: the minimum achievable maximum edge congestion over all
fractional routings of the demand.  This package provides:

* :func:`~repro.mcf.lp.min_congestion_lp` — the exact edge-flow LP
  with one arc flow per demanded *source*, so ``k_src * 2m + 1``
  columns; it returns the optimum value and, on request, an optimal
  routing peeled per sink from each source's flow,
* :func:`~repro.mcf.path_lp.min_congestion_on_paths` — the path-based LP
  restricted to a candidate path system (this computes ``cong_R(P, d)``,
  the Stage-4 adaptive rate optimization), cached per system and, on the
  installed semi-oblivious router's system, re-solved from a fixed
  reference basis,
* :mod:`~repro.mcf.highs` — the one HiGHS driver both LPs go through
  (scipy >= 1.15's bundled binding); ``scipy.optimize.linprog`` survives
  only as the tests' oracle and in perfbench's reference work,
* :func:`~repro.mcf.integral.exact_integral_optimum` — brute-force
  integral optimum for tiny instances (used by lower-bound tests).
"""

from repro.mcf.lp import min_congestion_lp, MinCongestionResult
from repro.mcf.path_lp import min_congestion_on_paths, PathLPResult
from repro.mcf.integral import exact_integral_optimum

__all__ = [
    "min_congestion_lp",
    "MinCongestionResult",
    "min_congestion_on_paths",
    "PathLPResult",
    "exact_integral_optimum",
]
