"""Bad-pattern counting (Definition 5.11 and Lemma 5.13).

A *bad pattern* is an m-tuple of nonnegative integers ``(b_1, ..., b_m)``
with ``D/4 <= sum_k gamma * b_k <= D``.  Lemma 5.13 bounds their number
by ``m^{6 D / alpha}`` (after the proof's accounting the exponent is
``4 D / alpha``; the statement keeps the looser 6).  This module provides
the analytic bound and an exact count for tiny parameters, which the test
suite compares against each other.
"""

from __future__ import annotations

import math


def bad_pattern_count_bound(num_edges: int, demand_size: float, gamma: float, alpha: int) -> float:
    """The Lemma 5.13 style upper bound ``(m + 2m^3)^{D / gamma} <= m^{4 D / alpha}``.

    We return the intermediate quantity ``(m + 2 m^3) ** floor(D / gamma)``
    (as a float; it can be astronomically large, in which case ``inf`` is
    returned) together with the cleaner exponent form accessible through
    :func:`bad_pattern_exponent_bound`.
    """
    if num_edges < 1 or gamma <= 0 or alpha < 1:
        raise ValueError("need m >= 1, gamma > 0, alpha >= 1")
    slots = int(math.floor(demand_size / gamma))
    if slots <= 0:
        return 1.0
    base = num_edges + 2 * num_edges**3
    try:
        return float(base**slots)
    except OverflowError:
        return float("inf")


def bad_pattern_exponent_bound(num_edges: int, demand_size: float, alpha: int) -> float:
    """log_m of the Lemma 5.13 bound: ``4 D / alpha`` (using m^4 >= m + 2m^3)."""
    if num_edges < 2 or alpha < 1:
        raise ValueError("need m >= 2 and alpha >= 1")
    return 4.0 * demand_size / alpha


def count_bad_patterns_exact(num_edges: int, demand_size: int, gamma: int) -> int:
    """Exact number of bad patterns for integer parameters.

    Counts m-tuples of nonnegative integers ``b`` with
    ``D/4 <= gamma * sum(b) <= D``, i.e. ``ceil(D / (4 gamma)) <= sum(b)
    <= floor(D / gamma)``.  Intended for tiny parameters in tests.
    """
    if num_edges < 1 or gamma <= 0:
        raise ValueError("need m >= 1 and gamma > 0")
    low = math.ceil(demand_size / (4 * gamma))
    high = math.floor(demand_size / gamma)
    if high < low:
        return 0
    def compositions_equal(total: int) -> int:
        return math.comb(total + num_edges - 1, num_edges - 1)
    return sum(compositions_equal(total) for total in range(low, high + 1))


__all__ = [
    "bad_pattern_count_bound",
    "bad_pattern_exponent_bound",
    "count_bad_patterns_exact",
]
