"""Analytic non-congestion probabilities for random flow placement.

The TEController-style question: placing ``flows`` equal flows uniformly
and independently into ``bins`` ECMP buckets, what is the probability
that no bucket receives more than ``limit`` flows?  For small instances
the exact answer comes from a memoized recursion — condition on the
number ``t`` of flows landing in the last bin:

    S(m, n, k) = sum_{t=0..k} C(n, t) (1/m)^t ((m-1)/m)^(n-t) S(m-1, n-t, k)

with ``S(m, n, k) = 1`` when ``n <= k`` and ``0`` when ``m * k < n``
(conditioned on avoiding the last bin's overflow, the remaining ``n-t``
flows are uniform over the other ``m-1`` bins, so the recursion is
exact).  Beyond a state-count threshold the module falls back to seeded
Monte Carlo with a Wilson confidence interval, and ``method="auto"``
picks between them.  No sampling is ever used for small m/n/k.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from repro.exceptions import ForwardingError
from repro.obs import trace_span

#: Exact-recursion memo, shared process-wide: (bins, flows, limit) -> prob.
_EXACT_CACHE: Dict[Tuple[int, int, int], float] = {}

#: ``method="auto"`` solves exactly up to this many (m, n) states.
_DEFAULT_MAX_STATES = 250_000

#: Largest ``n`` for which ``math.comb(n, t)`` is guaranteed to fit in a
#: float (``C(1030, 515) > 1.8e308`` overflows); beyond it the recursion
#: accumulates each term in log space via ``lgamma``.
_COMB_DIRECT_MAX = 1000

_METHOD_CHOICES = ("auto", "exact", "monte-carlo")


def _validate(bins: int, flows: int, limit: int) -> Tuple[int, int, int]:
    bins, flows, limit = int(bins), int(flows), int(limit)
    if bins < 1:
        raise ForwardingError(f"bins must be a positive integer, got {bins!r}")
    if flows < 0:
        raise ForwardingError(f"flows must be nonnegative, got {flows!r}")
    if limit < 0:
        raise ForwardingError(f"limit must be nonnegative, got {limit!r}")
    return bins, flows, limit


def non_congestion_probability(bins: int, flows: int, limit: int) -> float:
    """Exact P(no bin exceeds ``limit``) under uniform placement."""
    bins, flows, limit = _validate(bins, flows, limit)
    return _exact(bins, flows, limit)


def _exact(bins: int, flows: int, limit: int) -> float:
    if flows <= limit:
        return 1.0
    if bins * limit < flows:
        return 0.0
    key = (bins, flows, limit)
    cached = _EXACT_CACHE.get(key)
    if cached is not None:
        return cached
    # Iterative bottom-up over bin counts so deep recursions (hundreds
    # of bins) never hit Python's recursion limit.
    for m in range(1, bins + 1):
        for n in range(flows + 1):
            if n <= limit or m * limit < n:
                continue
            if (m, n, limit) in _EXACT_CACHE:
                continue
            if m == 1:
                # n > limit in one bin: certain overflow.
                _EXACT_CACHE[(m, n, limit)] = 0.0
                continue
            total = 0.0
            p = 1.0 / m
            for t in range(min(limit, n) + 1):
                rest = n - t
                if rest <= limit:
                    tail = 1.0
                elif (m - 1) * limit < rest:
                    tail = 0.0
                else:
                    tail = _EXACT_CACHE[(m - 1, rest, limit)]
                if tail == 0.0:
                    continue
                if n <= _COMB_DIRECT_MAX:
                    term = math.comb(n, t) * (p**t) * ((1.0 - p) ** rest)
                else:
                    # C(n, t) no longer fits in a float; the log-space
                    # product never overflows and underflows gracefully.
                    term = math.exp(
                        math.lgamma(n + 1)
                        - math.lgamma(t + 1)
                        - math.lgamma(rest + 1)
                        + t * math.log(p)
                        + rest * math.log1p(-p)
                    )
                total += term * tail
            _EXACT_CACHE[(m, n, limit)] = total
    return _EXACT_CACHE[key]


def congestion_probability(bins: int, flows: int, limit: int) -> float:
    """Exact P(some bin exceeds ``limit``); complement of the above."""
    return 1.0 - non_congestion_probability(bins, flows, limit)


def _wilson_interval(
    successes: int, samples: int, confidence: float
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if samples <= 0:
        return 0.0, 1.0
    # Normal quantile from a table of the common confidences, with a
    # rational approximation for the rest.
    z = {0.90: 1.6448536, 0.95: 1.9599640, 0.99: 2.5758293}.get(
        round(confidence, 2)
    )
    if z is None:
        # Beasley-Springer-Moro style fallback for unusual confidences.
        q = 1.0 - (1.0 - confidence) / 2.0
        t = math.sqrt(-2.0 * math.log(1.0 - q))
        z = t - (2.30753 + 0.27061 * t) / (1.0 + 0.99229 * t + 0.04481 * t * t)
    phat = successes / samples
    denom = 1.0 + z * z / samples
    center = (phat + z * z / (2 * samples)) / denom
    half = (
        z
        * math.sqrt(phat * (1.0 - phat) / samples + z * z / (4.0 * samples * samples))
        / denom
    )
    return max(0.0, center - half), min(1.0, center + half)


def monte_carlo_non_congestion(
    bins: int,
    flows: int,
    limit: int,
    samples: int = 4000,
    seed: int = 0,
    confidence: float = 0.95,
) -> Dict[str, float]:
    """Seeded Monte Carlo estimate with a Wilson confidence interval."""
    bins, flows, limit = _validate(bins, flows, limit)
    if samples < 1:
        raise ForwardingError(f"samples must be positive, got {samples!r}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), bins, flows, limit]))
    if flows == 0:
        successes = samples
    else:
        draws = rng.integers(0, bins, size=(samples, flows))
        occupancy = np.zeros((samples, bins), dtype=np.int64)
        np.add.at(occupancy, (np.arange(samples)[:, None], draws), 1)
        successes = int(np.count_nonzero(np.all(occupancy <= limit, axis=1)))
    low, high = _wilson_interval(successes, samples, confidence)
    return {
        "estimate": successes / samples,
        "ci_low": low,
        "ci_high": high,
        "samples": samples,
        "confidence": confidence,
    }


def analyze_placement(
    bins: int,
    flows: int,
    limit: Optional[int] = None,
    method: str = "auto",
    samples: int = 4000,
    seed: int = 0,
    confidence: float = 0.95,
    max_states: int = _DEFAULT_MAX_STATES,
) -> Dict[str, object]:
    """Non-congestion probability with automatic exact/Monte-Carlo choice.

    ``limit`` defaults to ``ceil(flows / bins) + 1`` — one flow of
    headroom above the perfectly balanced load.  ``method="auto"`` uses
    the exact recursion when the memo it would build stays under
    ``max_states`` entries and sampling otherwise; exact results carry a
    degenerate confidence interval equal to the value.
    """
    if method not in _METHOD_CHOICES:
        raise ForwardingError(
            f"unknown analytic method {method!r}; choose from {_METHOD_CHOICES}"
        )
    bins, flows, limit_value = _validate(
        bins, flows, math.ceil(flows / bins) + 1 if limit is None else limit
    )
    chosen = method
    if method == "auto":
        chosen = "exact" if bins * (flows + 1) <= max_states else "monte-carlo"
    with trace_span(
        "forwarding.analytic", bins=bins, flows=flows, limit=limit_value, method=chosen
    ) as span:
        if chosen == "exact":
            value = non_congestion_probability(bins, flows, limit_value)
            payload: Dict[str, object] = {
                "bins": bins,
                "flows": flows,
                "limit": limit_value,
                "method": "exact",
                "non_congestion_probability": value,
                "ci_low": value,
                "ci_high": value,
            }
        else:
            mc = monte_carlo_non_congestion(
                bins, flows, limit_value,
                samples=samples, seed=seed, confidence=confidence,
            )
            payload = {
                "bins": bins,
                "flows": flows,
                "limit": limit_value,
                "method": "monte-carlo",
                "non_congestion_probability": mc["estimate"],
                "ci_low": mc["ci_low"],
                "ci_high": mc["ci_high"],
                "samples": mc["samples"],
                "confidence": mc["confidence"],
            }
        span.add("probability", float(payload["non_congestion_probability"]))
    return payload
