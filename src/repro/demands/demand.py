"""The :class:`Demand` matrix (Definition 2.2 of the paper).

A demand is a function ``d : V x V -> R_{>=0}`` with ``d(v, v) = 0``.
We store it sparsely as a mapping from ordered pairs to positive values.
The class implements the demand taxonomy used by the paper:

* integral demands (all values integers),
* {0, 1}-demands,
* permutation demands (each vertex is the source of at most one unit and
  the destination of at most one unit),
* α-special demands (Definition 5.5: every value is 0 or α + cut(s, t)),

together with the algebra needed by the reductions of Section 5.4
(scaling, addition, splitting, restriction, bucketing).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.exceptions import DemandError
from repro.graphs.network import Network, Vertex

Pair = Tuple[Vertex, Vertex]

_INTEGRALITY_TOL = 1e-9


class Demand:
    """A sparse demand matrix over ordered vertex pairs.

    Parameters
    ----------
    values:
        Mapping from ``(source, target)`` pairs to nonnegative demand.
        Zero entries are dropped; negative entries and diagonal entries
        with positive demand raise :class:`DemandError`.
    network:
        Optional network against which pair endpoints are validated.
    """

    def __init__(
        self,
        values: Mapping[Pair, float] | Iterable[Tuple[Pair, float]] = (),
        network: Optional[Network] = None,
    ) -> None:
        if isinstance(values, Mapping):
            items = values.items()
        else:
            items = list(values)
        cleaned: Dict[Pair, float] = {}
        for (source, target), amount in items:
            amount = float(amount)
            if amount < 0:
                raise DemandError(f"negative demand {amount} for pair {(source, target)!r}")
            if source == target:
                if amount > 0:
                    raise DemandError(f"demand between identical vertices {source!r}")
                continue
            if network is not None:
                if not network.has_vertex(source) or not network.has_vertex(target):
                    raise DemandError(
                        f"demand pair {(source, target)!r} references vertices outside the network"
                    )
            if amount > 0:
                cleaned[(source, target)] = cleaned.get((source, target), 0.0) + amount
        self._values: Dict[Pair, float] = cleaned
        self._hash: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Basic access
    # ------------------------------------------------------------------ #
    def value(self, source: Vertex, target: Vertex) -> float:
        """``d(source, target)`` (0 for absent pairs)."""
        return self._values.get((source, target), 0.0)

    def __getitem__(self, pair: Pair) -> float:
        return self.value(pair[0], pair[1])

    def pairs(self) -> List[Pair]:
        """The support ``supp(d)`` as a list of ordered pairs."""
        return list(self._values.keys())

    def items(self) -> Iterator[Tuple[Pair, float]]:
        return iter(self._values.items())

    def support_size(self) -> int:
        """``|supp(d)|``."""
        return len(self._values)

    def size(self) -> float:
        """``siz(d) = sum_{s != t} d(s, t)``."""
        return sum(self._values.values())

    def max_value(self) -> float:
        """``max_{s,t} d(s, t)`` (0 for the empty demand)."""
        if not self._values:
            return 0.0
        return max(self._values.values())

    def is_empty(self) -> bool:
        return not self._values

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[Pair]:
        return iter(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Demand):
            return NotImplemented
        keys = set(self._values) | set(other._values)
        return all(abs(self.value(*k) - other.value(*k)) <= 1e-12 for k in keys)

    def __hash__(self) -> int:
        # Demands are mutated never, only rebuilt, so the hash is computed once.
        if self._hash is None:
            self._hash = hash(frozenset((k, round(v, 12)) for k, v in self._values.items()))
        return self._hash

    def __getstate__(self) -> Dict[str, object]:
        # String hashes differ between processes: the cached hash does not travel.
        return {"_values": self._values}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self._values = state["_values"]
        self._hash = None

    def __repr__(self) -> str:
        return f"Demand(pairs={self.support_size()}, size={self.size():.3f})"

    # ------------------------------------------------------------------ #
    # Classification (Definition 2.2 / 5.5)
    # ------------------------------------------------------------------ #
    def is_integral(self) -> bool:
        """True when every demand value is an integer."""
        return all(abs(v - round(v)) <= _INTEGRALITY_TOL for v in self._values.values())

    def is_zero_one(self) -> bool:
        """True when every demand value is exactly 1 (a {0, 1}-demand)."""
        return all(abs(v - 1.0) <= _INTEGRALITY_TOL for v in self._values.values())

    def is_permutation(self) -> bool:
        """True for permutation demands: {0,1}-demand, row/column sums <= 1."""
        if not self.is_zero_one():
            return False
        out_degree: Dict[Vertex, int] = {}
        in_degree: Dict[Vertex, int] = {}
        for source, target in self._values:
            out_degree[source] = out_degree.get(source, 0) + 1
            in_degree[target] = in_degree.get(target, 0) + 1
            if out_degree[source] > 1 or in_degree[target] > 1:
                return False
        return True

    def is_special(self, alpha: int, cut_oracle: Callable[[Vertex, Vertex], float]) -> bool:
        """True for α-special demands: every value equals ``alpha + cut(s, t)``."""
        for (source, target), amount in self._values.items():
            expected = alpha + cut_oracle(source, target)
            if abs(amount - expected) > 1e-6:
                return False
        return True

    # ------------------------------------------------------------------ #
    # Algebra used by the Section 5.4 reductions
    # ------------------------------------------------------------------ #
    def scaled(self, factor: float) -> "Demand":
        """The demand ``factor * d``."""
        if factor < 0:
            raise DemandError("scaling factor must be nonnegative")
        return Demand({pair: amount * factor for pair, amount in self._values.items()})

    def __add__(self, other: "Demand") -> "Demand":
        combined = dict(self._values)
        for pair, amount in other._values.items():
            combined[pair] = combined.get(pair, 0.0) + amount
        return Demand(combined)

    def __sub__(self, other: "Demand") -> "Demand":
        combined = dict(self._values)
        for pair, amount in other._values.items():
            remaining = combined.get(pair, 0.0) - amount
            if remaining < -1e-9:
                raise DemandError("subtraction would produce a negative demand")
            if remaining <= 1e-12:
                combined.pop(pair, None)
            else:
                combined[pair] = remaining
        return Demand(combined)

    def restricted(self, pairs: Iterable[Pair]) -> "Demand":
        """The demand restricted to ``pairs`` (other entries zeroed)."""
        wanted = set(pairs)
        return Demand({pair: amount for pair, amount in self._values.items() if pair in wanted})

    def filtered(self, predicate: Callable[[Pair, float], bool]) -> "Demand":
        """Keep only entries on which ``predicate(pair, value)`` is true."""
        return Demand(
            {pair: amount for pair, amount in self._values.items() if predicate(pair, amount)}
        )

    def rounded_up(self) -> "Demand":
        """Ceil every entry to an integer (used for integral comparisons)."""
        return Demand({pair: math.ceil(amount - _INTEGRALITY_TOL) for pair, amount in self._values.items()})

    def split_by_threshold(self, threshold: float) -> Tuple["Demand", "Demand"]:
        """Split into (entries >= threshold, entries < threshold) — Lemma 5.17 style."""
        high = {p: v for p, v in self._values.items() if v >= threshold}
        low = {p: v for p, v in self._values.items() if v < threshold}
        return Demand(high), Demand(low)

    def buckets_by_ratio(
        self,
        denominator: Callable[[Pair], float],
        base: float = 2.0,
    ) -> Dict[int, "Demand"]:
        """Bucket pairs by ``log_base(d(s,t) / denominator(s,t))`` (Lemma 5.9 reduction)."""
        buckets: Dict[int, Dict[Pair, float]] = {}
        for pair, amount in self._values.items():
            denom = denominator(pair)
            if denom <= 0:
                raise DemandError(f"nonpositive denominator for pair {pair!r}")
            ratio = amount / denom
            index = int(math.floor(math.log(ratio, base))) if ratio > 0 else 0
            buckets.setdefault(index, {})[pair] = amount
        return {index: Demand(values) for index, values in buckets.items()}

    def special_cover(
        self,
        alpha: int,
        cut_oracle: Callable[[Vertex, Vertex], float],
    ) -> "Demand":
        """The smallest α-special demand dominating the support of ``d``.

        Used by the special-to-general reduction: every pair in the
        support is raised to ``alpha + cut(s, t)``.
        """
        return Demand(
            {
                (source, target): alpha + cut_oracle(source, target)
                for (source, target) in self._values
            }
        )

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_pairs(cls, pairs: Iterable[Pair], value: float = 1.0, network: Optional[Network] = None) -> "Demand":
        """A demand assigning ``value`` to every listed pair."""
        return cls({tuple(pair): value for pair in pairs}, network=network)

    @classmethod
    def empty(cls) -> "Demand":
        return cls({})


__all__ = ["Demand", "Pair"]
