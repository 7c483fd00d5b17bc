"""The ``dict`` evaluator: the reference loops every compiled number is checked against.

Every quality measure downstream of :class:`~repro.core.routing.Routing`
— congestion, per-edge utilizations, dilation, throughput — has two
implementations, picked by ``routing.evaluator(form)``:

``"auto"``
    The compiled form, :class:`~repro.linalg.compiled.CompiledRouting`:
    one scipy CSR matmul ``batch @ M`` per demand batch against the
    pair × edge operator ``M`` built at compile time.

``"dict"``
    :class:`DictEvaluator`, defined here: the original per-demand Python
    loops over ``Dict[Path, float]`` distributions, with a small
    per-(routing, demand) memo so one (routing, demand) pair is evaluated
    exactly once no matter how many metrics ask for it.  It is the test
    oracle, and the form of a routing evaluated only once.

The two agree within 1e-9 on edge loads, ``congestion``, ``congestions``
and ``dilation`` (enforced by the randomized suite in
``tests/test_linalg_equivalence.py``); they are not bit-identical
because float summation order differs.  A demanded pair the routing does
not cover raises :class:`~repro.exceptions.RoutingError` in both;
zero-amount entries are ignored.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.graphs.network import Edge, path_edges
from repro.obs import trace_span

#: How many distinct demands the dict evaluator memoizes per routing.
_DICT_CACHE_SIZE = 16


@dataclass
class _Evaluation:
    """One shared evaluation of a (routing, demand) pair."""

    loads: Dict[Edge, float]
    congestion: float
    dilation: int


class DictEvaluator:
    """The reference evaluator: the original dict loops plus a shared memo.

    The memo is keyed by the (hashable, immutable) demand and bounded,
    so `congestion`, `edge_congestions`, `dilation` and the TE metrics
    evaluate a given (routing, demand) pair once instead of rebuilding
    the edge-load dict per call.
    """

    def __init__(self, routing, cache_size: int = _DICT_CACHE_SIZE) -> None:
        self._routing = routing
        self._cache: "OrderedDict" = OrderedDict()
        self._cache_size = cache_size

    @property
    def routing(self):
        return self._routing

    def _evaluate(self, demand) -> _Evaluation:
        cached = self._cache.get(demand)
        if cached is not None:
            self._cache.move_to_end(demand)
            return cached
        network = self._routing.network
        loads: Dict[Edge, float] = {}
        longest = 0
        for (source, target), amount in demand.items():
            if amount <= 0:
                continue
            distribution = self._routing.distribution(source, target)
            for path, probability in distribution.items():
                if probability <= 0:
                    continue
                longest = max(longest, len(path) - 1)
                weight = amount * probability
                for edge in path_edges(path):
                    loads[edge] = loads.get(edge, 0.0) + weight
        worst = 0.0
        for edge, load in loads.items():
            worst = max(worst, load / network.capacity_of(edge))
        evaluation = _Evaluation(loads=loads, congestion=worst, dilation=longest)
        self._cache[demand] = evaluation
        while len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
        return evaluation

    def edge_loads(self, demand) -> Dict[Edge, float]:
        return dict(self._evaluate(demand).loads)

    def edge_congestions(self, demand) -> Dict[Edge, float]:
        network = self._routing.network
        return {
            edge: load / network.capacity_of(edge)
            for edge, load in self._evaluate(demand).loads.items()
        }

    def congestion(self, demand) -> float:
        return self._evaluate(demand).congestion

    def dilation(self, demand) -> int:
        return self._evaluate(demand).dilation

    def edge_load_matrix(self, demands: Sequence) -> np.ndarray:
        network = self._routing.network
        edges = network.edges
        matrix = np.zeros((len(demands), len(edges)), dtype=float)
        for row, demand in enumerate(demands):
            loads = self._evaluate(demand).loads
            for edge, load in loads.items():
                matrix[row, network.edge_index(*edge)] = load
        return matrix

    def congestions(self, demands: Sequence) -> np.ndarray:
        with trace_span("linalg.batched_evaluate") as span:
            span.add("demands", len(demands))
            return np.array(
                [self._evaluate(demand).congestion for demand in demands], dtype=float
            )

    def clear_cache(self) -> None:
        self._cache.clear()

    def __repr__(self) -> str:
        return f"DictEvaluator(routing={self._routing!r}, cached={len(self._cache)})"


__all__ = ["DictEvaluator"]
