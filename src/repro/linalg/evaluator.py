"""Pluggable evaluation backends for routings.

Every quality measure downstream of :class:`~repro.core.routing.Routing`
— congestion, per-edge utilizations, dilation, throughput — funnels
through an *evaluator*.  Two interchangeable backends implement the same
contract:

``dict``
    The reference implementation: the original per-demand Python loops
    over ``Dict[Path, float]`` distributions, now with a small
    per-(routing, demand) memo so one (routing, demand) pair is
    evaluated exactly once no matter how many metrics ask for it.

``sparse``
    The compiled backend of :mod:`repro.linalg.compiled`: one scipy CSR
    matmul ``batch @ M`` per demand batch against the pair × edge
    operator ``M`` built at compile time.

The backends are numerically equivalent within 1e-9 (enforced by the
randomized suite in ``tests/test_linalg_equivalence.py``); they are not
bit-identical because float summation order differs.

Contract
--------

* ``edge_loads(demand)`` / ``edge_congestions(demand)`` — per-edge raw
  loads / capacity-normalized utilizations as dicts keyed by canonical
  edge (only edges with nonzero load appear);
* ``congestion(demand)`` / ``dilation(demand)`` — the scalar measures;
* ``edge_load_matrix(demands)`` / ``congestions(demands)`` — batched
  variants returning numpy arrays (batch × edge, and batch-length);
* a demanded pair the routing does not cover raises
  :class:`~repro.exceptions.RoutingError` in every backend; zero-amount
  entries are ignored.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from repro.exceptions import LinalgError
from repro.graphs.network import Edge, path_edges
from repro.linalg.compiled import CompiledRouting
from repro.obs import trace_span

#: Backend names accepted by :func:`build_evaluator`.
BACKENDS = ("dict", "sparse")

#: The full set of backend selectors (``Routing.evaluator``,
#: :func:`build_evaluator`): the concrete backends plus ``"auto"``.
BACKEND_CHOICES = BACKENDS + ("auto",)

#: How many distinct demands the dict backend memoizes per routing.
_DICT_CACHE_SIZE = 16


def available_backends() -> List[str]:
    """Evaluation backends accepted by :func:`build_evaluator`."""
    return list(BACKENDS)


@runtime_checkable
class Evaluator(Protocol):
    """Structural interface of an evaluation backend."""

    backend: str

    def edge_loads(self, demand) -> Dict[Edge, float]: ...

    def edge_congestions(self, demand) -> Dict[Edge, float]: ...

    def congestion(self, demand) -> float: ...

    def dilation(self, demand) -> int: ...

    def edge_load_matrix(self, demands: Sequence) -> np.ndarray: ...

    def congestions(self, demands: Sequence) -> np.ndarray: ...


@dataclass
class _Evaluation:
    """One shared evaluation of a (routing, demand) pair."""

    loads: Dict[Edge, float]
    congestion: float
    dilation: int


class DictEvaluator:
    """Reference backend: the original dict loops plus a shared memo.

    The memo is keyed by the (hashable, immutable) demand and bounded,
    so `congestion`, `edge_congestions`, `dilation` and the TE metrics
    evaluate a given (routing, demand) pair once instead of rebuilding
    the edge-load dict per call.
    """

    backend = "dict"

    def __init__(self, routing, cache_size: int = _DICT_CACHE_SIZE) -> None:
        self._routing = routing
        self._cache: "OrderedDict" = OrderedDict()
        self._cache_size = cache_size
        self._routing_version = getattr(routing, "_version", 0)

    @property
    def routing(self):
        return self._routing

    def _evaluate(self, demand) -> _Evaluation:
        version = getattr(self._routing, "_version", 0)
        if version != self._routing_version:
            # The routing mutated under us (standalone evaluators outlive
            # Routing's own cache clear): drop the stale memo.
            self._cache.clear()
            self._routing_version = version
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
        with trace_span("linalg.batched_evaluate", backend=self.backend) as span:
            span.add("demands", len(demands))
            return np.array(
                [self._evaluate(demand).congestion for demand in demands], dtype=float
            )

    def clear_cache(self) -> None:
        self._cache.clear()

    def __repr__(self) -> str:
        return f"DictEvaluator(routing={self._routing!r}, cached={len(self._cache)})"


class SparseEvaluator:
    """Compiled backend: evaluation as (batched) sparse linear algebra.

    The compiled form is a snapshot: when built via :meth:`from_routing`
    the evaluator remembers the routing's version and raises
    :class:`LinalgError` if the routing mutates afterwards — a stale
    compile must be rebuilt, never silently served.
    """

    backend = "sparse"

    def __init__(self, compiled: CompiledRouting, source_routing=None) -> None:
        self._compiled = compiled
        self._source_routing = source_routing
        self._source_version = getattr(source_routing, "_version", 0)

    @classmethod
    def from_routing(cls, routing) -> "SparseEvaluator":
        """Compile and wrap ``routing``."""
        return cls(CompiledRouting.from_routing(routing), source_routing=routing)

    @property
    def compiled(self) -> CompiledRouting:
        return self._compiled

    def _check_fresh(self) -> None:
        if self._source_routing is None:
            return
        if getattr(self._source_routing, "_version", 0) != self._source_version:
            raise LinalgError(
                "the routing mutated after compilation; rebuild the evaluator "
                "(routing.evaluator(...) re-compiles automatically)"
            )

    def edge_loads(self, demand) -> Dict[Edge, float]:
        self._check_fresh()
        loads = self._compiled.edge_load_vector(demand)
        edges = self._compiled.network.edges
        return {edges[i]: float(loads[i]) for i in np.flatnonzero(loads)}

    def edge_congestions(self, demand) -> Dict[Edge, float]:
        self._check_fresh()
        loads = self._compiled.edge_load_vector(demand)
        capacities = self._compiled.capacities
        edges = self._compiled.network.edges
        return {edges[i]: float(loads[i] / capacities[i]) for i in np.flatnonzero(loads)}

    def congestion(self, demand) -> float:
        self._check_fresh()
        return self._compiled.congestion(demand)

    def dilation(self, demand) -> int:
        self._check_fresh()
        return self._compiled.dilation(demand)

    def edge_load_matrix(self, demands: Sequence) -> np.ndarray:
        self._check_fresh()
        return self._compiled.edge_load_matrix(demands)

    def congestions(self, demands: Sequence) -> np.ndarray:
        self._check_fresh()
        with trace_span("linalg.batched_evaluate", backend=self.backend) as span:
            span.add("demands", len(demands))
            return self._compiled.congestions(demands)

    def demand_matrix(self, demands: Sequence):
        """(batch × pair) matrix reusable across this evaluator's rebases."""
        self._check_fresh()
        return self._compiled.demand_matrix(demands)

    def congestions_from_matrix(self, batch) -> np.ndarray:
        self._check_fresh()
        return self._compiled.congestions_from_matrix(batch)

    def coverage(self, demand) -> float:
        self._check_fresh()
        return self._compiled.coverage(demand)

    def rebased(self, event) -> "SparseEvaluator":
        """The evaluator for the post-failure renormalized routing (memoized)."""
        self._check_fresh()
        rebased = self._compiled.rebased(event)
        if rebased is self._compiled:
            return self
        return SparseEvaluator(
            rebased,
            source_routing=self._source_routing,
        )

    def __repr__(self) -> str:
        return f"SparseEvaluator(backend={self.backend!r}, compiled={self._compiled!r})"


def build_evaluator(routing, backend: str = "auto") -> Evaluator:
    """Construct an evaluation backend for ``routing``.

    ``backend`` is one of ``"dict"`` (reference loops), ``"sparse"``
    (scipy CSR), or ``"auto"`` (the compiled default, ``"sparse"``).
    """
    if backend == "dict":
        return DictEvaluator(routing)
    if backend in BACKEND_CHOICES:
        return SparseEvaluator.from_routing(routing)
    raise LinalgError(
        f"unknown evaluation backend {backend!r}; available: {available_backends()}"
    )


__all__ = [
    "BACKENDS",
    "BACKEND_CHOICES",
    "Evaluator",
    "DictEvaluator",
    "SparseEvaluator",
    "available_backends",
    "build_evaluator",
]
