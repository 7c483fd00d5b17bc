"""Flow-level ECMP realization: hashing discrete flows onto buckets.

A quantized forwarding table still describes *expected* splits.  Real
traffic is a finite population of flows, each pinned to one bucket per
hop by a hash of its five-tuple — so realized edge loads deviate from
the fractional ideal.  This module samples that placement with
SeedSequence-derived generators (bit-identical for a given seed,
independent of pair iteration order) and evaluates the resulting
empirical routing through its compiled pair-x-edge operator
(``routing.evaluator("auto")``: scipy CSR).

Per pair, ``flows`` equal-size flows each carry ``demand(s, t)/flows``:

* next-hop mode — every flow draws one bucket per node along its walk
  (memoryless per-hop hashing, the product-form model);
* path mode — every flow draws a single bucket owning one path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.routing import Routing
from repro.demands.demand import Demand
from repro.exceptions import ForwardingError
from repro.graphs.network import Path
from repro.obs import trace_span

from repro.forwarding.quantize import ForwardingTable, quantize_routing

#: SeedSequence stream tag for flow placement (the scenario runner owns
#: tags 0-3; forwarding uses its own namespace entry).
_STREAM_FLOWS = 4


def _flow_rng(seed: int, pair_index: int) -> np.random.Generator:
    """The canonical per-pair flow-placement generator."""
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), _STREAM_FLOWS, int(pair_index)])
    )


def realize_flows(table: ForwardingTable, flows: int, seed: int = 0) -> Routing:
    """Empirical routing from hashing ``flows`` flows per pair onto buckets.

    Deterministic for a given ``seed``: pair streams are derived from
    ``SeedSequence([seed, stream, pair_index])`` with pairs in canonical
    (repr-sorted) order, so results do not depend on dict ordering or
    worker count.
    """
    if int(flows) < 1:
        raise ForwardingError(f"flows must be a positive integer, got {flows!r}")
    flows = int(flows)
    buckets = table.buckets
    distributions: Dict[Tuple, Dict[Path, float]] = {}
    for pair_index, pair in enumerate(table.pairs()):
        entry = table[pair]
        rng = _flow_rng(seed, pair_index)
        counts: Dict[Path, int] = {}
        if entry.mode == "path":
            # One draw per flow; bucket b is owned by the path covering b
            # in the cumulative bucket-count order of the sorted paths.
            owners: list = []
            for path, weight in entry.paths:
                owners.extend([path] * round(weight * buckets))
            for _ in range(flows):
                path = owners[int(rng.integers(0, buckets))]
                counts[path] = counts.get(path, 0) + 1
        else:
            splits = dict(entry.next_hops)
            source, target = pair
            for _ in range(flows):
                node = source
                walk = [node]
                while node != target:
                    entries = splits[node]
                    bucket = int(rng.integers(0, buckets))
                    cumulative = 0
                    for successor, count in entries:
                        cumulative += count
                        if bucket < cumulative:
                            node = successor
                            break
                    walk.append(node)
                path = tuple(walk)
                counts[path] = counts.get(path, 0) + 1
        distributions[pair] = {
            path: count / flows for path, count in counts.items()
        }
    return Routing(table.network, distributions)


@dataclass(frozen=True)
class RealizationResult:
    """Congestion of one routing under quantization and flow placement."""

    buckets: int
    flows: Optional[int]
    backend: str
    fractional_congestion: float
    quantized_congestion: float
    flow_congestion: Optional[float]
    rules: int
    fallback_pairs: int
    max_error: float

    @property
    def gap(self) -> float:
        """Quantized-over-fractional max-congestion ratio."""
        if self.fractional_congestion == 0:
            return float("nan")
        return self.quantized_congestion / self.fractional_congestion

    @property
    def flow_gap(self) -> Optional[float]:
        if self.flow_congestion is None:
            return None
        if self.fractional_congestion == 0:
            return float("nan")
        return self.flow_congestion / self.fractional_congestion

    def to_dict(self) -> Dict[str, object]:
        return {
            "buckets": self.buckets,
            "flows": self.flows,
            "backend": self.backend,
            "fractional_congestion": self.fractional_congestion,
            "quantized_congestion": self.quantized_congestion,
            "flow_congestion": self.flow_congestion,
            "gap": self.gap,
            "flow_gap": self.flow_gap,
            "rules": self.rules,
            "fallback_pairs": self.fallback_pairs,
            "max_error": self.max_error,
        }


def evaluate_realization(
    routing: Routing,
    demand: Demand,
    buckets: int = 8,
    flows: Optional[int] = None,
    seed: int = 0,
    on_cycle: str = "decompose",
    table: Optional[ForwardingTable] = None,
) -> Tuple[ForwardingTable, RealizationResult]:
    """Quantize ``routing`` and measure the realized congestion gap.

    Returns the forwarding table and a :class:`RealizationResult` whose
    congestions are all evaluated through the compiled operator
    (``routing.evaluator("auto")``); ``result.backend`` records
    ``"sparse"``.  A pre-built ``table`` for the same routing skips the
    quantization step (the ``realized(...)`` scheme caches tables across
    snapshots this way).
    """
    if table is None:
        table = quantize_routing(routing, buckets=buckets, on_cycle=on_cycle)
    with trace_span(
        "forwarding.realize",
        buckets=table.buckets,
        flows=0 if flows is None else int(flows),
        backend="sparse",
    ) as span:
        fractional = routing.evaluator("auto").congestion(demand)
        quantized = table.routing().evaluator("auto").congestion(demand)
        flow_congestion = None
        if flows is not None:
            empirical = realize_flows(table, flows, seed=seed)
            flow_congestion = empirical.evaluator("auto").congestion(demand)
        result = RealizationResult(
            buckets=table.buckets,
            flows=None if flows is None else int(flows),
            backend="sparse",
            fractional_congestion=fractional,
            quantized_congestion=quantized,
            flow_congestion=flow_congestion,
            rules=table.num_rules(),
            fallback_pairs=len(table.fallback_pairs()),
            max_error=table.max_error(),
        )
        span.add("gap", result.gap)
    return table, result
