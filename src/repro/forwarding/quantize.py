"""Quantizing path distributions into ECMP-realizable forwarding tables.

Real switches do not forward fractional flow: at each node a pair's
traffic is hashed onto ``k`` equal-weight buckets and every bucket is
owned by one next hop, so split ratios are multiples of ``1/k``.  This
module converts any :class:`~repro.core.routing.Routing` into that
shape.

Per pair the quantizer first tries **next-hop form**: project the path
distribution onto directed arcs, divide each node's outgoing arc weight
by its through-flow, and quantize the resulting split ratios with the
largest-remainder method (so per-node ratios are exact multiples of
``1/k`` summing to exactly 1).  On a directed acyclic arc set this
reproduces the fractional edge loads exactly before quantization.  Two
pathologies make next-hop form unrepresentable or impractical:

* **loops** — two paths of the same pair traverse a shared edge in
  opposite directions, so the union arc set has a directed cycle and
  per-node splitting would forward traffic forever;
* **non-confluent blow-up** — the quantized next-hop DAG encodes more
  than ``max_paths`` distinct walks, so materializing the realized path
  distribution is not tractable.

Both fall back (``on_cycle="decompose"``, the default) to **path form**:
the pair's path weights themselves are quantized to multiples of
``1/k``, which any ECMP implementation can realize with per-path
buckets.  ``on_cycle="error"`` raises :class:`ForwardingError` instead.

Normalization contract (shared with ``Routing.path_usage_counts``): the
quantizer consumes the weights exactly as stored and raises a typed
:class:`ForwardingError` when a pair's weights do not sum to 1 within
``1e-9`` — it never renormalizes silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.core.routing import Pair, Routing
from repro.exceptions import ForwardingError
from repro.graphs.network import Network, Path, Vertex
from repro.obs import trace_span

#: Tolerance on per-pair path-weight sums: stricter than Routing's
#: construction tolerance, because a routing's stored weights are
#: renormalized exactly; a sum outside 1e-9 means the distribution did not
#: come from a Routing.
_WEIGHT_SUM_TOL = 1e-9

#: Next-hop DAGs encoding more walks than this decompose to path form.
_DEFAULT_MAX_PATHS = 1024

_ON_CYCLE_CHOICES = ("decompose", "error")


def _largest_remainder(weights: Sequence[float], buckets: int) -> List[int]:
    """Integer bucket counts summing to ``buckets``, proportional to ``weights``.

    Largest-remainder (Hamilton) apportionment: floor everything, then
    hand the leftover buckets to the largest fractional remainders.
    Ties break deterministically by (remainder, index).  Weights are
    assumed nonnegative with a positive sum.
    """
    total = float(sum(weights))
    shares = [weight * buckets / total for weight in weights]
    counts = [int(share) for share in shares]
    leftover = buckets - sum(counts)
    order = sorted(range(len(weights)), key=lambda i: (-(shares[i] - counts[i]), i))
    for i in order[:leftover]:
        counts[i] += 1
    return counts


def _topological_order(
    nodes: Sequence[Vertex], arcs: Mapping[Vertex, Sequence[Vertex]]
) -> Optional[List[Vertex]]:
    """Kahn's algorithm; ``None`` when the arc set has a directed cycle."""
    indegree: Dict[Vertex, int] = {node: 0 for node in nodes}
    for successors in arcs.values():
        for successor in successors:
            indegree[successor] += 1
    frontier = [node for node in nodes if indegree[node] == 0]
    order: List[Vertex] = []
    while frontier:
        frontier.sort(key=repr)
        node = frontier.pop(0)
        order.append(node)
        for successor in arcs.get(node, ()):
            indegree[successor] -= 1
            if indegree[successor] == 0:
                frontier.append(successor)
    if len(order) != len(nodes):
        return None
    return order


@dataclass(frozen=True)
class PairForwarding:
    """One pair's ECMP state: either per-node splits or quantized paths.

    ``next_hops`` maps node -> ((successor, bucket_count), ...) with the
    counts summing to ``buckets`` at every node (empty in path mode).
    ``paths`` is the realized path distribution: in next-hop mode the
    product-form walk weights of the quantized DAG, in path mode the
    per-path quantized weights (exact multiples of ``1/buckets``).
    """

    pair: Pair
    mode: str  # "next-hop" | "path"
    buckets: int
    next_hops: Tuple[Tuple[Vertex, Tuple[Tuple[Vertex, int], ...]], ...]
    paths: Tuple[Tuple[Path, float], ...]
    #: Total-variation distance between the original and realized
    #: path distributions (0.5 * L1); the per-pair quantization error.
    error: float

    def next_hop_ratios(self) -> Dict[Vertex, Dict[Vertex, float]]:
        """Fractional split ratios per node (multiples of ``1/buckets``)."""
        return {
            node: {succ: count / self.buckets for succ, count in entries}
            for node, entries in self.next_hops
        }

    def next_hop_sets(self) -> Dict[Vertex, FrozenSet[Vertex]]:
        """Per-node sets of active next hops (bucket count > 0).

        Path-mode pairs derive the sets from the arcs of their surviving
        quantized paths, so churn is comparable across modes.
        """
        if self.mode == "next-hop":
            return {
                node: frozenset(succ for succ, count in entries if count > 0)
                for node, entries in self.next_hops
            }
        sets: Dict[Vertex, set] = {}
        for path, weight in self.paths:
            if weight <= 0:
                continue
            for node, successor in zip(path, path[1:]):
                sets.setdefault(node, set()).add(successor)
        return {node: frozenset(successors) for node, successors in sets.items()}

    def num_rules(self) -> int:
        """Number of installed (node, next-hop) forwarding rules."""
        return sum(len(successors) for successors in self.next_hop_sets().values())


class ForwardingTable:
    """A full ECMP forwarding table: one :class:`PairForwarding` per pair."""

    def __init__(
        self, network: Network, buckets: int, entries: Mapping[Pair, PairForwarding]
    ) -> None:
        self._network = network
        self._buckets = int(buckets)
        self._entries: Dict[Pair, PairForwarding] = dict(entries)

    @property
    def network(self) -> Network:
        return self._network

    @property
    def buckets(self) -> int:
        return self._buckets

    @property
    def entries(self) -> Dict[Pair, PairForwarding]:
        return dict(self._entries)

    def pairs(self) -> List[Pair]:
        return sorted(self._entries, key=repr)

    def __getitem__(self, pair: Pair) -> PairForwarding:
        return self._entries[pair]

    def __len__(self) -> int:
        return len(self._entries)

    def routing(self) -> Routing:
        """The realized (still fractional) routing encoded by the table."""
        return Routing(
            self._network,
            {pair: dict(entry.paths) for pair, entry in self._entries.items()},
        )

    def next_hop_sets(self) -> Dict[Tuple[Pair, Vertex], FrozenSet[Vertex]]:
        """Flat (pair, node) -> next-hop set map; the churn comparison key."""
        flat: Dict[Tuple[Pair, Vertex], FrozenSet[Vertex]] = {}
        for pair, entry in self._entries.items():
            for node, successors in entry.next_hop_sets().items():
                flat[(pair, node)] = successors
        return flat

    def num_rules(self) -> int:
        return sum(entry.num_rules() for entry in self._entries.values())

    def fallback_pairs(self) -> List[Pair]:
        """Pairs realized in path mode (cycle or walk blow-up fallback)."""
        return sorted(
            (pair for pair, entry in self._entries.items() if entry.mode == "path"),
            key=repr,
        )

    def max_error(self) -> float:
        """Worst per-pair total-variation quantization error."""
        if not self._entries:
            return 0.0
        return max(entry.error for entry in self._entries.values())

    def to_dict(self) -> Dict[str, object]:
        """JSON-able summary (deterministic ordering throughout)."""
        pairs_payload = []
        for pair in self.pairs():
            entry = self._entries[pair]
            pairs_payload.append({
                "pair": [repr(pair[0]), repr(pair[1])],
                "mode": entry.mode,
                "rules": entry.num_rules(),
                "error": entry.error,
                "next_hops": {
                    repr(node): {
                        repr(succ): count for succ, count in entries if count > 0
                    }
                    for node, entries in entry.next_hops
                },
                "num_paths": len(entry.paths),
            })
        return {
            "buckets": self._buckets,
            "num_pairs": len(self._entries),
            "num_rules": self.num_rules(),
            "fallback_pairs": len(self.fallback_pairs()),
            "max_error": self.max_error(),
            "pairs": pairs_payload,
        }


def _pair_arcs(
    distribution: Mapping[Path, float],
) -> Dict[Tuple[Vertex, Vertex], float]:
    """Project a path distribution onto directed arc weights.

    The split ratio at node ``u`` is arc weight over through-flow, but
    through-flow is exactly the sum of ``u``'s outgoing arc weights and
    largest-remainder apportionment is scale-invariant, so arc weights
    alone determine the quantized splits.
    """
    arc_weight: Dict[Tuple[Vertex, Vertex], float] = {}
    for path, probability in distribution.items():
        for u, v in zip(path, path[1:]):
            arc_weight[(u, v)] = arc_weight.get((u, v), 0.0) + probability
    return arc_weight


def _quantize_path_mode(
    pair: Pair, distribution: Mapping[Path, float], buckets: int
) -> PairForwarding:
    """Fallback decomposition: quantize the path weights themselves."""
    paths = sorted(distribution, key=repr)
    counts = _largest_remainder([distribution[path] for path in paths], buckets)
    realized = {
        path: count / buckets for path, count in zip(paths, counts) if count > 0
    }
    error = 0.5 * sum(
        abs(realized.get(path, 0.0) - distribution[path]) for path in paths
    )
    return PairForwarding(
        pair=pair,
        mode="path",
        buckets=buckets,
        next_hops=(),
        paths=tuple(sorted(realized.items(), key=lambda item: repr(item[0]))),
        error=error,
    )


def _walk_paths(
    source: Vertex,
    target: Vertex,
    splits: Mapping[Vertex, Sequence[Tuple[Vertex, int]]],
    buckets: int,
    max_paths: int,
) -> Optional[Dict[Path, float]]:
    """Product-form path distribution of a quantized next-hop DAG.

    Every walk from ``source`` follows positive-count arcs and must end
    at ``target`` (each arc belongs to an original simple path that
    continues to the target, and per-node counts sum to ``buckets``), so
    the returned weights sum to 1.  ``None`` when more than ``max_paths``
    walks exist.
    """
    results: Dict[Path, float] = {}
    stack: List[Tuple[Tuple[Vertex, ...], float]] = [((source,), 1.0)]
    # Work bound on pushed prefixes, not frontier width: every arc leads
    # to the target, so a DAG with at most ``max_paths`` complete walks
    # pushes at most one prefix per (walk, node) — exceeding this budget
    # proves the walk count exceeds ``max_paths`` without enumerating
    # them all, while a wide-but-small DAG is never spuriously demoted.
    work_limit = (max_paths + 1) * (len(splits) + 2)
    pushed = 1
    while stack:
        prefix, weight = stack.pop()
        node = prefix[-1]
        if node == target:
            results[prefix] = results.get(prefix, 0.0) + weight
            if len(results) > max_paths:
                return None
            continue
        for successor, count in splits.get(node, ()):
            if count > 0:
                stack.append((prefix + (successor,), weight * count / buckets))
                pushed += 1
                if pushed > work_limit:
                    return None
    return results


def quantize_pair(
    pair: Pair,
    distribution: Mapping[Path, float],
    buckets: int,
    on_cycle: str = "decompose",
    max_paths: int = _DEFAULT_MAX_PATHS,
) -> PairForwarding:
    """Quantize one pair's path distribution; see module docstring."""
    total = sum(distribution.values())
    if abs(total - 1.0) > _WEIGHT_SUM_TOL:
        raise ForwardingError(
            f"pair {pair!r}: path weights sum to {total!r}, not 1 within "
            f"{_WEIGHT_SUM_TOL:g}; the quantizer does not renormalize silently"
        )
    arc_weight = _pair_arcs(distribution)
    arcs: Dict[Vertex, List[Vertex]] = {}
    nodes = set()
    for (u, v), _ in arc_weight.items():
        arcs.setdefault(u, []).append(v)
        nodes.add(u)
        nodes.add(v)
    order = _topological_order(sorted(nodes, key=repr), arcs)
    if order is None:
        if on_cycle == "error":
            raise ForwardingError(
                f"pair {pair!r}: the union of path arcs has a directed cycle; "
                "per-node next-hop splits would loop "
                '(use on_cycle="decompose" for the path-mode fallback)'
            )
        return _quantize_path_mode(pair, distribution, buckets)

    splits: Dict[Vertex, Tuple[Tuple[Vertex, int], ...]] = {}
    for node in sorted(arcs, key=repr):
        successors = sorted(arcs[node], key=repr)
        counts = _largest_remainder(
            [arc_weight[(node, successor)] for successor in successors], buckets
        )
        splits[node] = tuple(zip(successors, counts))

    source, target = pair
    realized = _walk_paths(source, target, splits, buckets, max_paths)
    if realized is None:
        if on_cycle == "error":
            raise ForwardingError(
                f"pair {pair!r}: quantized next-hop DAG encodes more than "
                f"{max_paths} walks (non-confluent blow-up); "
                'use on_cycle="decompose" for the path-mode fallback'
            )
        return _quantize_path_mode(pair, distribution, buckets)
    support = set(distribution) | set(realized)
    error = 0.5 * sum(
        abs(realized.get(path, 0.0) - distribution.get(path, 0.0))
        for path in support
    )
    return PairForwarding(
        pair=pair,
        mode="next-hop",
        buckets=buckets,
        next_hops=tuple(sorted(splits.items(), key=lambda item: repr(item[0]))),
        paths=tuple(sorted(realized.items(), key=lambda item: repr(item[0]))),
        error=error,
    )


def quantize_routing(
    routing: Routing,
    buckets: int = 8,
    on_cycle: str = "decompose",
    max_paths: int = _DEFAULT_MAX_PATHS,
) -> ForwardingTable:
    """Quantize every pair of ``routing`` into a :class:`ForwardingTable`.

    ``buckets`` is the ECMP group size ``k`` (any positive integer; the
    benched sweep is k in {2, 4, 8, 16}).  ``on_cycle`` selects between
    the documented path-mode decomposition fallback (``"decompose"``,
    default) and strict ``ForwardingError`` (``"error"``) for pairs
    whose arc union is cyclic or whose quantized DAG exceeds
    ``max_paths`` walks.
    """
    if int(buckets) < 1:
        raise ForwardingError(f"buckets must be a positive integer, got {buckets!r}")
    if on_cycle not in _ON_CYCLE_CHOICES:
        raise ForwardingError(
            f"unknown on_cycle policy {on_cycle!r}; choose from {_ON_CYCLE_CHOICES}"
        )
    buckets = int(buckets)
    pairs = sorted(routing.pairs(), key=repr)
    with trace_span("forwarding.quantize", buckets=buckets, pairs=len(pairs)) as span:
        entries = {
            pair: quantize_pair(
                pair,
                routing.distribution(*pair),
                buckets,
                on_cycle=on_cycle,
                max_paths=max_paths,
            )
            for pair in pairs
        }
        table = ForwardingTable(routing.network, buckets, entries)
        span.add("rules", table.num_rules())
        span.add("fallback_pairs", len(table.fallback_pairs()))
    return table


def forwarding_churn(
    before: Optional[ForwardingTable], after: ForwardingTable
) -> int:
    """Number of (pair, node) next-hop sets that differ between tables.

    Entries present on only one side count as changed; with ``before``
    None (the first install) every entry of ``after`` counts, so a
    stream policy's cumulative churn includes the initial table push.
    """
    new = after.next_hop_sets()
    if before is None:
        return len(new)
    old = before.next_hop_sets()
    keys = set(old) | set(new)
    return sum(1 for key in keys if old.get(key) != new.get(key))
