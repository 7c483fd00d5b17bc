"""The streaming replay loop: one compiled operator, many timesteps.

:func:`run_stream` plays a demand stream through one routing scheme
under one rerouting policy:

* the policy produces a routing (step 0, on schedule, or forced when a
  demand shift escapes the routing's coverage),
* each routing is compiled **once** into a
  :class:`~repro.linalg.CompiledRouting` and evaluated *incrementally*
  across the steps it stays installed — per-step cost is proportional
  to the stream's delta, not to the demand size,
* per-step congestion flows into a :class:`RollingStreamStats`
  streaming reduction; optionally each step is also normalized against
  the per-step optimal MCF congestion for the time-averaged competitive
  ratio.

:func:`run_stream_comparison` replays the *same* materialized update
sequence under several policies and ranks them — the policy-comparison
report behind ``repro stream run --policy a --policy b``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.competitive import congestion_ratio
from repro.demands.demand import Demand
from repro.exceptions import RoutingError, StreamError
from repro.graphs.network import Network
from repro.obs import NO_OP_SPAN, trace_span
from repro.utils.serialization import dumps as _json_dumps

from repro.stream.incremental import IncrementalStreamEvaluator
from repro.stream.metrics import RollingStreamStats
from repro.stream.policies import PolicyContext, StreamPolicy, build_policy
from repro.stream.sources import DemandStream, StreamUpdate


@dataclass
class StreamRunResult:
    """Outcome of one (stream, scheme, policy) replay."""

    stream: str
    scheme: str
    policy: str
    num_steps: int
    summary: Dict[str, Any] = field(default_factory=dict)
    records: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self, include_steps: bool = True) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "stream": self.stream,
            "scheme": self.scheme,
            "policy": self.policy,
            "num_steps": self.num_steps,
            "summary": dict(self.summary),
        }
        if include_steps:
            payload["steps"] = [dict(record) for record in self.records]
        return payload

    def to_json(self, indent: Optional[int] = 2, include_steps: bool = True) -> str:
        """JSON rendering (NaN/inf become null per strict JSON)."""
        return _json_dumps(self.to_dict(include_steps=include_steps), indent=indent)


@dataclass
class StreamComparison:
    """Several policies replayed over one identical update sequence."""

    network_name: str
    stream: str
    scheme: str
    num_steps: int
    results: Dict[str, StreamRunResult] = field(default_factory=dict)

    def ranking(self) -> List[str]:
        """Policies from best to worst cumulative congestion."""
        return sorted(
            self.results,
            key=lambda name: self.results[name].summary.get(
                "cumulative_congestion", float("inf")
            ),
        )

    def to_dict(self, include_steps: bool = True) -> Dict[str, Any]:
        return {
            "network": self.network_name,
            "stream": self.stream,
            "scheme": self.scheme,
            "num_steps": self.num_steps,
            "policies": {
                name: result.to_dict(include_steps=include_steps)
                for name, result in self.results.items()
            },
            "ranking": self.ranking(),
        }

    def to_json(self, indent: Optional[int] = 2, include_steps: bool = True) -> str:
        return _json_dumps(self.to_dict(include_steps=include_steps), indent=indent)

    def render(self) -> str:
        """Plain-text policy table, best cumulative congestion first."""
        header = (
            f"{'policy':26s} {'cum.cong':>10s} {'mean':>8s} {'peak':>8s} "
            f"{'>thr':>6s} {'solves':>7s} {'ratio':>7s}"
        )
        lines = [
            f"{self.network_name}: {self.stream} x {self.scheme}, "
            f"{self.num_steps} steps",
            header,
            "-" * len(header),
        ]
        for name in self.ranking():
            summary = self.results[name].summary
            ratio = summary.get("mean_ratio")
            lines.append(
                f"{name:26s} {summary['cumulative_congestion']:10.3f} "
                f"{summary['mean_congestion']:8.3f} {summary['peak_congestion']:8.3f} "
                f"{summary['time_above_threshold']:6.2f} "
                f"{summary['num_resolves']:7d} "
                + (f"{ratio:7.3f}" if ratio is not None and np.isfinite(ratio) else f"{'-':>7s}")
            )
        return "\n".join(lines)


def _materialize(stream: Union[DemandStream, Sequence[StreamUpdate]]) -> List[StreamUpdate]:
    if isinstance(stream, (list, tuple)):
        updates = list(stream)
    else:
        updates = list(stream.updates())
    if not updates:
        raise StreamError("cannot replay an empty demand stream")
    return updates


def _stream_label(stream: Union[DemandStream, Sequence[StreamUpdate]], num_steps: int) -> str:
    describe = getattr(stream, "describe", None)
    if callable(describe):
        return describe()
    return f"updates[{num_steps} steps]"


def run_stream(
    network: Network,
    stream: Union[DemandStream, Sequence[StreamUpdate]],
    router: Any,
    policy: Union[str, StreamPolicy] = "static",
    window: int = 16,
    threshold: float = 1.0,
    optimal: Optional[Callable[[Demand], float]] = None,
    optimal_routing: Optional[Callable[[Demand], Any]] = None,
    record_steps: bool = True,
    on_step: Optional[Callable[[int, IncrementalStreamEvaluator, RollingStreamStats], Any]] = None,
    track_loads: bool = False,
    churn_buckets: Optional[int] = None,
) -> StreamRunResult:
    """Replay ``stream`` through ``router`` under one rerouting policy.

    Parameters
    ----------
    network:
        The topology (must be the one ``router`` was installed on).
    stream:
        A :class:`~repro.stream.sources.DemandStream` or an already
        materialized update list (the comparison runner passes the same
        list to every policy).
    router:
        The installed base scheme; ``static``/``semi-oblivious``
        policies route through it.
    policy:
        Policy spec string or ready :class:`StreamPolicy`.
    window / threshold:
        Rolling-window length and overload threshold for the streaming
        statistics.
    optimal:
        Optional ``demand -> optimal congestion`` solver; when given,
        each step also records its competitive ratio and the summary
        gains ``mean_ratio`` / ``worst_ratio`` (the time-averaged
        competitive ratio vs the per-step optimum).
    optimal_routing:
        Optional ``demand -> Routing`` MCF solver for the
        ``periodic``/``threshold`` policies.  Defaults to the exact LP
        when available.
    record_steps:
        Keep per-step records on the result (disable for long streams
        where only the summary matters).
    on_step:
        Optional ``(step, evaluator, stats)`` hook called after every
        absorbed step — the attachment point for online controllers
        such as :class:`~repro.telemetry.WindowedOdmeEstimator`.
    track_loads:
        Retain the raw per-edge load vectors in the rolling window
        (see :meth:`RollingStreamStats.windowed_mean_loads`); required
        by windowed demand estimation.
    churn_buckets:
        When set, quantize every resolved routing into a ``1/k`` ECMP
        forwarding table (:func:`repro.forwarding.quantize_routing`)
        and charge each re-solve its *forwarding-table churn* — the
        number of (pair, node) next-hop sets that changed versus the
        previously installed table (the first table counts in full).
        Resolve steps gain a ``forwarding_churn`` record field and the
        summary gains ``forwarding_churn`` / ``forwarding_rules`` /
        ``churn_buckets`` keys; the default ``None`` leaves records and
        artifacts bit-identical to previous releases.

    Every installed routing is evaluated incrementally through its
    compiled operator (``routing.evaluator("auto")``).
    """
    updates = _materialize(stream)

    if optimal_routing is None:
        def optimal_routing(demand: Demand):  # noqa: F811 - deliberate default
            from repro.mcf.lp import min_congestion_lp

            return min_congestion_lp(network, demand, return_routing=True).routing

    policy = build_policy(policy)
    policy.bind(PolicyContext(network, router, optimal_routing=optimal_routing))
    stats = RollingStreamStats(window=window, threshold=threshold, track_loads=track_loads)

    evaluator: Optional[IncrementalStreamEvaluator] = None
    last_congestion: Optional[float] = None
    forced_resolves = 0
    records: List[Dict[str, Any]] = []
    ratios: List[float] = []

    if churn_buckets is not None:
        # Imported on demand: the forwarding layer sits above the stream
        # runner (same lazy pattern as the registry's realized scheme).
        from repro.forwarding.quantize import forwarding_churn, quantize_routing
    previous_table = None
    churn_total = 0
    step_churn: Optional[int] = None

    # Per-step spans would dominate short steps, so tracing aggregates
    # steps into one ``stream.interval`` span per installed routing
    # (opened at each re-solve, closed at the next one); the interval's
    # ``steps`` counter says how many deltas it absorbed.
    replay_span = trace_span("stream.replay", policy=policy.name, steps=len(updates))
    interval = NO_OP_SPAN
    segment = 0
    with replay_span:
        for update in updates:
            demand = update.demand
            resolved = False
            forced = False
            if evaluator is None or policy.should_resolve(update.step, demand, last_congestion):
                interval.__exit__(None, None, None)
                interval = NO_OP_SPAN
                with trace_span("stream.resolve", step=update.step):
                    routing = policy.resolve(update.step, demand)
                    evaluator = IncrementalStreamEvaluator(routing.evaluator("auto"))
                evaluator.set_demand(demand, delta=None)
                resolved = True
            else:
                try:
                    evaluator.set_demand(demand, delta=update.delta)
                except RoutingError:
                    # The stream shifted outside the routing's coverage: a
                    # real controller re-optimizes rather than blackholing
                    # the new flows.  Forced re-solves are reported
                    # separately from scheduled ones.
                    interval.__exit__(None, None, None)
                    interval = NO_OP_SPAN
                    with trace_span("stream.resolve", step=update.step, forced=True):
                        routing = policy.resolve(update.step, demand)
                        evaluator = IncrementalStreamEvaluator(routing.evaluator("auto"))
                    evaluator.set_demand(demand, delta=None)
                    resolved = True
                    forced = True
                    forced_resolves += 1
            if resolved:
                if churn_buckets is not None:
                    with trace_span("forwarding.churn", step=update.step) as churn_span:
                        table = quantize_routing(routing, buckets=churn_buckets)
                        step_churn = forwarding_churn(previous_table, table)
                        churn_span.add("changed", step_churn)
                    previous_table = table
                    churn_total += step_churn
                interval = trace_span("stream.interval", segment=segment)
                segment += 1
                interval.__enter__()
            interval.add("steps", 1)
            congestion = evaluator.congestion()
            record = stats.observe(
                congestion,
                evaluator.utilizations(),
                loads=evaluator.loads if track_loads else None,
            )
            record["resolved"] = resolved
            if forced:
                record["forced"] = True
            if resolved and churn_buckets is not None:
                record["forwarding_churn"] = step_churn
            if optimal is not None:
                optimum = float(optimal(demand))
                ratio = congestion_ratio(congestion, optimum)
                record["optimal_congestion"] = optimum
                record["ratio"] = ratio
                ratios.append(ratio)
            if record_steps:
                records.append(record)
            if on_step is not None:
                on_step(update.step, evaluator, stats)
            last_congestion = congestion
        interval.__exit__(None, None, None)
        replay_span.add("resolves", policy.num_resolves)
        replay_span.add("forced_resolves", forced_resolves)

    summary = stats.summary()
    summary["num_resolves"] = policy.num_resolves
    summary["forced_resolves"] = forced_resolves
    if churn_buckets is not None:
        summary["churn_buckets"] = int(churn_buckets)
        summary["forwarding_churn"] = churn_total
        summary["forwarding_rules"] = (
            previous_table.num_rules() if previous_table is not None else 0
        )
    finite = [ratio for ratio in ratios if np.isfinite(ratio)]
    summary["mean_ratio"] = float(np.mean(finite)) if finite else None
    summary["worst_ratio"] = float(np.max(finite)) if finite else None
    return StreamRunResult(
        stream=_stream_label(stream, len(updates)),
        scheme=getattr(router, "name", str(router)),
        policy=policy.name,
        num_steps=len(updates),
        summary=summary,
        records=records,
    )


def run_stream_comparison(
    network: Network,
    stream: Union[DemandStream, Sequence[StreamUpdate]],
    router: Any,
    policies: Sequence[Union[str, StreamPolicy]] = ("static",),
    window: int = 16,
    threshold: float = 1.0,
    optimal: Optional[Callable[[Demand], float]] = None,
    optimal_routing: Optional[Callable[[Demand], Any]] = None,
    record_steps: bool = True,
    track_loads: bool = False,
    churn_buckets: Optional[int] = None,
) -> StreamComparison:
    """Replay one stream under several policies; identical traffic per policy.

    The stream is materialized once so every policy sees bit-identical
    updates, then each policy runs through :func:`run_stream`.  Policy
    labels must be unique.
    """
    if not policies:
        raise StreamError("need at least one rerouting policy to compare")
    # Label collisions fail fast, before any stream is replayed: two
    # specs may normalize to one name ("periodic(8)" == "periodic(k=8)").
    built = [build_policy(spec) for spec in policies]
    names = [policy.name for policy in built]
    if len(set(names)) != len(names):
        duplicate = next(name for name in names if names.count(name) > 1)
        raise StreamError(f"duplicate policy label {duplicate!r} in comparison")
    updates = _materialize(stream)
    comparison = StreamComparison(
        network_name=network.name,
        stream=_stream_label(stream, len(updates)),
        scheme=getattr(router, "name", str(router)),
        num_steps=len(updates),
    )
    for policy in built:
        result = run_stream(
            network,
            updates,
            router,
            policy=policy,
            window=window,
            threshold=threshold,
            optimal=optimal,
            optimal_routing=optimal_routing,
            record_steps=record_steps,
            track_loads=track_loads,
            churn_buckets=churn_buckets,
        )
        result.stream = comparison.stream
        comparison.results[result.policy] = result
    return comparison


__all__ = ["StreamRunResult", "StreamComparison", "run_stream", "run_stream_comparison"]
