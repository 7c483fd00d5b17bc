"""Traced replay of a workload through each layer's public entry point.

The engine hides its layers behind ``engine.route``, so the traced run
replays the same seeded inputs by calling the layers directly, in the
order the engine calls them, with a ``layer.*`` span (recorded through
:mod:`repro.obs`) around each call.  The program's own spans
(``mcf.lp_setup``, ``mcf.lp_solve``, ``linalg.compile``, ...) nest
inside them.  Each replayed congestion must equal the untraced
``engine.route`` result for the same demand.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.path_system import PathSystem
from repro.core.rate_adaptation import optimal_rates
from repro.core.sampling import alpha_sample, support_system
from repro.engine.registry import EngineContext, build_oblivious_source, parse_spec
from repro.mcf.lp import min_congestion_lp
from repro.obs import (
    Tracer,
    install_tracer,
    span_records,
    summarize_trace,
    trace_span,
    uninstall_tracer,
)

from closed_loop import Inputs, LoopResult, matches

LAYER_PREFIX = "layer."


@dataclass
class Installed:
    """One scheme as the engine installs it: a path system or a compiled routing."""

    label: str
    system: Optional[PathSystem] = None
    evaluator: object = None
    routing: object = None

    def paths_per_pair(self, pairs) -> List[int]:
        if self.system is not None:
            return [len(self.system.paths(s, t)) for s, t in pairs]
        return [len(self.routing.distribution(s, t)) for s, t in pairs]


def _source_of(spec: str) -> Tuple[str, str, dict, dict]:
    """``(label, source name, source params, scheme params)`` as the registry builds them."""
    parsed = parse_spec(spec)
    params = parsed.param_dict
    if parsed.name == "semi-oblivious":
        return "semi-oblivious", params.get("oblivious", "racke"), {}, params
    if parsed.name == "ksp":
        source_params = {"k": params.get("k", 4), "inverse_capacity_weight": False}
        return "ksp", "ksp", source_params, params
    if parsed.name == "spf":
        return "spf", "shortest-path", {}, params
    if parsed.name == "oblivious":
        return "oblivious", params.get("oblivious", "racke"), {}, params
    raise ValueError(f"the layer replay does not know scheme {spec!r}")


def install_layers(inputs: Inputs) -> List[Installed]:
    """Replay ``RoutingEngine(...)`` + ``install(pairs)`` + evaluator compile, layer by layer."""
    network, pairs = inputs.network, inputs.pairs
    rng = inputs.engine_rng()
    context = EngineContext(network)
    plans = []
    for spec in inputs.spec["schemes"]:
        label, source_name, source_params, params = _source_of(spec)
        with trace_span("layer.oblivious.build", scheme=label):
            source = build_oblivious_source(
                source_name, network, rng=rng, context=context, **source_params
            )
        plans.append((label, source, params))
    for builder in context.sources.values():
        if not hasattr(builder, "sample_path"):  # the engine prewarms only these
            with trace_span("layer.oblivious.materialize", call="prewarm"):
                builder.prewarm(pairs)
    installed = []
    for label, source, params in plans:
        if label == "semi-oblivious":
            with trace_span("layer.core.sample", call="alpha_sample"):
                system = alpha_sample(source, params.get("alpha", 4), pairs=pairs, rng=rng)
            installed.append(Installed(label, system=system))
        elif label == "ksp":
            with trace_span("layer.core.sample", call="support_system"):
                system = support_system(source, pairs=pairs)
            installed.append(Installed(label, system=system))
        else:
            with trace_span("layer.oblivious.materialize", call="routing"):
                routing = source.routing(pairs=pairs)
            with trace_span("layer.linalg.compile"):
                evaluator = routing.evaluator(params.get("backend", "dict"))
            installed.append(Installed(label, evaluator=evaluator, routing=routing))
    return installed


def route_layers(inputs: Inputs, installed: List[Installed], demand) -> Dict[str, float]:
    """Replay ``engine.route(demand)``: optimum first, then every scheme in order."""
    row: Dict[str, float] = {}
    if inputs.spec["with_optimal"]:
        with trace_span("layer.mcf.optimal"):
            row["optimal"] = min_congestion_lp(inputs.network, demand).congestion
    for scheme in installed:
        if scheme.system is not None:
            with trace_span("layer.core.rate_adapt", scheme=scheme.label):
                row[scheme.label] = optimal_rates(scheme.system, demand).congestion
        else:
            with trace_span("layer.linalg.evaluate", scheme=scheme.label):
                row[scheme.label] = scheme.evaluator.congestion(demand)
    return row


def traced_replay(inputs: Inputs, loop: LoopResult) -> Dict[str, float]:
    """Replay set-up and every demand the loop attempted; returns the per-layer metrics.

    Each demand is replayed twice, once with the tracer installed and
    once without, alternating which goes first, so the difference is
    the tracing overhead.  Mismatches against ``loop.rows`` are counted
    as failures on ``loop``.
    """
    tracer = Tracer()
    install_tracer(tracer)
    try:
        began = time.perf_counter()
        installed = install_layers(inputs)
        setup_s = time.perf_counter() - began
    finally:
        uninstall_tracer()

    latencies = iter(loop.latencies)
    untraced: List[float] = []
    traced: List[float] = []
    engine_self_ms: List[float] = []
    for index, (demand, expected) in enumerate(zip(inputs.demands(), loop.rows)):
        timings = {}
        for traced_pass in ((False, True) if index % 2 == 0 else (True, False)):
            if traced_pass:
                install_tracer(tracer)
            try:
                began = time.perf_counter()
                row = route_layers(inputs, installed, demand)
                timings[traced_pass] = time.perf_counter() - began
            finally:
                if traced_pass:
                    uninstall_tracer()
        if expected is None:
            continue
        untraced.append(timings[False])
        traced.append(timings[True])
        engine_self_ms.append(1000.0 * (next(latencies) - timings[False]))
        bad = [key for key, value in expected.items() if not matches(row[key], value)]
        if bad:
            loop.fail(f"demand {index}: layer replay differs from engine.route on {bad}")
    tracer.close()

    rows = {row["name"]: row for row in summarize_trace(tracer.records)}
    spans = span_records(tracer.records)

    def total_s(name: str) -> float:
        return rows[name]["total_s"] if name in rows else 0.0

    def per_demand_ms(name: str) -> float:
        return 1000.0 * total_s(name) / len(untraced) if untraced else 0.0

    lp_columns = [r["counters"]["columns"] for r in spans
                  if r["name"] == "mcf.lp" and "columns" in r.get("counters", {})]
    systems = [scheme.system for scheme in installed if scheme.system is not None]
    path_lp_cols = [sum(len(s.paths(a, b)) for a, b in inputs.pairs) + 1 for s in systems]
    paths = [count for scheme in installed for count in scheme.paths_per_pair(inputs.pairs)]
    covered = sum(r["dur"] for r in spans if r["depth"] == 0 and r["name"].startswith(LAYER_PREFIX))
    return {
        "mcf.optimal_ms": per_demand_ms("layer.mcf.optimal"),
        "mcf.lp_setup_ms": per_demand_ms("mcf.lp_setup"),
        "mcf.lp_solve_ms": per_demand_ms("mcf.lp_solve"),
        "mcf.optimal_cols": _mean(lp_columns),
        "mcf.optimal_solves": loop.optimal_solves / len(loop.latencies) if loop.latencies else 0.0,
        "core.rate_adapt_ms": per_demand_ms("layer.core.rate_adapt"),
        "mcf.path_lp_cols": _mean(path_lp_cols),
        "oblivious.build_s": total_s("layer.oblivious.build"),
        "oblivious.materialize_s": total_s("layer.oblivious.materialize"),
        "core.sample_s": total_s("layer.core.sample"),
        "linalg.compile_s": total_s("layer.linalg.compile"),
        "linalg.evaluate_ms": per_demand_ms("layer.linalg.evaluate"),
        "engine.route_self_ms": statistics.median(engine_self_ms) if engine_self_ms else 0.0,
        "core.paths_per_pair": _mean(paths),
        "trace_overhead_pct": (
            100.0 * (sum(traced) - sum(untraced)) / sum(untraced) if untraced else 0.0
        ),
        "unattributed_pct": 100.0 * (1.0 - covered / (setup_s + sum(traced))),
    }


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0
