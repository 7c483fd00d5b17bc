"""The closed estimation loop: route truth, observe, estimate, re-route.

:func:`run_odme_loop` is the subsystem's end-to-end pipeline and the
engine behind ``repro net odme``.  Per traffic-matrix snapshot:

1. the **true** demand is routed by the installed scheme (this is the
   forwarding state whose counters a controller would read),
2. the resulting link loads are *observed* through an
   :class:`~repro.telemetry.ObservationModel` (noise, dropout,
   granularity),
3. an :func:`~repro.telemetry.estimate_demand` pass inverts the
   compiled pair × edge operator into an **estimated** demand,
4. the scheme **re-routes on the estimate** — the routing a controller
   that only sees telemetry would actually install — and
5. that estimate-driven routing is evaluated **on the truth**: the
   congestion gap between steps 1 and 5 is precisely what demand
   estimation error costs the scheme.

Noise-free full-coverage ingress telemetry closes the loop exactly
(estimate ≡ truth, gap ≡ 0); sweeping noise/coverage then maps how the
competitive story of the paper degrades under realistic observability.

Seeding: snapshot ``k`` observes under a generator derived from
``SeedSequence([seed, k])``, so artifacts are bit-identical across
repeated runs and independent of any evaluation order.  Results carry
no wall-clock fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.exceptions import TelemetryError
from repro.graphs.network import Network
from repro.obs import trace_span
from repro.utils.serialization import dumps as _json_dumps

from repro.telemetry.observation import ObservationModel
from repro.telemetry.odme import estimate_demand


@dataclass
class OdmeLoopResult:
    """Outcome of one closed-loop run over a traffic-matrix series."""

    network: str
    scheme: str
    method: str
    granularity: str
    noise: float
    coverage: float
    seed: int
    num_snapshots: int
    records: List[Dict[str, Any]] = field(default_factory=list)
    summary: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self, include_steps: bool = True) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "network": self.network,
            "scheme": self.scheme,
            "method": self.method,
            "granularity": self.granularity,
            "noise": self.noise,
            "coverage": self.coverage,
            "seed": self.seed,
            "num_snapshots": self.num_snapshots,
            "summary": dict(self.summary),
        }
        if include_steps:
            payload["snapshots"] = [dict(record) for record in self.records]
        return payload

    def to_json(self, indent: Optional[int] = 2, include_steps: bool = True) -> str:
        """JSON rendering (NaN/inf become null per strict JSON)."""
        return _json_dumps(self.to_dict(include_steps=include_steps), indent=indent)

    def render(self) -> str:
        """Plain-text snapshot table plus the summary line."""
        header = (
            f"{'snap':>4s} {'est.err':>9s} {'residual':>9s} {'cong.true':>10s} "
            f"{'cong.est':>9s} {'gap':>9s}"
        )
        lines = [
            f"{self.network}: {self.scheme} x {self.method} "
            f"({self.granularity}, noise={self.noise:g}, coverage={self.coverage:g})",
            header,
            "-" * len(header),
        ]
        for record in self.records:
            lines.append(
                f"{record['snapshot']:4d} {record['demand_error_l2']:9.2e} "
                f"{record['residual']:9.2e} {record['congestion_true']:10.4f} "
                f"{record['congestion_estimated']:9.4f} {record['congestion_gap']:+9.2e}"
            )
        summary = self.summary
        lines.append(
            f"mean est.err={summary['mean_demand_error']:.2e} "
            f"max est.err={summary['max_demand_error']:.2e} "
            f"max |gap|={summary['max_abs_congestion_gap']:.2e}"
        )
        return "\n".join(lines)


def _routing_of(result, scheme: str):
    routing = result.routing
    if routing is None:
        raise TelemetryError(
            f"scheme {scheme!r} did not expose a routing to compile — the "
            "closed loop needs one to measure and re-route (pick a "
            "fixed-ratio, spf, or semi-oblivious scheme)"
        )
    return routing


def run_odme_loop(
    network: Network,
    series,
    router,
    noise: float = 0.0,
    coverage: float = 1.0,
    granularity: str = "ingress",
    method: str = "auto",
    prior: Optional[np.ndarray] = None,
    regularization: float = 0.0,
    seed: int = 0,
) -> OdmeLoopResult:
    """Run the closed estimation loop over every snapshot of ``series``.

    ``router`` is an installed scheme router (see
    :meth:`repro.engine.RoutingEngine.run_odme` for the facade that
    builds one); it is asked to route twice per snapshot — once on the
    truth (the measured forwarding state) and once on the estimate (what
    a telemetry-only controller would install).  Both routings are
    compiled (``routing.evaluator("auto")``) and the estimate-driven one
    is scored **on the truth**.
    """
    model = ObservationModel(noise=noise, coverage=coverage, granularity=granularity)
    scheme = getattr(router, "name", str(router))
    records: List[Dict[str, Any]] = []
    resolved_method: Optional[str] = None
    for index, truth in enumerate(series):
        if truth.is_empty():
            continue
        with trace_span("odme.snapshot", snapshot=index):
            routing_true = _routing_of(router.route(truth), scheme)
            compiled = routing_true.evaluator("auto").compiled
            rng = np.random.default_rng(np.random.SeedSequence([int(seed), index]))
            observation = model.observe(compiled, truth, rng=rng)
            with trace_span("odme.estimate", method=method) as estimate_span:
                estimate = estimate_demand(
                    compiled,
                    observation,
                    method=method,
                    prior=prior,
                    regularization=regularization,
                )
                estimate_span.set("resolved_method", estimate.method)
                estimate_span.add("converged", 1 if estimate.converged else 0)
            resolved_method = estimate.method

            truth_vector = compiled.demand_vector(truth, missing="drop")
            truth_norm = float(np.linalg.norm(truth_vector))
            error_l2 = float(np.linalg.norm(estimate.vector - truth_vector)) / max(
                truth_norm, 1e-12
            )
            error_max = float(np.max(np.abs(estimate.vector - truth_vector), initial=0.0))

            congestion_true = compiled.congestion(truth, missing="drop")
            routing_estimated = _routing_of(router.route(estimate.demand), scheme)
            compiled_estimated = routing_estimated.evaluator("auto").compiled
            # The controller installs the estimate-driven routing; the real
            # traffic is still the truth — score it there.  Truth pairs the
            # re-routed state no longer covers are dropped (they would show
            # as infinite congestion, drowning the gap signal).
            congestion_estimated = compiled_estimated.congestion(truth, missing="drop")
            gap = congestion_estimated - congestion_true
            records.append(
                {
                    "snapshot": index,
                    "demand_error_l2": error_l2,
                    "demand_error_max": error_max,
                    "residual": estimate.residual,
                    "converged": estimate.converged,
                    "congestion_true": congestion_true,
                    "congestion_estimated": congestion_estimated,
                    "congestion_gap": gap,
                    "congestion_ratio": (
                        congestion_estimated / congestion_true
                        if congestion_true > 0
                        else None
                    ),
                    "estimated_volume": float(estimate.vector.sum()),
                    "true_volume": float(truth_vector.sum()),
                }
            )
    if not records:
        raise TelemetryError("cannot run the ODME loop on an all-empty series")
    errors = [record["demand_error_l2"] for record in records]
    gaps = [abs(record["congestion_gap"]) for record in records]
    ratios = [
        record["congestion_ratio"]
        for record in records
        if record["congestion_ratio"] is not None and np.isfinite(record["congestion_ratio"])
    ]
    summary = {
        "num_snapshots": len(records),
        "mean_demand_error": float(np.mean(errors)),
        "max_demand_error": float(np.max(errors)),
        "mean_abs_congestion_gap": float(np.mean(gaps)),
        "max_abs_congestion_gap": float(np.max(gaps)),
        "mean_congestion_ratio": float(np.mean(ratios)) if ratios else None,
        "all_converged": bool(all(record["converged"] for record in records)),
    }
    return OdmeLoopResult(
        network=network.name,
        scheme=scheme,
        method=resolved_method or method,
        granularity=granularity,
        noise=float(noise),
        coverage=float(coverage),
        seed=int(seed),
        num_snapshots=len(records),
        records=records,
        summary=summary,
    )


__all__ = ["OdmeLoopResult", "run_odme_loop"]
