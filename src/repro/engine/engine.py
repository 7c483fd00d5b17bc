"""The :class:`RoutingEngine` facade: many schemes, many demands, shared work.

The engine is the batch entry point of the redesigned API.  It owns one
:class:`~repro.engine.registry.EngineContext` — a single
:class:`~repro.graphs.cuts.CutCache`, one oblivious-source builder (and
per-pair distribution cache) per source spec, and a memoizing
optimal-MCF solver — and builds every requested scheme through the
registry so all of them share that state.  Candidate paths are
materialized **once** (``install``); demands then stream through
``route_many`` / ``evaluate_matrix_series`` with the per-snapshot
optimum solved at most once and reused across schemes::

    engine = RoutingEngine(net, ["semi-oblivious(racke, alpha=4)", "ksp(k=4)", "spf"], rng=0)
    report = engine.evaluate_matrix_series(series)   # installs lazily
    print(report.ranking(), report.to_json())

The two LPs behind one ratio are independent: a scheme's congestion
(the Stage-4 path LP, or an evaluation) needs nothing from the
optimum it is divided by.  So :meth:`RoutingEngine.route` hands the
optimum to one process-wide background thread and routes the schemes
on the caller's thread meanwhile; HiGHS releases the GIL while it
solves, so a route waits only for the slower side.  Both sides compute
exactly what they computed one after the other, so every number is
unchanged.
"""

from __future__ import annotations

import contextvars
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.demands.demand import Demand
from repro.demands.traffic_matrix import TrafficMatrixSeries
from repro.graphs.cuts import CutCache
from repro.graphs.network import Network
from repro.obs import trace_span
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.serialization import dumps as _json_dumps

from repro.engine.registry import (
    EngineContext,
    SchemeError,
    SchemeSpec,
    build_router,
)
from repro.engine.router import Pair, RouteResult, Router


@dataclass
class SchemeResult:
    """Per-scheme outcome of a TE simulation.

    ``utilization_ratios`` holds, per snapshot, the scheme's maximum link
    utilization divided by the per-snapshot optimum (>= 1).
    """

    scheme: str
    utilization_ratios: List[float] = field(default_factory=list)
    max_utilizations: List[float] = field(default_factory=list)

    def worst_ratio(self) -> float:
        return max(self.utilization_ratios, default=float("nan"))

    def mean_ratio(self) -> float:
        finite = [r for r in self.utilization_ratios if np.isfinite(r)]
        return float(np.mean(finite)) if finite else float("nan")

    def percentile_ratio(self, percentile: float) -> float:
        finite = [r for r in self.utilization_ratios if np.isfinite(r)]
        return float(np.percentile(finite, percentile)) if finite else float("nan")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scheme": self.scheme,
            "utilization_ratios": list(self.utilization_ratios),
            "max_utilizations": list(self.max_utilizations),
            "mean_ratio": self.mean_ratio(),
            "p90_ratio": self.percentile_ratio(90.0),
            "worst_ratio": self.worst_ratio(),
        }


@dataclass
class SimulationReport:
    """Full TE simulation output: one :class:`SchemeResult` per scheme."""

    network_name: str
    num_snapshots: int
    results: Dict[str, SchemeResult] = field(default_factory=dict)

    def ranking(self) -> List[str]:
        """Schemes ordered from best to worst mean utilization ratio."""
        return sorted(self.results, key=lambda scheme: self.results[scheme].mean_ratio())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "network": self.network_name,
            "num_snapshots": self.num_snapshots,
            "schemes": {label: result.to_dict() for label, result in self.results.items()},
            "ranking": self.ranking(),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """JSON rendering (NaN/inf become null per strict JSON)."""
        return _json_dumps(self.to_dict(), indent=indent)


SpecLike = Union[str, Mapping[str, Any], SchemeSpec, Router]

# One worker for the whole process, not one per engine: engines are made
# by the hundred and their context pickles to sweep workers.
_NORMALIZER_POOL: Optional[ThreadPoolExecutor] = None
_NORMALIZER_POOL_LOCK = threading.Lock()


def _normalizer_pool() -> ThreadPoolExecutor:
    global _NORMALIZER_POOL
    with _NORMALIZER_POOL_LOCK:
        if _NORMALIZER_POOL is None:
            _NORMALIZER_POOL = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-normalizer"
            )
        return _NORMALIZER_POOL


class RoutingEngine:
    """Batch facade routing many demands through many registry-built schemes.

    Parameters
    ----------
    network:
        The topology every scheme routes on.
    schemes:
        Scheme specs (strings, dicts, :class:`SchemeSpec`, or ready
        :class:`Router` objects), or a mapping ``label -> spec`` to
        control result labels.
    rng:
        Randomness shared by all sampling-based schemes (construction
        and installation consume it in scheme insertion order, so two
        engines built with the same seed and schemes are identical).
    cut_cache:
        Optional pre-warmed min-cut oracle to share.

    Installed fixed-ratio routings, streams, ODME loops and sweeps all
    evaluate through the compiled operator (``routing.evaluator("auto")``;
    see :mod:`repro.linalg`).
    """

    def __init__(
        self,
        network: Network,
        schemes: Union[Sequence[SpecLike], Mapping[str, SpecLike]] = (),
        rng: RngLike = None,
        cut_cache: Optional[CutCache] = None,
    ) -> None:
        self._network = network
        self._rng = ensure_rng(rng)
        self._context = EngineContext(network, cut_cache=cut_cache)
        self._routers: Dict[str, Router] = {}
        self._pairs: Optional[List[Pair]] = None
        self._installed = False
        if isinstance(schemes, Mapping):
            for label, spec in schemes.items():
                self.add_scheme(spec, label=label)
        else:
            for spec in schemes:
                self.add_scheme(spec)

    # ------------------------------------------------------------------ #
    # Scheme management
    # ------------------------------------------------------------------ #
    @property
    def network(self) -> Network:
        return self._network

    @property
    def context(self) -> EngineContext:
        return self._context

    @property
    def routers(self) -> Dict[str, Router]:
        """Label -> router, in registration order (a copy)."""
        return dict(self._routers)

    def labels(self) -> List[str]:
        return list(self._routers)

    def __contains__(self, label: str) -> bool:
        return label in self._routers

    def __getitem__(self, label: str) -> Router:
        if label not in self._routers:
            raise SchemeError(f"engine has no scheme {label!r}; available: {self.labels()}")
        return self._routers[label]

    def add_scheme(self, spec: SpecLike, label: Optional[str] = None) -> Router:
        """Build ``spec`` through the registry and add it under ``label``.

        The default label is the router's ``name``.  Schemes added after
        :meth:`install` are installed immediately on the same pairs.
        """
        router = build_router(spec, self._network, rng=self._rng, context=self._context)
        label = label if label is not None else router.name
        if label in self._routers:
            raise SchemeError(f"engine already has a scheme labelled {label!r}")
        self._routers[label] = router
        if self._installed:
            router.install(self._pairs)
        return router

    # ------------------------------------------------------------------ #
    # Offline phase
    # ------------------------------------------------------------------ #
    def install(self, pairs: Optional[Iterable[Pair]] = None) -> None:
        """Install candidate paths for every scheme (slow, offline, once).

        Shared oblivious sources are prewarmed in bulk first, so each
        distinct builder computes its per-pair distributions exactly
        once no matter how many schemes sample from or materialize it.
        """
        self._pairs = (
            list(self._network.vertex_pairs(ordered=True)) if pairs is None else list(pairs)
        )
        with trace_span("engine.install", schemes=len(self._routers)) as span:
            span.add("pairs", len(self._pairs))
            for builder in self._context.sources.values():
                if not hasattr(builder, "sample_path"):  # samplers bypass the cache
                    with trace_span("source.prewarm", source=type(builder).__name__):
                        builder.prewarm(self._pairs)
            for label, router in self._routers.items():
                with trace_span("engine.install_scheme", scheme=label):
                    router.install(self._pairs)
        self._installed = True

    @property
    def installed(self) -> bool:
        return self._installed

    def _ensure_installed(self) -> None:
        if not self._installed:
            self.install()

    # ------------------------------------------------------------------ #
    # Online phase
    # ------------------------------------------------------------------ #
    def optimal_congestion(self, demand: Demand) -> float:
        """Memoized per-snapshot optimal MCF congestion."""
        return self._context.optimal_solver(demand)

    @property
    def num_optimal_solves(self) -> int:
        """How many MCF LPs actually ran (cache misses)."""
        return self._context.optimal_solver.num_solves

    def route(
        self,
        demand: Demand,
        labels: Optional[Sequence[str]] = None,
        with_optimal: bool = True,
    ) -> Dict[str, RouteResult]:
        """Route one demand through the selected schemes.

        With ``with_optimal`` (default) the per-demand optimum is solved
        once — memoized across schemes and repeated calls — and stamped
        onto every result so ``result.ratio`` is meaningful.  It is
        solved on a background thread while the schemes route on this
        one, in a copy of this context, so its ``mcf.optimal_solve``
        span stays a child of ``engine.route``.  The route joins the
        background solve before it returns or raises.  If the optimum
        fails, its error is raised, also when a scheme failed too;
        otherwise a scheme's error is.
        """
        self._ensure_installed()
        chosen = self.labels() if labels is None else list(labels)
        with trace_span("engine.route", schemes=len(chosen)):
            pending = (
                _normalizer_pool().submit(
                    contextvars.copy_context().run, self._context.optimal_solver, demand
                )
                if with_optimal
                else None
            )
            try:
                results = {label: self[label].route(demand) for label in chosen}
            finally:
                optimum = None if pending is None else pending.result()
            for result in results.values():
                if result.optimal_congestion is None:
                    result.optimal_congestion = optimum
            return results

    def route_many(
        self,
        demands: Iterable[Demand],
        labels: Optional[Sequence[str]] = None,
        with_optimal: bool = True,
    ) -> List[Dict[str, RouteResult]]:
        """Route a batch of demands; one result dict per demand, in order."""
        self._ensure_installed()
        return [self.route(demand, labels=labels, with_optimal=with_optimal) for demand in demands]

    def evaluate_matrix_series(
        self,
        series: Union[TrafficMatrixSeries, Sequence[Demand]],
        labels: Optional[Sequence[str]] = None,
    ) -> SimulationReport:
        """Replay a traffic-matrix series and aggregate per-scheme ratios.

        This is the SMORE-style TE simulation loop.  Empty snapshots are
        skipped; the optimal MCF is solved at most once per distinct
        snapshot.
        """
        self._ensure_installed()
        chosen = self.labels() if labels is None else list(labels)
        report = SimulationReport(network_name=self._network.name, num_snapshots=len(series))
        for label in chosen:
            _ = self[label]  # validate before running anything
            report.results[label] = SchemeResult(scheme=label)
        with trace_span("engine.evaluate_series", schemes=len(chosen)) as span:
            for snapshot in series:
                if snapshot.is_empty():
                    continue
                span.add("snapshots", 1)
                results = self.route(snapshot, labels=chosen)
                for label in chosen:
                    result = results[label]
                    report.results[label].utilization_ratios.append(result.ratio)
                    report.results[label].max_utilizations.append(result.congestion)
        return report

    # ------------------------------------------------------------------ #
    # Streaming replay
    # ------------------------------------------------------------------ #
    def run_stream(
        self,
        stream,
        policies: Union[str, Sequence[str]] = "static",
        label: Optional[str] = None,
        window: int = 16,
        threshold: float = 1.0,
        with_optimal: bool = False,
        record_steps: bool = True,
        on_step=None,
        track_loads: bool = False,
        churn_buckets=None,
    ):
        """Replay a demand stream through one scheme under rerouting policies.

        The temporal entry point of the engine (see :mod:`repro.stream`):
        the chosen scheme's routing is compiled once per policy re-solve
        and every timestep in between is evaluated *incrementally* from
        the stream's delta.  ``policies`` may be a single spec string
        (returns a :class:`~repro.stream.runner.StreamRunResult`) or a
        sequence of specs (returns a
        :class:`~repro.stream.runner.StreamComparison` in which every
        policy replays bit-identical updates).  ``label`` picks the
        scheme (default: the first registered one).  With ``with_optimal`` each step is normalized by
        the per-snapshot optimal MCF congestion — solved through the
        engine's memoized solver, so repeated snapshots are free.
        ``churn_buckets`` additionally charges each policy re-solve its
        ECMP forwarding-table churn (see :func:`repro.stream.run_stream`).
        """
        from repro.stream.runner import run_stream, run_stream_comparison

        self._ensure_installed()
        if label is None:
            labels = self.labels()
            if not labels:
                raise SchemeError("engine has no schemes to stream through")
            label = labels[0]
        router = self[label]
        optimal = self.optimal_congestion if with_optimal else None

        def optimal_routing(demand):
            # One LP serves both consumers: the policy needs the
            # routing, the ratio normalization needs the congestion —
            # prime the engine's memoized solver so ``optimal(demand)``
            # right after a re-solve is a cache hit, not a second LP.
            from repro.mcf.lp import min_congestion_lp

            result = min_congestion_lp(self._network, demand, return_routing=True)
            self._context.optimal_solver.prime(demand, result.congestion)
            return result.routing

        common = dict(
            window=window,
            threshold=threshold,
            optimal=optimal,
            optimal_routing=optimal_routing,
            record_steps=record_steps,
            track_loads=track_loads,
            churn_buckets=churn_buckets,
        )
        if isinstance(policies, str):
            return run_stream(
                self._network, stream, router, policy=policies, on_step=on_step, **common
            )
        if on_step is not None:
            raise SchemeError(
                "on_step hooks apply to single-policy streaming runs; a "
                "comparison replays several policies through one hook state"
            )
        return run_stream_comparison(
            self._network, stream, router, policies=list(policies), **common
        )

    # ------------------------------------------------------------------ #
    # Closed-loop demand estimation
    # ------------------------------------------------------------------ #
    def run_odme(
        self,
        series,
        label: Optional[str] = None,
        noise: float = 0.0,
        coverage: float = 1.0,
        granularity: str = "ingress",
        method: str = "auto",
        prior=None,
        regularization: float = 0.0,
        seed: int = 0,
    ):
        """Run the telemetry closed loop on one scheme (see :mod:`repro.telemetry`).

        Per snapshot of ``series`` the chosen scheme routes the *true*
        demand, the resulting link loads are observed through a noisy
        partial-coverage telemetry model, the demand is re-estimated
        from those observations, the scheme re-routes **on the
        estimate**, and the estimate-driven routing is scored on the
        truth.  Returns a
        :class:`~repro.telemetry.OdmeLoopResult`; its summary's
        congestion gap is what estimation error costs the scheme.

        ``label`` picks the scheme (default: the first registered one).
        """
        from repro.telemetry.pipeline import run_odme_loop

        self._ensure_installed()
        if label is None:
            labels = self.labels()
            if not labels:
                raise SchemeError("engine has no schemes to estimate through")
            label = labels[0]
        router = self[label]
        return run_odme_loop(
            self._network,
            series,
            router,
            noise=noise,
            coverage=coverage,
            granularity=granularity,
            method=method,
            prior=prior,
            regularization=regularization,
            seed=seed,
        )

    # ------------------------------------------------------------------ #
    # Real-network ingestion
    # ------------------------------------------------------------------ #
    @classmethod
    def load_network(
        cls,
        source: str,
        schemes: Union[Sequence[SpecLike], Mapping[str, SpecLike]] = (),
        rng: RngLike = None,
        cut_cache: Optional[CutCache] = None,
    ) -> "RoutingEngine":
        """Build an engine on a real network resolved by the ingestion layer.

        ``source`` is anything :func:`repro.net.load_network` accepts: a
        bundled catalog name (``"zoo(abilene)"``, ``"sndlib(geant)"``) or
        a path to a GraphML / SNDlib file.  The remaining parameters are
        the normal engine constructor arguments::

            engine = RoutingEngine.load_network(
                "sndlib(geant)", ["semi-oblivious(racke, alpha=4)", "spf"], rng=0
            )
        """
        from repro.net import load_network as _load_network

        return cls(_load_network(source), schemes, rng=rng, cut_cache=cut_cache)

    # ------------------------------------------------------------------ #
    # Scenario sweeps
    # ------------------------------------------------------------------ #
    @staticmethod
    def run_suite(
        suite,
        workers: int = 1,
        artifact_dir=None,
        resume=None,
    ):
        """Execute a :class:`~repro.scenarios.spec.ScenarioSuite` grid.

        The batch entry point of the scenario-sweep subsystem: every cell
        of the failure × demand × topology grid is routed through one
        engine per topology (candidate paths installed once, the optimal
        MCF memoized per snapshot), fanned out over ``workers``
        processes.  Returns a :class:`~repro.scenarios.report.SuiteResult`
        whose JSON artifact is bit-identical for any worker count.
        Fixed-ratio schemes evaluate through the operators they compiled
        at install (failure cells rebase them).  With ``workers > 1``
        each topology's engine is installed once in the parent and
        pickled whole, compiled operators included, to a spawn pool
        that evaluates the cells.  ``artifact_dir`` streams per-cell
        results into a resumable on-disk store, and ``resume`` points at
        such a store to skip already-completed cells — see
        :func:`repro.scenarios.runner.run_suite`.
        """
        from repro.scenarios.runner import run_suite as _run_suite

        return _run_suite(
            suite,
            workers=workers,
            artifact_dir=artifact_dir,
            resume=resume,
        )

    def __repr__(self) -> str:
        return (
            f"RoutingEngine(network={self._network.name!r}, schemes={self.labels()}, "
            f"installed={self._installed})"
        )


__all__ = ["RoutingEngine", "SchemeResult", "SimulationReport"]
