"""Scenario-suite execution: install once per topology, fan cells out.

The runner realizes the SMORE-style sweep loop on top of the
:class:`~repro.engine.engine.RoutingEngine` facade.  Because every
random draw is keyed off ``(suite.seed, stream, index)`` via
:class:`numpy.random.SeedSequence`, every worker count produces
**bit-identical** artifacts (rows are reassembled in canonical cell
order, never in worker completion order).

Execution
---------

``workers == 1`` runs every cell in-process: one engine per topology,
built lazily, cells evaluated in canonical order.  ``workers > 1``
installs one engine per topology **once** in the parent — fixed-ratio
schemes compile their operators at install — and hands the engines,
compiled operators included, to a spawn pool through its initargs.
The workers drain a **cell-granular** work queue (``imap_unordered``,
chunk size 1), so stragglers never serialize behind big topologies and
more workers than topologies are fully used.

Resumable artifact store
------------------------

With ``artifact_dir=`` (or ``resume=``) every completed cell is
streamed — by the parent, the store's single writer — into an
append-only chunked :class:`~repro.scenarios.store.ArtifactStore`.  A
killed sweep resumes by re-opening the store (validated against the
content hash of the suite and the compiled backend),
dropping at most one crash-truncated trailing record, and evaluating
only the missing cells; finalization re-serializes from store records,
so the resumed artifact is byte-identical to an uninterrupted run's.

Cell semantics
--------------

Per cell, per snapshot, per scheme:

* **healthy cells** route through ``engine.route`` — the per-snapshot
  optimal MCF is solved once and shared across schemes;
* **failure cells** degrade the network (:func:`apply_failure`) and
  solve one degraded-network optimum per snapshot, shared by every
  scheme (it is also the ``optimal`` scheme's result: the fair
  post-failure baseline).  Forwarding state is never recomputed, which
  is precisely the semi-oblivious robustness story: system-backed
  schemes re-optimize only the sending rates on their surviving
  candidate paths through :func:`~repro.te.failures.readapt_surviving`,
  the same step :func:`~repro.te.failures.evaluate_failure_event` takes;
  fixed-ratio schemes renormalize each pair's surviving path
  distribution on their compiled operators
  (``routing.evaluator("auto").rebased(event)``, once per failure event,
  no recompilation).  A scheme that loses every candidate path for some
  demanded pair gets infinite congestion and a coverage below 1.  Cells
  whose failure disconnects the network report null congestion and keep
  only coverage, read off the same two sources.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.demands.demand import Demand
from repro.engine.adapters import FixedRatioRouter, OptimalRouter
from repro.engine.engine import RoutingEngine
from repro.engine.router import RouteResult
from repro.graphs.network import Network
from repro.mcf.lp import min_congestion_lp
from repro.obs import JsonlSink, Tracer, active_tracer, install_tracer, merge_trace_parts, trace_span
from repro.te.failures import FailureEvent, apply_failure, readapt_surviving

from repro.scenarios.spec import ScenarioCell, ScenarioSuite
from repro.scenarios.report import SuiteResult

#: SeedSequence stream tags: (suite.seed, _STREAM_*, index) -> generator.
_STREAM_TOPOLOGY = 0
_STREAM_ENGINE = 1
_STREAM_DEMAND = 2
_STREAM_FAILURE = 3


def _derived_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    """The canonical per-(stream, index) generator of a suite."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), stream, index]))


# --------------------------------------------------------------------- #
# Per-scheme evaluation under failure
# --------------------------------------------------------------------- #
def _disconnected_coverage(router: Any, event: FailureEvent, demand: Demand) -> float:
    """Surviving-candidate coverage when the event disconnects the network.

    Congestion is undefined here, but coverage is still derivable from
    the installed forwarding state: the rebased compiled operator for
    fixed-ratio routers, the surviving candidate paths for system-backed
    routers.  The optimal MCF has no installed state, so its coverage is
    NaN.
    """
    if isinstance(router, FixedRatioRouter):
        return router.routing.evaluator("auto").rebased(event).coverage(demand)
    system = getattr(router, "system", None)
    if system is not None:
        return readapt_surviving(system, demand, event, None)[0]
    return float("nan")


def _route_under_failure(
    router: Any,
    label: str,
    demand: Demand,
    degraded: Network,
    optimum: float,
    event: FailureEvent,
) -> Tuple[RouteResult, float]:
    """One scheme's post-failure result: re-adapt rates, never re-install."""
    if isinstance(router, OptimalRouter):
        return (
            RouteResult(scheme=label, congestion=optimum, optimal_congestion=optimum, method="mcf"),
            1.0,
        )
    if isinstance(router, FixedRatioRouter):
        # Renormalize the surviving split ratios on the compiled arrays,
        # memoized per event, so every snapshot of the cell reuses them.
        evaluator = router.routing.evaluator("auto").rebased(event)
        coverage = evaluator.coverage(demand)
        uncovered = bool(demand.pairs()) and coverage < 1.0
        result = RouteResult(
            scheme=label,
            congestion=float("inf") if uncovered else evaluator.congestion(demand),
            optimal_congestion=optimum,
            method="fixed",
        )
        return result, coverage
    system = getattr(router, "system", None)
    if system is None:
        # Custom router without an inspectable path system: we cannot
        # simulate its failure response; report unsupported explicitly.
        result = RouteResult(
            scheme=label,
            congestion=float("nan"),
            optimal_congestion=optimum,
            method="unsupported-under-failure",
        )
        return result, float("nan")
    coverage, congestion = readapt_surviving(system, demand, event, degraded)
    result = RouteResult(
        scheme=label,
        congestion=float("inf") if congestion is None else congestion,
        optimal_congestion=optimum,
        method="lp",
    )
    return result, coverage


# --------------------------------------------------------------------- #
# Cell evaluation
# --------------------------------------------------------------------- #
def _evaluate_cell(
    suite: ScenarioSuite,
    cell: ScenarioCell,
    network: Network,
    engine: RoutingEngine,
) -> Dict[str, Any]:
    with trace_span(
        "sweep.cell",
        cell=cell.index,
        key=f"t{cell.topology_index}.d{cell.demand_index}.f{cell.failure_index}",
    ) as span:
        payload = _evaluate_cell_body(suite, cell, network, engine)
        span.add("rows", len(payload["rows"]))
        return payload


def _evaluate_cell_body(
    suite: ScenarioSuite,
    cell: ScenarioCell,
    network: Network,
    engine: RoutingEngine,
) -> Dict[str, Any]:
    topology_spec = suite.topologies[cell.topology_index]
    demand_spec = suite.demands[cell.demand_index]
    failure_spec = suite.failures[cell.failure_index]

    # Demands are seeded per (topology, demand) pair — NOT per cell — so
    # every failure cell replays exactly the traffic of its healthy
    # baseline and ratio differences along the failure axis measure the
    # failure, not demand resampling.  Failure events are per cell.
    demand_stream = cell.topology_index * len(suite.demands) + cell.demand_index
    series = demand_spec.series(
        network, suite.num_snapshots, _derived_rng(suite.seed, _STREAM_DEMAND, demand_stream)
    )
    event = failure_spec.process().sample(
        network, _derived_rng(suite.seed, _STREAM_FAILURE, cell.index)
    )

    payload: Dict[str, Any] = {
        "cell": cell.index,
        "topology": {"index": cell.topology_index, "spec": topology_spec.describe(),
                     "name": network.name, "n": network.num_vertices, "m": network.num_edges},
        "demand": {"index": cell.demand_index, "spec": demand_spec.describe()},
        "failure": {"index": cell.failure_index, "spec": failure_spec.describe(),
                    "event": event.to_dict()},
        "disconnected": False,
        "rows": [],
    }

    degraded = apply_failure(network, event)
    if degraded is None:
        payload["disconnected"] = True
        for snapshot_index, snapshot in enumerate(series):
            for label in engine.labels():
                coverage = _disconnected_coverage(engine[label], event, snapshot)
                row = RouteResult(scheme=label, congestion=float("nan")).to_dict()
                row.update(snapshot=snapshot_index, coverage=coverage)
                payload["rows"].append(row)
        return payload

    healthy = event.is_null()
    for snapshot_index, snapshot in enumerate(series):
        if snapshot.is_empty():
            continue
        if healthy:
            results = engine.route(snapshot)
            for label in engine.labels():
                row = results[label].to_dict()
                row.update(snapshot=snapshot_index, coverage=1.0)
                payload["rows"].append(row)
        else:
            optimum = min_congestion_lp(degraded, snapshot).congestion
            for label in engine.labels():
                result, coverage = _route_under_failure(
                    engine[label], label, snapshot, degraded, optimum, event,
                )
                row = result.to_dict()
                row.update(snapshot=snapshot_index, coverage=coverage)
                payload["rows"].append(row)
    return payload


# --------------------------------------------------------------------- #
# Engine construction
# --------------------------------------------------------------------- #
def _build_topology_engine(suite: ScenarioSuite, topology_index: int) -> RoutingEngine:
    """One installed engine for a topology.

    Topology construction and scheme installation consume exactly the
    ``(_STREAM_TOPOLOGY, index)`` / ``(_STREAM_ENGINE, index)`` streams,
    so the engine is the same whichever cells it serves.
    """
    topology_spec = suite.topologies[topology_index]
    with trace_span(
        "sweep.install", topology=topology_index, spec=topology_spec.describe()
    ):
        network = topology_spec.build(
            _derived_rng(suite.seed, _STREAM_TOPOLOGY, topology_index)
        )
        engine = RoutingEngine(
            network,
            list(suite.schemes),
            rng=_derived_rng(suite.seed, _STREAM_ENGINE, topology_index),
        )
        engine.install()
    return engine


# --------------------------------------------------------------------- #
# Test hooks (crash/fault injection for the resume harness)
# --------------------------------------------------------------------- #
def _apply_test_hooks(cell_index: int) -> None:
    """Honor the env-var fault-injection hooks of ``tests/test_sweep_resume``.

    ``REPRO_SWEEP_DELAY_MS`` sleeps before evaluating each cell (so a
    kill test reliably lands mid-sweep); ``REPRO_SWEEP_FAIL_CELL``
    raises inside exactly that cell's evaluation.  Both are inert when
    unset and apply inline and in pool workers alike.
    """
    delay = os.environ.get("REPRO_SWEEP_DELAY_MS")
    if delay:
        time.sleep(float(delay) / 1000.0)
    fail = os.environ.get("REPRO_SWEEP_FAIL_CELL")
    if fail not in (None, "") and int(fail) == cell_index:
        raise RuntimeError(
            f"injected failure in cell {cell_index} (REPRO_SWEEP_FAIL_CELL)"
        )


def _run_cell(
    suite: ScenarioSuite, engines: Dict[int, RoutingEngine], cell_index: int
) -> Dict[str, Any]:
    """Evaluate one cell against its topology's installed engine."""
    _apply_test_hooks(cell_index)
    cell = suite.cell(cell_index)
    engine = engines[cell.topology_index]
    return _evaluate_cell(suite, cell, engine.network, engine)


# --------------------------------------------------------------------- #
# Pool workers
# --------------------------------------------------------------------- #
#: Per-process worker state, populated by the pool initializer.
_WORKER: Dict[str, Any] = {}


def _init_worker(suite_payload, engines, trace_dir=None) -> None:
    """Pool initializer: adopt the parent-installed engines.

    ``engines`` arrives through initargs pickling, compiled operators
    included, so workers never reinstall or recompile.  When the parent
    sweep is traced, each worker also installs a tracer streaming to
    ``worker-<pid>.jsonl`` in ``trace_dir`` (flushed per record, so a
    killed worker loses at most its open spans); the parent merges the
    parts after the pool drains (:func:`repro.obs.merge_trace_parts`).
    """
    if trace_dir:
        path = os.path.join(trace_dir, f"worker-{os.getpid()}.jsonl")
        install_tracer(Tracer(sink=JsonlSink(path), role="worker"))
    _WORKER.update(suite=ScenarioSuite.from_dict(suite_payload), engines=engines)


def _cell_task(cell_index: int) -> Tuple[int, Dict[str, Any], int]:
    payload = _run_cell(_WORKER["suite"], _WORKER["engines"], cell_index)
    return cell_index, payload, os.getpid()


# --------------------------------------------------------------------- #
# The sweep entry point
# --------------------------------------------------------------------- #
def _record_completion(store, payloads, index, payload, pid) -> None:
    if store is not None:
        store.record_cell(index, payload, pid=pid)
        # Use the store's normalized copy (the JSON round trip maps
        # tuples to lists, non-finite floats to null) so a streamed run
        # and a resumed run assemble from identical objects.
        payloads[index] = store.payload(index)
    else:
        payloads[index] = payload


def _run_pending_cells(
    suite: ScenarioSuite,
    pending: List[int],
    workers: int,
    store,
    payloads: Dict[int, Dict[str, Any]],
) -> None:
    """Evaluate ``pending`` cells inline (``workers == 1``) or on the pool."""
    if workers == 1:
        engines: Dict[int, RoutingEngine] = {}
        for index in pending:
            topology_index = suite.cell(index).topology_index
            if topology_index not in engines:
                engines[topology_index] = _build_topology_engine(suite, topology_index)
            payload = _run_cell(suite, engines, index)
            _record_completion(store, payloads, index, payload, os.getpid())
        return

    # Pool size is capped only by the amount of pending work — NOT by
    # the number of topologies and not by os.cpu_count()
    # (oversubscription is the caller's call).
    pool_size = min(workers, len(pending))
    topology_indices = sorted({suite.cell(i).topology_index for i in pending})
    engines = {index: _build_topology_engine(suite, index) for index in topology_indices}

    # When the parent is traced, workers stream their spans into
    # pid-named part files (next to the artifact store when one exists)
    # and the parent folds them into its own sink after the pool drains
    # — one coherent trace per sweep, install spans in the parent, cell
    # spans per worker.
    tracer = active_tracer()
    trace_dir: Optional[str] = None
    if tracer is not None:
        if store is not None:
            trace_dir = os.path.join(store.path, "trace-parts")
            os.makedirs(trace_dir, exist_ok=True)
        else:
            import tempfile

            trace_dir = tempfile.mkdtemp(prefix="repro-trace-")
    try:
        with multiprocessing.get_context("spawn").Pool(
            processes=pool_size,
            initializer=_init_worker,
            initargs=(suite.to_dict(), engines, trace_dir),
        ) as pool:
            for index, payload, pid in pool.imap_unordered(_cell_task, pending, chunksize=1):
                _record_completion(store, payloads, index, payload, pid)
    finally:
        if tracer is not None and trace_dir is not None:
            merge_trace_parts(tracer, trace_dir, remove=True)


def run_suite(
    suite: ScenarioSuite,
    workers: int = 1,
    artifact_dir: Optional[str] = None,
    resume: Optional[str] = None,
) -> SuiteResult:
    """Execute every cell of ``suite``; deterministic for any ``workers``.

    The returned :class:`SuiteResult` is identical — bit for bit —
    across worker counts, kills, and resumes.  ``workers == 1`` runs
    inline; ``workers > 1`` installs each topology's engine once in the
    parent and fans the cells out over a spawn pool of that many
    processes (see the module docs).

    Fixed-ratio schemes evaluate through their compiled operators
    (``routing.evaluator("auto")``: scipy CSR); the artifact's
    ``backend`` field records ``"sparse"``.

    ``artifact_dir`` streams completed cells into a resumable
    :class:`~repro.scenarios.store.ArtifactStore` at that path;
    ``resume`` re-opens such a store and evaluates only the cells it
    does not already hold.  Both may name the same directory (the usual
    kill-and-resume flow); pointing them at *different* paths is an
    error.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if resume is not None and artifact_dir is not None:
        if os.path.abspath(resume) != os.path.abspath(artifact_dir):
            raise ValueError(
                "resume and artifact_dir point at different stores; pass one "
                "path (or the same path twice)"
            )
    store_path = resume if resume is not None else artifact_dir

    store = None
    payloads: Dict[int, Dict[str, Any]] = {}
    try:
        if store_path is not None:
            from repro.scenarios.store import ArtifactStore

            store = ArtifactStore.open_or_create(
                store_path, suite.to_dict(), suite.num_cells()
            )
            payloads.update(store.completed_payloads())
        pending = [i for i in range(suite.num_cells()) if i not in payloads]
        if pending:
            with trace_span("sweep.run", suite=suite.name, workers=workers) as run_span:
                run_span.add("cells", len(pending))
                _run_pending_cells(suite, pending, workers, store, payloads)
    finally:
        if store is not None:
            store.close()
    cells = [payloads[index] for index in range(suite.num_cells())]
    return SuiteResult(suite=suite, cells=cells, backend="sparse")


__all__ = ["run_suite"]
