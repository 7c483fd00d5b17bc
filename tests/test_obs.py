"""Tests for the observability layer (``repro.obs``).

Covers the tracer core (no-op path, nesting, counters, memory spans),
the sinks (JSONL round trip, crash-truncation tolerance, part-file
merging), the analyzers (summary self-time, Chrome export), and the
layer's central contract: seeded runs produce bit-identical span trees
— including across the sweep's spawn pool.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.exceptions import ObsError
from repro.obs import (
    NO_OP_SPAN,
    JsonlSink,
    RecordingSink,
    Tracer,
    active_tracer,
    add_counter,
    chrome_trace_events,
    export_chrome_trace,
    install_tracer,
    load_trace,
    merge_trace_parts,
    normalized_tree,
    render_summary,
    span_records,
    summarize_trace,
    trace_span,
    tracing_enabled,
    uninstall_tracer,
)


@pytest.fixture(autouse=True)
def no_leaked_tracer():
    """Every test starts and ends with tracing disabled."""
    uninstall_tracer()
    yield
    uninstall_tracer()


def _recording_tracer(**kwargs) -> Tracer:
    return install_tracer(Tracer(sink=RecordingSink(), **kwargs))


# ---------------------------------------------------------------------------
# tracer core


def test_disabled_path_returns_shared_noop_span():
    assert not tracing_enabled()
    span = trace_span("anything", attr=1)
    assert span is NO_OP_SPAN
    with span as inner:
        assert inner.add("k").set("a", 2) is inner
    assert not span.recording


def test_span_nesting_counters_and_attrs():
    tracer = _recording_tracer()
    with trace_span("outer", kind="test") as outer:
        outer.add("items", 2)
        with trace_span("inner") as inner:
            inner.add("items", 1)
            add_counter("items", 4)  # innermost open span == inner
    spans = span_records(tracer.records)
    assert [s["name"] for s in spans] == ["inner", "outer"]  # emitted on close
    inner_rec, outer_rec = spans
    assert outer_rec["parent"] is None and outer_rec["depth"] == 0
    assert inner_rec["parent"] == outer_rec["seq"] and inner_rec["depth"] == 1
    assert outer_rec["attrs"] == {"kind": "test"}
    assert outer_rec["counters"] == {"items": 2}
    assert inner_rec["counters"] == {"items": 5}
    assert inner_rec["dur"] <= outer_rec["dur"]
    assert inner_rec["t0"] >= outer_rec["t0"]


def test_double_install_raises():
    _recording_tracer()
    with pytest.raises(ObsError):
        install_tracer(Tracer(sink=RecordingSink()))


def test_uninstall_returns_tracer_and_disables():
    tracer = _recording_tracer()
    assert active_tracer() is tracer
    assert uninstall_tracer() is tracer
    assert active_tracer() is None
    assert uninstall_tracer() is None


def test_exception_marks_span_and_propagates():
    tracer = _recording_tracer()
    with pytest.raises(ValueError):
        with trace_span("failing"):
            raise ValueError("boom")
    (record,) = span_records(tracer.records)
    assert record["attrs"]["error"] == "ValueError"


def test_memory_span_samples_peak():
    tracer = _recording_tracer(memory=True)
    with trace_span("alloc", memory=True):
        blob = list(range(100_000))
    del blob
    (record,) = span_records(tracer.records)
    assert record["mem_peak_kb"] > 100.0
    uninstall_tracer()
    tracer.close()  # stops tracemalloc it started


def test_process_record_emitted_at_construction():
    tracer = Tracer(sink=RecordingSink(), role="worker")
    (record,) = tracer.records
    assert record["kind"] == "process"
    assert record["role"] == "worker"
    assert record["pid"] == tracer.pid


# ---------------------------------------------------------------------------
# sinks


def test_jsonl_roundtrip(tmp_path):
    path = tmp_path / "trace.jsonl"
    tracer = install_tracer(Tracer(sink=JsonlSink(str(path))))
    with trace_span("a", x=1):
        with trace_span("b"):
            pass
    uninstall_tracer()
    tracer.close()
    records = load_trace(str(path))
    assert [r["kind"] for r in records] == ["process", "span", "span"]
    assert normalized_tree(records) == (("a", (("x", 1),), (), (("b", (), (), ()),)),)


def test_load_trace_tolerates_truncated_final_line(tmp_path):
    path = tmp_path / "trace.jsonl"
    good = json.dumps({"kind": "span", "name": "a", "seq": 0, "parent": None})
    path.write_text(good + "\n" + good[: len(good) // 2])
    records = load_trace(str(path))
    assert len(records) == 1  # the torn tail of a killed run is dropped


def test_load_trace_rejects_malformed_interior_line(tmp_path):
    path = tmp_path / "trace.jsonl"
    good = json.dumps({"kind": "span", "name": "a", "seq": 0, "parent": None})
    path.write_text("not json\n" + good + "\n")
    with pytest.raises(ObsError):
        load_trace(str(path))


def test_merge_trace_parts(tmp_path):
    part_dir = tmp_path / "parts"
    part_dir.mkdir()
    for pid in (111, 222):
        record = {"kind": "span", "name": "w", "pid": pid, "seq": 0, "parent": None}
        (part_dir / f"worker-{pid}.jsonl").write_text(json.dumps(record) + "\n")
    tracer = Tracer(sink=RecordingSink())
    merged = merge_trace_parts(tracer, str(part_dir), remove=True)
    assert merged == 2
    assert sorted(r["pid"] for r in span_records(tracer.records)) == [111, 222]
    assert not part_dir.exists()  # parts consumed
    assert merge_trace_parts(tracer, str(part_dir)) == 0  # missing dir is a no-op


# ---------------------------------------------------------------------------
# analyzers


def _small_trace():
    tracer = _recording_tracer()
    for _ in range(3):
        with trace_span("outer"):
            with trace_span("inner", leg=1):
                pass
    records = list(tracer.records)
    uninstall_tracer()
    return records


def test_summary_self_time_and_render():
    records = _small_trace()
    rows = summarize_trace(records)
    by_name = {row["name"]: row for row in rows}
    assert by_name["outer"]["count"] == 3
    # outer's self-time excludes inner's cumulative time
    inner_total = by_name["inner"]["total_s"]
    assert by_name["outer"]["self_s"] == pytest.approx(
        by_name["outer"]["total_s"] - inner_total, abs=1e-9
    )
    table = render_summary(rows, limit=1)
    assert "span" in table and "self_s" in table
    assert "1 more span name(s)" in table


def test_chrome_export_structure():
    records = _small_trace()
    payload = export_chrome_trace(records)
    json.dumps(payload)  # must be valid JSON
    events = payload["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    complete = [e for e in events if e["ph"] == "X"]
    assert len(meta) == 1 and meta[0]["name"] == "process_name"
    assert len(complete) == 6
    for event in complete:
        assert event["ts"] >= 0.0 and event["dur"] >= 0.0
        assert event["pid"] == records[0]["pid"]
    chrome_names = {e["name"] for e in complete}
    assert chrome_names == {"outer", "inner"}
    assert chrome_trace_events(records) == events


# ---------------------------------------------------------------------------
# trace-structure determinism on real workloads


def _engine_trace(backend: str):
    from repro.demands.traffic_matrix import diurnal_gravity_series
    from repro.engine import RoutingEngine
    from repro.graphs import topologies

    network = topologies.hypercube(3)
    tracer = _recording_tracer()
    engine = RoutingEngine(network, ["spf", "ksp(k=2)"], rng=0)
    series = diurnal_gravity_series(network, num_snapshots=2, rng=1)
    engine.evaluate_matrix_series(series)
    # Replay the installed fixed-ratio routing through the named evaluator.
    engine["spf"].routing.evaluator(backend).congestions(list(series))
    records = list(tracer.records)
    uninstall_tracer()
    return normalized_tree(records)


@pytest.mark.parametrize("backend", ["dict", "auto"])
def test_engine_trace_is_deterministic(backend):
    first = _engine_trace(backend)
    assert first  # the engine hot paths actually emit spans
    assert first == _engine_trace(backend)


def test_pickled_installed_engine_routes_without_recompiling():
    """A pool worker's engine arrives compiled: routing it emits no ``linalg.compile``."""
    import pickle

    from repro.demands.traffic_matrix import diurnal_gravity_series
    from repro.engine import RoutingEngine
    from repro.graphs import topologies

    network = topologies.hypercube(3)
    engine = RoutingEngine(network, ["oblivious(racke)", "spf"], rng=0)
    engine.install()
    demand = diurnal_gravity_series(network, num_snapshots=1, rng=1)[0]
    expected = engine["spf"].route(demand).congestion
    shipped = pickle.loads(pickle.dumps(engine))

    tracer = _recording_tracer()
    congestions = [shipped[label].route(demand).congestion for label in ("oblivious", "spf")]
    names = {record["name"] for record in span_records(tracer.records)}
    uninstall_tracer()
    assert "linalg.compile" not in names
    assert congestions[1] == expected


def _sweep_trace(workers: int):
    from repro.scenarios import get_suite, run_suite

    suite = get_suite("smoke")
    tracer = _recording_tracer()
    run_suite(suite, workers=workers)
    records = list(tracer.records)
    uninstall_tracer()
    return records


def test_inline_sweep_trace_is_deterministic():
    from repro.scenarios import get_suite, run_suite

    trees = []
    for _ in range(2):
        tracer = _recording_tracer()
        run_suite(get_suite("smoke"), workers=1)
        trees.append(normalized_tree(tracer.records))
        uninstall_tracer()
    assert trees[0] == trees[1]


def test_pool_sweep_merges_one_span_per_cell():
    """4 pool workers: one coherent merged trace."""
    if multiprocessing.cpu_count() < 1:  # pragma: no cover
        pytest.skip("no cpus")
    records = _sweep_trace(workers=4)
    spans = span_records(records)
    processes = [r for r in records if r.get("kind") == "process"]
    parent_pid = next(r["pid"] for r in processes if r["role"] == "main")

    cells = sorted(s["attrs"]["cell"] for s in spans if s["name"] == "sweep.cell")
    from repro.scenarios import get_suite

    assert cells == list(range(get_suite("smoke").num_cells()))  # each exactly once
    keys = {s["attrs"]["key"] for s in spans if s["name"] == "sweep.cell"}
    assert len(keys) == len(cells)

    installs = [s for s in spans if s["name"] == "sweep.install"]
    assert installs and all(s["pid"] == parent_pid for s in installs)
    worker_pids = {s["pid"] for s in spans if s["name"] == "sweep.cell"}
    assert all(pid != parent_pid for pid in worker_pids)
    # every worker that traced spans also announced itself
    assert worker_pids <= {p["pid"] for p in processes}

    # and the merged multiprocess trace is structurally deterministic
    again = _sweep_trace(workers=4)
    assert normalized_tree(records) == normalized_tree(again)


# ---------------------------------------------------------------------------
# shared timing primitive


def test_timing_entry_schema():
    from repro.utils.timing import timing_entry

    entry = timing_entry(2.0, count=10, rate_key="demands_per_sec", extra=1)
    assert entry == {"seconds": 2.0, "demands_per_sec": 5.0, "extra": 1}
    assert timing_entry(0.0, count=10, rate_key="x") == {"seconds": 0.0, "x": None}
    with pytest.raises(ValueError):
        timing_entry(1.0, count=10)


def test_bench_obs_payload_smoke():
    from repro import bench

    payload = bench.run("obs", scale="smoke", seed=0)
    assert payload["name"] == "obs"
    assert set(payload["backends"]) == {"baseline", "disabled", "enabled"}
    for entry in payload["backends"].values():
        assert entry["seconds"] > 0
    assert "overhead_disabled_pct" in payload
    assert "overhead_enabled_pct" in payload
    assert payload["sweep"]["num_spans"] > 0
    assert not tracing_enabled()  # bench cleans up after itself
