"""Trace analysis: hot-span tables and structural normalization.

:func:`summarize_trace` aggregates span records by name into the table
``repro trace summarize`` prints: call count, cumulative time,
self-time (cumulative minus the time covered by the union of its direct
children's ``[t0, t0 + dur)`` intervals, computed per process via the
``seq``/``parent`` links, so children running at once on several
threads are not subtracted twice), and p50/p95/max durations.  Sorting
by self-time is what makes the table useful for picking
compiled-kernel candidates: a span that is hot only because of its
children sinks to the bottom.

:func:`normalized_tree` reduces a trace to its deterministic skeleton —
names, nesting, attributes and counters, with durations, pids, tids and
sequence numbers stripped — used by the determinism tests to assert
that two seeded runs produce identical span trees.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Tuple


def span_records(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The ``kind="span"`` records of a trace, in emission order."""
    return [record for record in records if record.get("kind") == "span"]


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = (len(sorted_values) - 1) * (q / 100.0)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return sorted_values[low]
    weight = rank - low
    return sorted_values[low] * (1.0 - weight) + sorted_values[high] * weight


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    """Total length covered by half-open ``(start, stop)`` intervals."""
    covered, reached = 0.0, -math.inf
    for start, stop in sorted(intervals):
        if stop > reached:
            covered += stop - max(start, reached)
            reached = stop
    return covered


def summarize_trace(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Aggregate spans by name; rows sorted by self-time, descending.

    Each row has ``name``, ``count``, ``total_s``, ``self_s``,
    ``p50_s``, ``p95_s`` and ``max_s``.
    """
    spans = span_records(records)
    # Direct children's intervals, keyed like spans by (pid, seq).
    child_intervals: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
    for record in spans:
        parent = record.get("parent")
        if parent is None:
            continue
        key = (int(record.get("pid", 0)), int(parent))
        t0 = float(record.get("t0", 0.0))
        child_intervals.setdefault(key, []).append((t0, t0 + float(record.get("dur", 0.0))))
    child_time = {key: _union_length(intervals) for key, intervals in child_intervals.items()}

    by_name: Dict[str, Dict[str, Any]] = {}
    for record in spans:
        name = str(record.get("name", "?"))
        dur = float(record.get("dur", 0.0))
        key = (int(record.get("pid", 0)), int(record.get("seq", -1)))
        self_time = max(0.0, dur - child_time.get(key, 0.0))
        row = by_name.setdefault(
            name, {"name": name, "count": 0, "total_s": 0.0, "self_s": 0.0, "durs": []}
        )
        row["count"] += 1
        row["total_s"] += dur
        row["self_s"] += self_time
        row["durs"].append(dur)

    rows: List[Dict[str, Any]] = []
    for row in by_name.values():
        durs = sorted(row.pop("durs"))
        row["p50_s"] = _percentile(durs, 50.0)
        row["p95_s"] = _percentile(durs, 95.0)
        row["max_s"] = durs[-1] if durs else 0.0
        rows.append(row)
    rows.sort(key=lambda row: (-row["self_s"], row["name"]))
    return rows


def render_summary(rows: List[Dict[str, Any]], limit: int = 30) -> str:
    """Fixed-width hot-span table for terminal output."""
    shown = rows[:limit] if limit else rows
    name_width = max([len(row["name"]) for row in shown] + [len("span")])
    header = (
        f"{'span':<{name_width}}  {'count':>7}  {'self_s':>10}  "
        f"{'total_s':>10}  {'p50_ms':>9}  {'p95_ms':>9}"
    )
    lines = [header, "-" * len(header)]
    for row in shown:
        lines.append(
            f"{row['name']:<{name_width}}  {row['count']:>7}  {row['self_s']:>10.4f}  "
            f"{row['total_s']:>10.4f}  {row['p50_s'] * 1e3:>9.3f}  {row['p95_s'] * 1e3:>9.3f}"
        )
    if limit and len(rows) > limit:
        lines.append(f"... ({len(rows) - limit} more span name(s))")
    return "\n".join(lines)


def _freeze(value: Any) -> Any:
    if isinstance(value, dict):
        return tuple(sorted((str(k), _freeze(v)) for k, v in value.items()))
    if isinstance(value, list):
        return tuple(_freeze(item) for item in value)
    return value


def normalized_tree(records: List[Dict[str, Any]]) -> Tuple[Any, ...]:
    """Deterministic skeleton of a trace, comparable across runs.

    Spans reduce to ``(name, attrs, counters, children)`` with children
    normalized recursively; durations, pids, tids, sequence numbers and
    memory samples are dropped.  Roots from all processes are pooled
    and the whole forest is sorted, so the result is invariant to
    worker scheduling and pid assignment — exactly the contract the
    trace-determinism tests assert.
    """
    spans = span_records(records)
    children: Dict[Tuple[int, Any], List[Dict[str, Any]]] = {}
    for record in spans:
        key = (int(record.get("pid", 0)), record.get("parent"))
        children.setdefault(key, []).append(record)

    def normalize(record: Dict[str, Any]) -> Tuple[Any, ...]:
        pid = int(record.get("pid", 0))
        kids = children.get((pid, record.get("seq")), [])
        return (
            str(record.get("name", "?")),
            _freeze(record.get("attrs") or {}),
            _freeze(record.get("counters") or {}),
            tuple(sorted(normalize(kid) for kid in kids)),
        )

    roots: List[Tuple[Any, ...]] = []
    for record in spans:
        if record.get("parent") is None:
            roots.append(normalize(record))
    return tuple(sorted(roots))


__all__ = ["normalized_tree", "render_summary", "span_records", "summarize_trace"]
