"""Scenario artifacts: the JSON result of a suite run and its table views.

A :class:`SuiteResult` bundles the suite manifest with the per-cell rows
the runner produced.  ``SuiteResult.from_dict(json.loads(result.to_json()))``
rebuilds an equivalent result, and :meth:`SuiteResult.to_experiment_result`
hands the rows to the experiment harness's :class:`Table` layer so
scenario sweeps render exactly like the E1–E12 experiments (and land in
the same paper-vs-measured workflow EXPERIMENTS.md records).

One serialization caveat, inherited from strict JSON: non-finite floats
become ``null`` in the artifact (``worst_ratio = inf`` reads back as
``None``).  The boolean ``covered`` column therefore carries the "a
demanded pair lost every candidate path" signal losslessly: a row with
``covered = false`` had at least one snapshot with infinite congestion
(or a disconnected network), regardless of how its ratios serialized.

Aggregation conventions: per (cell, scheme) the summary keeps the mean
ratio over snapshots (infinite ratios excluded), the worst ratio, the
minimum coverage, and ``covered``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.utils.serialization import dumps as _json_dumps

from repro.scenarios.spec import ScenarioSuite

#: Artifact schema version, bumped on any incompatible layout change.
ARTIFACT_VERSION = 1


@dataclass
class SuiteResult:
    """Outcome of one scenario-suite run: manifest plus per-cell rows.

    ``backend`` records the compiled backend that produced the rows
    (``sparse``; artifacts of the former dense numpy backend say
    ``dense`` and agree within 1e-9 but differ in float summation
    order), so an artifact is attributable even when two runs of the
    same manifest are byte-different.
    """

    suite: ScenarioSuite
    cells: List[Dict[str, Any]] = field(default_factory=list)
    backend: str = "dict"

    # ------------------------------------------------------------------ #
    # Serialization (the JSON artifact)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        return {
            "artifact": "scenario-suite",
            "version": ARTIFACT_VERSION,
            "backend": self.backend,
            "suite": self.suite.to_dict(),
            "cells": [dict(cell) for cell in self.cells],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Strict-JSON artifact (NaN/inf map to null)."""
        return _json_dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SuiteResult":
        return cls(
            suite=ScenarioSuite.from_dict(payload.get("suite", {})),
            cells=[dict(cell) for cell in payload.get("cells", ())],
            backend=str(payload.get("backend", "dict")),
        )

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def summary_rows(self) -> List[Dict[str, Any]]:
        """One row per (cell, scheme): the grid view of the sweep."""
        rows: List[Dict[str, Any]] = []
        for cell in self.cells:
            per_scheme: Dict[str, Dict[str, Any]] = {}
            for row in cell.get("rows", ()):
                bucket = per_scheme.setdefault(
                    row["scheme"], {"ratios": [], "coverages": [], "snapshots": 0}
                )
                bucket["snapshots"] += 1
                ratio = row.get("ratio")
                if ratio is not None:
                    bucket["ratios"].append(float(ratio))
                coverage = row.get("coverage")
                if coverage is not None and not _is_nan(coverage):
                    bucket["coverages"].append(float(coverage))
            for scheme, bucket in per_scheme.items():
                finite = [r for r in bucket["ratios"] if math.isfinite(r)]
                worst = max(bucket["ratios"], default=None)
                disconnected = bool(cell.get("disconnected", False))
                min_coverage = min(bucket["coverages"], default=None)
                covered = (
                    not disconnected
                    and min_coverage is not None
                    and min_coverage >= 1.0 - 1e-12
                )
                rows.append(
                    {
                        "cell": cell["cell"],
                        "topology": cell["topology"]["spec"],
                        "demand": cell["demand"]["spec"],
                        "failure": cell["failure"]["spec"],
                        "scheme": scheme,
                        "snapshots": bucket["snapshots"],
                        "mean_ratio": sum(finite) / len(finite) if finite else None,
                        "worst_ratio": worst,
                        "min_coverage": min_coverage,
                        "covered": covered,
                        "disconnected": disconnected,
                    }
                )
        return rows

    def scheme_summary(self) -> List[Dict[str, Any]]:
        """One row per scheme aggregated over the whole grid."""
        grid_rows = self.summary_rows()
        buckets: Dict[str, Dict[str, List[float]]] = {}
        order: List[str] = []
        for row in grid_rows:
            scheme = row["scheme"]
            if scheme not in buckets:
                buckets[scheme] = {"ratios": [], "coverages": [], "cells": []}
                order.append(scheme)
            buckets[scheme]["cells"].append(row["cell"])
            if row["mean_ratio"] is not None:
                buckets[scheme]["ratios"].append(row["mean_ratio"])
            if row["min_coverage"] is not None:
                buckets[scheme]["coverages"].append(row["min_coverage"])
        summary = []
        for scheme in order:
            ratios = buckets[scheme]["ratios"]
            coverages = buckets[scheme]["coverages"]
            summary.append(
                {
                    "scheme": scheme,
                    "cells": len(buckets[scheme]["cells"]),
                    "mean_ratio": sum(ratios) / len(ratios) if ratios else None,
                    "worst_mean_ratio": max(ratios, default=None),
                    "min_coverage": min(coverages, default=None),
                }
            )
        return summary

    # ------------------------------------------------------------------ #
    # Harness bridge
    # ------------------------------------------------------------------ #
    def to_experiment_result(self):
        """Render through the experiment harness (tables + notes)."""
        from repro.experiments.harness import experiment_result_from_scenario

        return experiment_result_from_scenario(self.to_dict())

    def render(self) -> str:
        """Plain-text table rendering via the harness ``Table`` layer."""
        return self.to_experiment_result().render()

    def __repr__(self) -> str:
        return f"SuiteResult(suite={self.suite.name!r}, cells={len(self.cells)})"


def _is_nan(value: Any) -> bool:
    return isinstance(value, float) and math.isnan(value)


__all__ = ["SuiteResult", "ARTIFACT_VERSION"]
