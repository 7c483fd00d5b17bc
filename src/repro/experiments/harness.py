"""Declarative experiment harness.

Every experiment produces an :class:`ExperimentResult`: a set of named
tables (rows of dictionaries) plus free-form notes.  The harness renders
them in the same layout that EXPERIMENTS.md records so paper-vs-measured
comparisons are mechanical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.utils.serialization import dumps as _json_dumps
from repro.utils.tables import Table


@dataclass
class ExperimentConfig:
    """Knobs shared by all experiments.

    Attributes
    ----------
    seed:
        Master random seed (every experiment derives its randomness from it).
    scale:
        ``"small"`` (fast, used by the headline-shape tests), ``"paper"``
        (the sizes recorded in EXPERIMENTS.md), or ``"smoke"`` (tiny,
        used by the test suite).
    overrides:
        Free-form per-experiment parameter overrides.
    """

    seed: int = 0
    scale: str = "small"
    overrides: Dict[str, Any] = field(default_factory=dict)

    def param(self, name: str, defaults: Dict[str, Any]) -> Any:
        """Look up ``name`` in overrides, else in ``defaults[scale]``."""
        if name in self.overrides:
            return self.overrides[name]
        scale_defaults = defaults.get(self.scale, defaults.get("small", {}))
        if name not in scale_defaults:
            raise KeyError(f"experiment parameter {name!r} missing for scale {self.scale!r}")
        return scale_defaults[name]


@dataclass
class ExperimentResult:
    """Output of one experiment: named row-tables plus notes."""

    experiment_id: str
    tables: Dict[str, List[Dict[str, Any]]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    config: Optional[ExperimentConfig] = None

    def add_row(self, table: str, **row: Any) -> None:
        self.tables.setdefault(table, []).append(row)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def table_columns(self, table: str) -> List[str]:
        rows = self.tables.get(table, [])
        columns: List[str] = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        return columns

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form: id, tables, notes, and the config used."""
        payload: Dict[str, Any] = {
            "experiment_id": self.experiment_id,
            "tables": {name: [dict(row) for row in rows] for name, rows in self.tables.items()},
            "notes": list(self.notes),
        }
        if self.config is not None:
            payload["config"] = {
                "seed": self.config.seed,
                "scale": self.config.scale,
                "overrides": dict(self.config.overrides),
            }
        return payload

    def to_json(self, indent: Optional[int] = 2) -> str:
        """JSON rendering (non-finite floats become null per strict JSON)."""
        return _json_dumps(self.to_dict(), indent=indent)

    def render(self) -> str:
        """Render every table and note as plain text."""
        blocks: List[str] = [f"== {self.experiment_id} =="]
        for name, rows in self.tables.items():
            columns = self.table_columns(name)
            table = Table(headers=columns, title=f"-- {name} --")
            for row in rows:
                table.add_row(*[row.get(column, "-") for column in columns])
            blocks.append(table.render())
        if self.notes:
            blocks.append("Notes:")
            blocks.extend(f"  * {note}" for note in self.notes)
        return "\n\n".join(blocks)

    def __str__(self) -> str:
        return self.render()


def experiment_result_from_scenario(payload: Dict[str, Any]) -> ExperimentResult:
    """Ingest a scenario-sweep JSON artifact as an :class:`ExperimentResult`.

    ``payload`` is the dict form of a scenario artifact (what
    ``SuiteResult.to_dict()`` emits / ``json.loads`` of the CLI output).
    The per-cell grid and the per-scheme aggregate land in two tables
    (``scenario_grid`` and ``scenario_schemes``) so sweeps render and
    serialize exactly like the E1–E12 experiments.
    """
    from repro.scenarios.report import SuiteResult

    suite_result = SuiteResult.from_dict(payload)
    suite = suite_result.suite
    result = ExperimentResult(experiment_id=f"scenarios:{suite.name}")
    for row in suite_result.summary_rows():
        result.add_row("scenario_grid", **row)
    for row in suite_result.scheme_summary():
        result.add_row("scenario_schemes", **row)
    disconnected = sum(1 for cell in suite_result.cells if cell.get("disconnected"))
    result.add_note(
        f"suite {suite.name!r}: {suite.num_cells()} cells "
        f"({len(suite.topologies)} topologies x {len(suite.demands)} demands x "
        f"{len(suite.failures)} failures), {suite.num_snapshots} snapshot(s) per cell, "
        f"seed={suite.seed}"
    )
    if disconnected:
        result.add_note(
            f"{disconnected} cell(s) disconnected the network; their congestion is null "
            "and only coverage is meaningful"
        )
    return result


def run_experiment(
    runner: Callable[[ExperimentConfig], ExperimentResult],
    config: Optional[ExperimentConfig] = None,
    print_result: bool = False,
) -> ExperimentResult:
    """Run ``runner`` with ``config`` (default config when omitted)."""
    config = config or ExperimentConfig()
    result = runner(config)
    result.config = config
    if print_result:
        print(result.render())
    return result


__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "experiment_result_from_scenario",
]
