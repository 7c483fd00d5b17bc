"""ASCII table formatting used by the experiment harness.

The experiment harness prints the same rows/series that EXPERIMENTS.md
records, so the formatting lives in one small module that both the
experiments and the example scripts share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence


def format_float(value: float, precision: int = 3) -> str:
    """Format a float compactly: integers without decimals, others rounded."""
    if value is None:
        return "-"
    if isinstance(value, str):
        return value
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)  # "inf", "-inf", "nan"
    if abs(value - round(value)) < 1e-9 and abs(value) < 1e12:
        return str(int(round(value)))
    if abs(value) >= 1000 or (abs(value) < 0.01 and value != 0):
        return f"{value:.{precision}e}"
    return f"{value:.{precision}f}"


def format_series(values: Iterable[float], precision: int = 3) -> str:
    """Format a numeric series as a comma-separated string."""
    return ", ".join(format_float(v, precision) for v in values)


@dataclass
class Table:
    """A simple column-aligned ASCII table.

    Parameters
    ----------
    headers:
        Column names.
    title:
        Optional title printed above the table.
    """

    headers: Sequence[str]
    title: str = ""
    rows: List[List[str]] = field(default_factory=list)

    def add_row(self, *values) -> None:
        """Append a row; numeric values are formatted with :func:`format_float`."""
        if len(values) != len(self.headers):
            raise ValueError(
                f"expected {len(self.headers)} values, got {len(values)}"
            )
        formatted = []
        for value in values:
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                formatted.append(format_float(value))
            else:
                formatted.append(str(value))
        self.rows.append(formatted)

    def render(self) -> str:
        """Render the table as a string."""
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = []
        if self.title:
            lines.append(self.title)
        header_line = " | ".join(h.ljust(widths[i]) for i, h in enumerate(self.headers))
        lines.append(header_line)
        lines.append("-+-".join("-" * w for w in widths))
        for row in self.rows:
            lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


__all__ = ["Table", "format_float", "format_series"]
