"""Shared utilities: reproducible randomness, the spec grammar, tables, and timing helpers."""

from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.tables import Table, format_float, format_series
from repro.utils.timing import Stopwatch

__all__ = [
    "ensure_rng",
    "spawn_rngs",
    "Table",
    "format_float",
    "format_series",
    "Stopwatch",
]
