"""Pair-dimension tiling plans for memory-bounded batched evaluation.

A 10k-node network has ~10^8 ordered pairs; even a demanded-pairs-only
compile can put tens of thousands of rows into the pair × edge operator,
all of them built before the first demand is evaluated.  Tiling blocks
the *pair* dimension instead: the batched product ``loads = batch @ M`` distributes over a row partition of ``M``::

    loads = sum over tiles t of  batch[:, t] @ M[t, :]

so evaluation only ever holds one operator tile (plus the (batch × edge)
accumulator, which is independent of the pair count) and streams the sum
across tiles; the final congestion max over edges is unchanged.  The
result differs from the untiled product only in float summation order
(≤ 1e-9, enforced by ``tests/test_linalg_tiled.py``).

This module is pure planning — :class:`TilePlan` decides the tile width
from an explicit ``tile_pairs`` or a ``memory_budget_mb`` working-set
budget; :mod:`repro.linalg.compiled` owns the actual tile construction
and streamed reductions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from repro.exceptions import LinalgError

#: Fraction of the memory budget the planner hands to the dominant
#: per-tile allocation (the operator tile).  The remainder absorbs the
#: unavoidable overlap of consecutive tiles (the next tile is built
#: before the previous one is released) plus small per-tile temporaries.
_BUDGET_SAFETY = 0.5

_BYTES_PER_FLOAT = 8

#: Rough bytes per stored sparse entry: float64 data + int32 indices +
#: CSR build temporaries (COO copy during construction).
_BYTES_PER_SPARSE_NNZ = 32


@dataclass(frozen=True)
class TilePlan:
    """A fixed partition of ``num_pairs`` rows into ``tile_pairs`` blocks."""

    num_pairs: int
    tile_pairs: int

    def __post_init__(self) -> None:
        if self.num_pairs < 0:
            raise LinalgError(f"num_pairs must be >= 0, got {self.num_pairs}")
        if self.tile_pairs < 1:
            raise LinalgError(f"tile_pairs must be >= 1, got {self.tile_pairs}")

    @property
    def num_tiles(self) -> int:
        if self.num_pairs == 0:
            return 0
        return -(-self.num_pairs // self.tile_pairs)

    @property
    def is_single_tile(self) -> bool:
        """True when the plan degenerates to the untiled evaluation."""
        return self.num_tiles <= 1

    def tiles(self) -> Iterator[Tuple[int, int]]:
        """Yield half-open ``(start, stop)`` pair-row ranges in order."""
        for start in range(0, self.num_pairs, self.tile_pairs):
            yield start, min(start + self.tile_pairs, self.num_pairs)


def plan_pair_tiles(
    num_pairs: int,
    num_edges: int,
    *,
    batch_rows: int = 1,
    tile_pairs: Optional[int] = None,
    memory_budget_mb: Optional[float] = None,
    nnz_per_pair: Optional[float] = None,
) -> TilePlan:
    """Plan a pair-dimension tiling for one batched evaluation.

    ``tile_pairs`` pins the tile width directly; ``memory_budget_mb``
    derives it from the per-tile working set instead (an explicit
    ``tile_pairs`` wins when both are given).  With neither knob the
    plan is a single tile covering every pair — the untiled fast path.

    The budget model charges, per pair row of a tile, ``nnz_per_pair``
    stored entries (data + indices + CSR build temporaries; ``num_edges``
    when unknown) plus one batch column (``batch_rows`` floats).

    Only :data:`_BUDGET_SAFETY` of the budget is spent on that per-row
    cost; the rest covers tile-to-tile overlap and temporaries.  A fixed
    part does not shrink with the tile width and is *not* charged, so a
    budget below it is exceeded; callers must budget above it:

    * the (batch × edge) load accumulator, ``batch_rows * num_edges``
      floats;
    * the compile's pair-proportional structures (the pair index and
      the per-path arrays of :meth:`CompiledRouting.from_routing
      <repro.linalg.compiled.CompiledRouting.from_routing>`), which
      scale with the routing's pair and path counts;
    * the demand vectorization: the (batch × pair) demand matrix and
      the lists it is built from scale with the demanded pairs.

    Raises :class:`LinalgError` on non-positive knobs.
    """
    if tile_pairs is not None and tile_pairs < 1:
        raise LinalgError(f"tile_pairs must be >= 1, got {tile_pairs}")
    if memory_budget_mb is not None and memory_budget_mb <= 0:
        raise LinalgError(f"memory_budget_mb must be > 0, got {memory_budget_mb}")
    if num_pairs <= 0:
        return TilePlan(num_pairs=max(num_pairs, 0), tile_pairs=1)
    if tile_pairs is not None:
        return TilePlan(num_pairs=num_pairs, tile_pairs=min(tile_pairs, num_pairs))
    if memory_budget_mb is None:
        return TilePlan(num_pairs=num_pairs, tile_pairs=num_pairs)

    per_entry = nnz_per_pair if nnz_per_pair is not None else float(num_edges)
    per_pair_bytes = per_entry * _BYTES_PER_SPARSE_NNZ + batch_rows * _BYTES_PER_FLOAT
    per_pair_bytes = max(per_pair_bytes, 1.0)
    usable = memory_budget_mb * 1024.0 * 1024.0 * _BUDGET_SAFETY
    width = int(usable / per_pair_bytes)
    return TilePlan(num_pairs=num_pairs, tile_pairs=max(1, min(width, num_pairs)))


__all__ = ["TilePlan", "plan_pair_tiles"]
