"""MinMax (zone map) indices.

Vectorwise "automatically creates MinMax indices on each table" [8]; the
paper leans on them for *correlated* pushdown: because BDCC's LINEITEM is
clustered on order date, ``l_shipdate`` selections prune page ranges even
though shipdate is not itself a dimension (Q6, Q12, Q20).  The same index
exists under all three schemes — it only becomes selective when the
storage order creates value locality, which is precisely the effect the
paper exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.selection import Selection

__all__ = ["MinMaxIndex"]


@dataclass
class MinMaxIndex:
    """Per-block minima and maxima of one stored column."""

    block_rows: int
    mins: np.ndarray
    maxs: np.ndarray

    @classmethod
    def build(cls, values: np.ndarray, block_rows: int) -> "MinMaxIndex":
        if block_rows <= 0:
            raise ValueError("block_rows must be positive")
        starts = np.arange(0, len(values), block_rows)
        mins = np.minimum.reduceat(values, starts)
        maxs = np.maximum.reduceat(values, starts)
        return cls(block_rows=block_rows, mins=mins, maxs=maxs)

    @property
    def num_blocks(self) -> int:
        return len(self.mins)

    def blocks_overlapping(self, low, high) -> np.ndarray:
        """Boolean per block: may the block contain a value in
        ``[low, high]``?  ``None`` bounds are open."""
        keep = np.ones(self.num_blocks, dtype=bool)
        if low is not None:
            keep &= self.maxs >= low
        if high is not None:
            keep &= self.mins <= high
        return keep

    def select(self, low, high, num_rows: int) -> Selection:
        """The rows of the indexed column (``num_rows`` long) whose block
        may contain a value in ``[low, high]``: the verdicts of
        :meth:`blocks_overlapping` as a run list."""
        return Selection.from_blocks(self.blocks_overlapping(low, high), self.block_rows, num_rows)
