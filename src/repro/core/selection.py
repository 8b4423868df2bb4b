"""A scan's selection: the stored rows it reads, as a list of row runs.

A BDCC scan selects ``T_COUNT`` entries, each an ``(offset, count)``
range of key-sorted storage (the paper's §II); zone maps keep page
ranges and deletes cut ranges into more ranges.  :class:`Selection` is
that run list, carried unchanged from lowering to IO, materialisation,
group columns and fragment cuts; rows are expanded (:func:`expand_runs`)
only to gather through more than one run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

import numpy as np

__all__ = ["Selection", "expand_runs"]

_INT64 = np.iinfo(np.int64)


def expand_runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``(start, length)`` runs -> the ``int64`` row indices they cover,
    run after run, in a constant number of numpy calls.

    Position ``p`` of run ``i`` is ``starts[i] + (p - first[i])`` where
    ``first[i]`` is the output index at which run ``i`` begins; so the
    result is one ``arange(total)`` plus each run's shift
    ``starts[i] - first[i]`` repeated ``lengths[i]`` times."""
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    rows = np.arange(total, dtype=np.int64)
    rows += np.repeat(starts - (ends - lengths), lengths)
    return rows


@dataclass(frozen=True, eq=False)
class Selection:
    """Stored rows as ``int64`` runs ``(starts, lengths)`` in emission
    order, empty runs dropped and a run merged with its predecessor
    exactly when it starts where that one ends.  A scan's selections
    ascend (valid count-table entries ascend by offset, the consolidated
    region last), which :meth:`intersect` relies on."""

    starts: np.ndarray
    lengths: np.ndarray

    def __post_init__(self) -> None:
        starts = np.asarray(self.starts, dtype=np.int64)
        lengths = np.asarray(self.lengths, dtype=np.int64)
        keep = lengths > 0
        if not keep.all():
            starts, lengths = starts[keep], lengths[keep]
        if len(starts) > 1:
            apart = starts[1:] != starts[:-1] + lengths[:-1]
            if not apart.all():
                first = np.flatnonzero(np.concatenate([[True], apart]))
                starts, lengths = starts[first], np.add.reduceat(lengths, first)
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "lengths", lengths)

    @classmethod
    def whole(cls, num_rows: int) -> "Selection":
        """Every row of a ``num_rows``-row table, in storage order."""
        return cls([0], [num_rows])

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "Selection":
        """The rows where ``mask`` is True."""
        edges = np.flatnonzero(np.diff(np.asarray(mask, dtype=np.int8), prepend=0, append=0))
        return cls(edges[::2], edges[1::2] - edges[::2])

    @classmethod
    def from_blocks(cls, keep: np.ndarray, block_rows: int, num_rows: int) -> "Selection":
        """The rows of the kept ``block_rows``-row blocks of a
        ``num_rows``-row column (the last block may be short)."""
        blocks = cls.from_mask(keep)
        starts = blocks.starts * block_rows
        ends = np.minimum((blocks.starts + blocks.lengths) * block_rows, num_rows)
        return cls(starts, ends - starts)

    def __len__(self) -> int:
        """How many rows are selected."""
        return int(self.lengths.sum())

    def runs(self) -> List[Tuple[int, int]]:
        """The runs as ``(start, length)`` pairs of python ints."""
        return list(zip(self.starts.tolist(), self.lengths.tolist()))

    def is_whole(self, num_rows: int) -> bool:
        """True when this is rows ``0 .. num_rows-1`` in order."""
        return self.runs() == ([(0, num_rows)] if num_rows else [])

    def rows(self) -> np.ndarray:
        """The selected row indices, ``int64``, in emission order."""
        return expand_runs(self.starts, self.lengths)

    def indexer(self) -> Union[slice, np.ndarray]:
        """What to index a stored column with: for at most one run a
        slice, so the gather is a view; else :meth:`rows`, to be shared
        by every column of one read."""
        if len(self.starts) > 1:
            return self.rows()
        start, length = self.runs()[0] if len(self.starts) else (0, 0)
        return slice(start, start + length)

    def intersect(self, other: "Selection") -> "Selection":
        """The rows both select, in this selection's order."""
        ends, other_ends = self.starts + self.lengths, other.starts + other.lengths
        # ``other`` ascends without overlaps, so a run meets one
        # contiguous block of its runs ``j``: O(runs)
        lo = np.searchsorted(other_ends, self.starts, side="right")
        counts = np.maximum(np.searchsorted(other.starts, ends, side="left") - lo, 0)
        i, j = np.repeat(np.arange(len(ends)), counts), expand_runs(lo, counts)
        starts = np.maximum(self.starts[i], other.starts[j])
        return Selection(starts, np.minimum(ends[i], other_ends[j]) - starts)

    def slice(self, a: int, b: int) -> "Selection":
        """The rows at positions ``a .. b-1`` of the selected sequence
        (a cut may fall inside a run)."""
        first = np.cumsum(self.lengths) - self.lengths
        lo = np.clip(a - first, 0, self.lengths)
        return Selection(self.starts + lo, np.clip(b - first, 0, self.lengths) - lo)

    def subset(self, keep: np.ndarray) -> "Selection":
        """The rows at the positions where ``keep`` (one flag per
        selected row) is True."""
        rows = self.rows()[keep]
        return Selection(rows, np.ones(len(rows), dtype=np.int64))

    def pieces(self, edges: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The runs cut at every stored-row edge (count-table offsets,
        page starts) inside one: ``(starts, lengths, bucket)`` per piece
        in emission order.  ``edges`` ascend, repeats allowed; a piece's
        ``bucket`` is ``searchsorted(edges, row, "right")`` of each of its
        rows — the piece lies within ``[edges[bucket-1], edges[bucket])``."""
        edges = np.asarray(edges, dtype=np.int64)
        ends = self.starts + self.lengths
        # a run meets the buckets of its first row through its last
        first = np.searchsorted(edges, self.starts, side="right")
        counts = np.searchsorted(edges, ends, side="left") + 1 - first
        i, bucket = np.repeat(np.arange(len(ends)), counts), expand_runs(first, counts)
        # bucket b spans [edges[b-1], edges[b]), unbounded past either end
        lower = np.full(len(bucket), _INT64.min)
        upper = np.full(len(bucket), _INT64.max)
        inner = bucket > 0
        lower[inner] = edges[bucket[inner] - 1]
        inner = bucket < len(edges)
        upper[inner] = edges[bucket[inner]]
        starts = np.maximum(self.starts[i], lower)
        lengths = np.minimum(ends[i], upper) - starts
        keep = lengths > 0  # repeated edges bound empty buckets
        return starts[keep], lengths[keep], bucket[keep]
