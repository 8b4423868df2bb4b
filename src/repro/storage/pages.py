"""Page model: translating column vectors into 32 KB disk pages.

The paper's IO reasoning is page-based (Vectorwise page size 32 KB): the
efficient random access size ``A_R``, count-table granularity selection
and MinMax pruning all operate on pages.  We model a lightly compressed
column store with per-type stored widths (see
:mod:`repro.catalog.datatypes`); all three compared schemes share the
same widths, mirroring the paper's identical ~55 GB footprints.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from ..core.selection import Selection

__all__ = ["PageModel"]


@dataclass(frozen=True)
class PageModel:
    """Row/byte/page arithmetic for one page size."""

    page_bytes: int = 32 * 1024

    def column_bytes(self, num_rows: int, stored_bytes_per_value: float) -> float:
        return num_rows * stored_bytes_per_value

    def column_pages(self, num_rows: int, stored_bytes_per_value: float) -> int:
        if num_rows <= 0:
            return 0
        return max(1, ceil(self.column_bytes(num_rows, stored_bytes_per_value) / self.page_bytes))

    def rows_per_page(self, stored_bytes_per_value: float) -> int:
        if stored_bytes_per_value <= 0:
            raise ValueError("stored width must be positive")
        return max(1, int(self.page_bytes // stored_bytes_per_value))

    def page_starts(self, num_rows: int, stored_bytes_per_value: float) -> np.ndarray:
        """The first row of every page of a ``num_rows``-row column."""
        return np.arange(0, num_rows, self.rows_per_page(stored_bytes_per_value), dtype=np.int64)

    def pages_for_runs(self, selection: Selection, stored_bytes_per_value: float) -> Selection:
        """The pages a selection's row runs touch, as page runs: a page
        two runs share is read once, and runs of adjacent pages merge
        into one access.  The runs ascend (a scan's always do), so a run
        overlaps at most the page its predecessor ends in.

        Every scan's IO is charged through it
        (:meth:`~repro.storage.stored_table.StoredTable.io_run_bytes`).
        """
        rpp = self.rows_per_page(stored_bytes_per_value)
        first = selection.starts // rpp
        end = (selection.starts + selection.lengths - 1) // rpp + 1
        first[1:] = np.maximum(first[1:], end[:-1])
        return Selection(first, end - first)
