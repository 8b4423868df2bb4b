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
from typing import List, Tuple

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

    def pages_for_row_runs(
        self, runs: List[Tuple[int, int]], stored_bytes_per_value: float
    ) -> List[Tuple[int, int]]:
        """Map row runs ``(start_row, num_rows)`` to page runs
        ``(start_page, num_pages)``, merging adjacent/overlapping ones.

        Every scan's IO is charged through it
        (:meth:`~repro.storage.stored_table.StoredTable.io_run_bytes`):
        two selected runs that share a page only read it once within a
        merged run.
        """
        rpp = self.rows_per_page(stored_bytes_per_value)
        page_runs: List[Tuple[int, int]] = []
        for start_row, num_rows in runs:
            if num_rows <= 0:
                continue
            first = start_row // rpp
            last = (start_row + num_rows - 1) // rpp
            if page_runs:
                prev_first, prev_len = page_runs[-1]
                prev_last = prev_first + prev_len - 1
                # merge forward-adjacent or overlapping runs (a shared
                # boundary page is read once); backward jumps start a new
                # run and will be charged a seek
                if prev_first <= first <= prev_last + 1:
                    new_last = max(prev_last, last)
                    page_runs[-1] = (prev_first, new_last - prev_first + 1)
                    continue
            page_runs.append((first, last - first + 1))
        return page_runs
