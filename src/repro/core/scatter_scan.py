"""Scatter scan over a BDCC table (Section II, "Scanning BDCC tables").

A BDCC table interleaves several dimensions in its storage order.  The
scatter scan retrieves the table in *any* major-minor order of those
dimensions by walking the count table: for table A clustered on (D1, D2)
it can emit (D1), (D2), (D1,D2) or (D2,D1) order, attaching a group
identifier to the stream — the enabler for sandwich operators.

Offsets come from ``T_COUNT``; each group is contiguous in storage, so a
scan in an order other than the native Z-order costs one random access
per emitted group run (adjacent runs merge), which is exactly what the IO
model charges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .count_table import expand_runs

__all__ = ["ScanResult", "ScatterScan"]


@dataclass
class ScanResult:
    """Rows (positions in the stored table), their group ids, and the
    storage runs that were read."""

    rows: np.ndarray
    group_ids: np.ndarray
    runs: List[Tuple[int, int]]

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_groups(self) -> int:
        if len(self.group_ids) == 0:
            return 0
        return len(np.unique(self.group_ids))


class ScatterScan:
    """Plans group-ordered access to one BDCC table."""

    def __init__(self, bdcc) -> None:
        self._bdcc = bdcc

    def scan(
        self,
        restrictions: Sequence[Tuple[int, np.ndarray, int]] = (),
        major: Optional[Sequence[Tuple[int, Optional[int]]]] = None,
    ) -> ScanResult:
        """Retrieve (row positions of) the table.

        Args:
            restrictions: selection pushdown, per
                :meth:`BDCCTable.entries_matching`.
            major: requested emission order as ``(use_index, bits)`` pairs,
                major first; ``bits=None`` uses the full effective bits of
                that use.  ``None`` scans in native storage (Z-)order with
                a zero group id.

        Returns:
            :class:`ScanResult` whose ``rows`` are emitted group-major and
            whose ``group_ids`` concatenate the requested uses' group
            numbers (major use in the most significant position).
        """
        bdcc = self._bdcc
        ct = bdcc.count_table
        entries = bdcc.entries_matching(restrictions) if restrictions else bdcc.all_entries()
        if major:
            per_use_vals = []
            per_use_bits = []
            for use_index, bits in major:
                eff = bdcc.effective_bits(use_index)
                take = eff if bits is None else min(bits, eff)
                per_use_vals.append(bdcc.entry_group_values(use_index, take)[entries])
                per_use_bits.append(take)
            combined = np.zeros(len(entries), dtype=np.uint64)
            for vals, bits in zip(per_use_vals, per_use_bits):
                combined = (combined << np.uint64(bits)) | vals
            # sort entries by requested group id, tie-break on storage key
            order = np.lexsort((ct.keys[entries], combined))
            entries = entries[order]
            entry_groups = combined[order]
        else:
            order = np.argsort(ct.keys[entries], kind="stable")
            entries = entries[order]
            entry_groups = np.zeros(len(entries), dtype=np.uint64)

        runs: List[Tuple[int, int]] = []
        for idx in entries:
            start = int(ct.offsets[idx])
            length = int(ct.counts[idx])
            if runs and runs[-1][0] + runs[-1][1] == start:
                prev_start, prev_len = runs[-1]
                runs[-1] = (prev_start, prev_len + length)
            else:
                runs.append((start, length))
        # emission order, not entry-index order: the kernel, not
        # rows_for_entries (which sorts the entries)
        counts = ct.counts[entries]
        rows = expand_runs(ct.offsets[entries], counts)
        group_ids = np.repeat(entry_groups, counts)
        return ScanResult(rows=rows, group_ids=group_ids, runs=runs)
