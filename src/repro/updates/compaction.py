"""Compaction: fold delta state back into the base layout.

A deterministic, per-table policy decides when the merge-on-read overhead
is no longer worth it: once the uncompacted volume (live delta inserts
plus deleted base rows) exceeds a fraction of the live base, the table
gets a new base layout — base rows minus deletions merged with the delta
runs in scheme order — and the delta store resets.  The new base copies
no column: it is the old base's source pieces plus the runs' and one row
index (:meth:`~repro.storage.database.IndexedColumns.compose`), each
column gathered when a query first reads it.  The simulated rewrite is
charged through the :class:`~repro.storage.io_model.DiskModel` (read
base + deltas, write the merged table, all sequential), which is the
amortized IO a log-structured engine pays for cheap writes.

BDCC count tables are maintained *incrementally* across the fold
(:meth:`~repro.core.count_table.CountTable.merge_entries`): per-zone
counts gain the delta rows and lose the deleted ones; zone identities
never change — the paper's flat-bin-numbering maintainability argument.
Small-group consolidation is not re-applied (run Algorithm 1 afresh for
that); the compacted table's ``row_source`` becomes the identity since
the merged storage is its own origin.

:func:`compact_table` is a pure function: it returns the compacted
*version* of a table and changes nothing.  The update session publishes
it after the commit that crossed the threshold has published, one table
at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from ..core.count_table import CountTable
from ..core.histograms import collect_granularity_stats
from ..core.selection import Selection
from ..execution.cost import CostModel
from ..storage.database import IndexedColumns
from ..storage.io_model import DiskModel
from ..storage.stored_table import StoredTable
from .delta import DeltaStore

__all__ = ["CompactionPolicy", "compact_table"]


@dataclass(frozen=True)
class CompactionPolicy:
    """When to fold a table's deltas back into the base layout.

    ``max_delta_fraction`` is the per-table threshold on
    ``(live delta rows + deleted base rows) / live base rows``; ``None``
    disables compaction entirely (useful for tests that need deltas to
    persist).  Tables with fewer than ``min_delta_rows`` pending rows are
    never compacted — a tiny tail is cheaper to merge at read time than
    to rewrite the table for.
    """

    max_delta_fraction: Optional[float] = 0.2
    min_delta_rows: int = 256

    def should_compact(self, stored: StoredTable) -> bool:
        """Whether ``stored``'s pending delta volume has crossed the
        policy threshold.

        Pure and deterministic: depends only on the table's delta-store
        counters (live delta rows, deleted base rows, live base rows),
        so every physical copy of a table decides independently and the
        same commit history always compacts at the same points —
        which is what lets differential sweeps replay identically."""
        if self.max_delta_fraction is None:
            return False
        delta = stored.delta
        if delta is None or not delta.is_dirty:
            return False
        pending = delta.live_delta_rows + delta.deleted_base_rows
        if pending < self.min_delta_rows:
            return False
        base_live = max(stored.logical_rows - delta.deleted_base_rows, 1)
        return pending / base_live >= self.max_delta_fraction


def compact_table(
    stored: StoredTable, disk: DiskModel, costs: CostModel
) -> Tuple[StoredTable, float, float]:
    """The next version of ``stored``: base ∪ deltas − deleted, with an
    empty delta store, fresh zone maps and ``epoch + 1``; returns it
    with the charged ``(io_seconds, cpu_seconds)``.  ``stored`` itself
    is returned, at no charge, when it has nothing to fold.

    The merged ``_bdcc_`` keys and the count table are computed here;
    the columns are the old columns' pieces and the runs' behind one
    index of the live rows in storage order (the keys' stable argsort,
    the primary-key lexsort, or arrival order on Plain), so what a
    query read before the fold does not change what it copies: nothing.
    """
    delta = stored.delta
    if delta is None or not delta.is_dirty:
        return stored, 0.0, 0.0

    base_rows = stored.logical_selection()
    live = base_rows.intersect(Selection.from_mask(~delta.base_deleted))
    live_base = live.indexer()
    live_runs = [(run, Selection.from_mask(~run.deleted).indexer()) for run in delta.runs]
    bdcc = stored.bdcc
    keys = key_pieces = None
    if bdcc is not None:
        key_pieces = [bdcc.keys[live_base]] + [run.keys[at] for run, at in live_runs]
        keys = np.concatenate(key_pieces)
    # the live rows over the old pieces and the runs': no column is copied
    columns = stored.columns.compose(live_base, [(run.columns, at) for run, at in live_runs])
    order = stored.storage_order(keys, columns)
    if order is not None:
        columns = IndexedColumns(columns, order)
        keys = None if keys is None else keys[order]
    n = len(live) + delta.live_delta_rows
    # read base + deltas, write the merged table: the same bytes either way
    rewrite_bytes: List[float] = [
        n * stored.stored_bytes_per_value(name) for name in stored.columns
    ]

    if bdcc is not None:
        ct = bdcc.count_table
        valid = bdcc.valid_entries
        deleted_rows = base_rows.intersect(Selection.from_mask(delta.base_deleted)).indexer()
        removed_keys, removed_counts = np.unique(
            bdcc.zone_of(bdcc.keys[deleted_rows]), return_counts=True
        )
        added: List[np.ndarray] = [bdcc.zone_of(keys) for keys in key_pieces[1:]]
        added_all = np.concatenate(added) if added else np.zeros(0, dtype=np.uint64)
        added_keys, added_counts = np.unique(added_all, return_counts=True)
        bdcc = replace(
            bdcc,
            count_table=CountTable.merge_entries(
                ct.granularity,
                ct.keys[valid], ct.counts[valid],
                added_keys=added_keys, added_counts=added_counts,
                removed_keys=removed_keys, removed_counts=removed_counts,
            ),
            keys=keys,
            row_source=np.arange(n, dtype=np.int64),
            logical_rows=n,
            stats=collect_granularity_stats(keys, bdcc.total_bits),
        )
        # the key column (RLE, ~1 byte/tuple) is read and rewritten too
        rewrite_bytes.append(float(n))

    compacted = replace(
        stored,
        columns=columns,
        bdcc=bdcc,
        delta=DeltaStore(base_deleted=np.zeros(n, dtype=bool)),
        epoch=stored.epoch + 1,
    )
    io_seconds = 2 * disk.time_for_runs(rewrite_bytes)
    cpu_seconds = n * costs.merge_row + n * costs.scan_value * max(len(columns), 1)
    return compacted, io_seconds, cpu_seconds
