"""The ``T_COUNT`` metadata table of a BDCC table.

One entry per clustering-key *group* at the chosen count-table granularity
``b``: the group's key prefix, its tuple count and its starting offset in
the stored (key-sorted) table.  Entries can be marked invalid by the
small-group consolidation step of Algorithm 1 — their rows were copied to
a consolidated region appended at the end of the table and must not be
read through the original entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .selection import Selection

__all__ = ["CountTable"]


@dataclass(frozen=True)
class CountTable:
    """Group metadata: parallel arrays over count-table entries.  A
    value, like the :class:`~repro.core.bdcc_table.BDCCTable` holding it:
    maintenance (:meth:`merge_entries`) builds a new one."""

    granularity: int
    keys: np.ndarray      # uint64 group key prefixes (top `granularity` bits)
    counts: np.ndarray    # int64 tuples per group
    offsets: np.ndarray   # int64 starting row in the stored table
    valid: np.ndarray     # bool, False for consolidated-away originals

    def __post_init__(self) -> None:
        n = len(self.keys)
        if not (len(self.counts) == len(self.offsets) == len(self.valid) == n):
            raise ValueError("count-table arrays must be parallel")
        object.__setattr__(self, "keys", np.asarray(self.keys, dtype=np.uint64))
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=np.int64))
        object.__setattr__(self, "offsets", np.asarray(self.offsets, dtype=np.int64))
        object.__setattr__(self, "valid", np.asarray(self.valid, dtype=bool))

    @classmethod
    def from_sorted_keys(cls, sorted_keys: np.ndarray, total_bits: int, granularity: int) -> "CountTable":
        """Build from the full-granularity sorted key column, in a single
        ordered aggregation (Algorithm 1(iv))."""
        if granularity < 0 or granularity > total_bits:
            raise ValueError(f"granularity {granularity} out of [0, {total_bits}]")
        prefixes = sorted_keys >> np.uint64(total_bits - granularity)
        if len(prefixes) == 0:
            empty = np.zeros(0, dtype=np.int64)
            return cls(granularity, empty.astype(np.uint64), empty, empty, empty.astype(bool))
        change = np.empty(len(prefixes), dtype=bool)
        change[0] = True
        np.not_equal(prefixes[1:], prefixes[:-1], out=change[1:])
        offsets = np.flatnonzero(change).astype(np.int64)
        keys = prefixes[offsets]
        counts = np.diff(np.append(offsets, len(prefixes))).astype(np.int64)
        return cls(granularity, keys, counts, offsets, np.ones(len(keys), dtype=bool))

    @classmethod
    def merge_entries(
        cls,
        granularity: int,
        base_keys: np.ndarray,
        base_counts: np.ndarray,
        added_keys: Optional[np.ndarray] = None,
        added_counts: Optional[np.ndarray] = None,
        removed_keys: Optional[np.ndarray] = None,
        removed_counts: Optional[np.ndarray] = None,
    ) -> "CountTable":
        """Incremental count-table maintenance: merge per-group deltas
        into existing entry metadata without re-aggregating the key
        column.

        ``base_keys``/``base_counts`` are the current (valid) entries in
        any order; ``added_*`` add tuples per group prefix (new prefixes
        create new entries in key order), ``removed_*`` subtract (groups
        reaching zero tuples disappear).  Offsets are recomputed as the
        running sum in key order — exactly the layout of the merged
        storage the delta path / compaction produces.
        """
        keys = np.asarray(base_keys, dtype=np.uint64)
        counts = np.asarray(base_counts, dtype=np.int64)
        pieces_k = [keys]
        pieces_c = [counts]
        if added_keys is not None and len(added_keys):
            pieces_k.append(np.asarray(added_keys, dtype=np.uint64))
            pieces_c.append(np.asarray(added_counts, dtype=np.int64))
        if removed_keys is not None and len(removed_keys):
            pieces_k.append(np.asarray(removed_keys, dtype=np.uint64))
            pieces_c.append(-np.asarray(removed_counts, dtype=np.int64))
        all_keys = np.concatenate(pieces_k)
        all_counts = np.concatenate(pieces_c)
        uniq, inverse = np.unique(all_keys, return_inverse=True)
        merged = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(merged, inverse, all_counts)
        if np.any(merged < 0):
            raise ValueError("count-table merge removed more tuples than a group holds")
        keep = merged > 0
        uniq = uniq[keep]
        merged = merged[keep]
        offsets = np.concatenate([[0], np.cumsum(merged[:-1])]).astype(np.int64) \
            if len(merged) else np.zeros(0, dtype=np.int64)
        return cls(granularity, uniq, merged, offsets, np.ones(len(uniq), dtype=bool))

    # ------------------------------------------------------------ queries
    @property
    def num_groups(self) -> int:
        return int(np.count_nonzero(self.valid))

    @property
    def num_entries(self) -> int:
        return len(self.keys)

    def total_rows(self) -> int:
        """Rows reachable through valid entries (equals the logical row
        count even after consolidation)."""
        return int(self.counts[self.valid].sum())

    def select_entries(self) -> np.ndarray:
        """Indices of valid entries."""
        return np.flatnonzero(self.valid)

    def selection(self, entries: np.ndarray) -> Selection:
        """The stored rows of the given entries, in *entry-index* order:
        entries are visited by ascending index whatever order they are
        given in, each contributing its run ``offset..offset+count-1``.
        That is key order on a freshly built table; on a consolidated
        one the moved groups are the last entries, so their rows come
        last whatever their key."""
        order = np.sort(np.asarray(entries, dtype=np.int64))
        return Selection(self.offsets[order], self.counts[order])
