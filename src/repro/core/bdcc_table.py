"""Algorithm 1: building a self-tuned BDCC table.

Given a table's dimension uses, the builder:

(i)   assigns round-robin (Z-order) masks until every dimension's full
      granularity is used (``B`` total bits);
(ii)  computes the ``_bdcc_`` key for every tuple, sorts the table on it,
      and piggy-backs the group-size analysis over all granularities;
(iii) picks the count-table granularity ``b <= B`` from the densest
      column's byte density and the efficient random access size ``A_R``;
(iv)  materialises ``T_COUNT`` at granularity ``b``;
(v)   optionally consolidates very small groups: their tuples are copied
      and appended contiguously, the original entries marked invalid —
      the paper's post-bulk-load step for better buffer locality.

A built table is a value; what pushdown, scans and compaction read off
its count table is derived once per version (:class:`BDCCTable`), so
they work per group, never per row.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..storage.database import Database
from .bits import gather_use_bits, ones, scatter_bins_into_key, truncate_mask
from .count_table import CountTable
from .dimension_use import DimensionUse, check_bdcc_constraints
from .histograms import GranularityStats, choose_granularity, collect_granularity_stats
from .interleave import assign_masks, assign_masks_major_minor
from .selection import Selection

__all__ = ["BDCCTable", "BDCCBuildConfig", "build_bdcc_table"]


@dataclass
class BDCCBuildConfig:
    """Knobs of Algorithm 1 (defaults follow the paper's evaluation)."""

    #: efficient random access size A_R in bytes (32 KB flash, per [5]).
    efficient_access_bytes: float = 32 * 1024
    #: bit interleaving: "round_robin" (Z-order, the automatic choice) or
    #: "major_minor" (the hand-tuned MDAM-style comparison layout).
    interleave: str = "round_robin"
    #: consolidate groups smaller than A_R if they hold at most this
    #: fraction of the data; None disables consolidation.
    consolidate_max_fraction: Optional[float] = 0.1


@dataclass(frozen=True)
class BDCCTable:
    """A built BDCC table: physical order, key column, count table, stats.

    ``row_source[i]`` is the original row index stored at position ``i``;
    after small-group consolidation the storage holds duplicates, and only
    the count table's *valid* entries see each logical row exactly once.
    A value: compaction builds a new one rather than changing this one.

    The per-group metadata every lowering and scan reads is derived once,
    when the version is made (``init=False`` fields, filled by
    ``__post_init__``, so ``dataclasses.replace`` recomputes them for the
    next version): each use's group number per count-table entry at the
    use's effective bits, the valid entries with their offsets, and the
    logical selection they make.  Nothing is cached beside the value.
    """

    table: str
    uses: List[DimensionUse]
    total_bits: int
    granularity: int
    row_source: np.ndarray
    keys: np.ndarray
    count_table: CountTable
    stats: GranularityStats
    densest_column: str
    densest_bytes_per_tuple: float
    logical_rows: int
    #: per use, per count-table entry: the use's group number at its
    #: effective bits (the bits that survive at count granularity).
    entry_groups: Tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    #: indices of the valid count-table entries, ascending.
    valid_entries: np.ndarray = field(init=False, repr=False, compare=False)
    #: the valid entries' starting offsets (ascending: the consolidated
    #: region comes last in both entry and storage order).
    valid_offsets: np.ndarray = field(init=False, repr=False, compare=False)
    #: every logical row once, in storage-read order: the valid entries'
    #: runs, skipping consolidated-away originals.
    logical_selection: Selection = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ct = self.count_table
        valid = np.flatnonzero(ct.valid)
        derived = {
            "entry_groups": tuple(
                gather_use_bits(ct.keys, self._entry_mask(i)) for i in range(len(self.uses))
            ),
            "valid_entries": valid,
            "valid_offsets": ct.offsets[valid],
            "logical_selection": ct.selection(valid),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)
        for array in (*self.entry_groups, self.valid_entries, self.valid_offsets):
            array.flags.writeable = False  # shared by every reader of the version

    # ---------------------------------------------------------- accessors
    @property
    def stored_rows(self) -> int:
        return len(self.row_source)

    # ------------------------------------------------------------- groups
    def _entry_mask(self, use_index: int) -> int:
        """The use's mask over count-table keys (its top positions)."""
        return truncate_mask(self.uses[use_index].mask, self.total_bits, self.granularity)

    def entry_group_values(self, use_index: int, num_bits: Optional[int] = None) -> np.ndarray:
        """Per count-table entry: the group number of one dimension use
        (its ``num_bits`` most significant bits, all effective bits when
        None) — the derived :attr:`entry_groups`, shifted."""
        groups = self.entry_groups[use_index]
        eff_bits = self.effective_bits(use_index)
        if num_bits is None or num_bits == eff_bits:
            return groups
        if num_bits < 0 or num_bits > eff_bits:
            raise ValueError(f"num_bits {num_bits} out of range for {eff_bits} effective bits")
        return groups >> np.uint64(eff_bits - num_bits)

    def effective_bits(self, use_index: int) -> int:
        """How many of this use's bits survive at count-table granularity."""
        return ones(self._entry_mask(use_index))

    def zone_of(self, keys: np.ndarray) -> np.ndarray:
        """The zone of each ``_bdcc_`` key: its prefix at count-table
        granularity, the key of the count-table entry it falls in."""
        return keys >> np.uint64(self.total_bits - self.granularity)

    def _matching(self, group_values, count: int, restrictions) -> np.ndarray:
        """``count`` flags: which items may satisfy all restrictions,
        given ``group_values(use_index, bits)``, the items' group numbers
        of a use at that many of its top effective bits."""
        keep = np.ones(count, dtype=bool)
        for use_index, allowed_bins, bin_bits in restrictions:
            eff_bits = self.effective_bits(use_index)
            if eff_bits == 0:
                continue  # this use has no bits at count granularity
            take = min(eff_bits, bin_bits)
            allowed = np.unique(
                np.asarray(allowed_bins, dtype=np.uint64) >> np.uint64(bin_bits - take)
            )
            keep &= np.isin(group_values(use_index, take), allowed)
        return keep

    def restriction_mask(
        self,
        zone_prefixes: np.ndarray,
        restrictions: Sequence[Tuple[int, np.ndarray, int]],
    ) -> np.ndarray:
        """Which of the given zone prefixes (keys truncated to count-table
        granularity) may satisfy all restrictions.

        Each restriction is ``(use_index, allowed_bins, bin_bits)`` where
        ``allowed_bins`` are dimension bin numbers expressed with
        ``bin_bits`` bits.  Bins are truncated to the use's effective bit
        count, making the selection a superset — pushdown never loses
        rows, the residual predicate still runs after the scan.  The one
        truncation rule (:meth:`_matching`) serves both the base count
        table (:meth:`entries_matching`, over the derived entry groups)
        and per-row delta zone tags (merge-on-read scans), so base and
        delta pruning can never diverge.
        """
        return self._matching(
            lambda use_index, take: gather_use_bits(
                zone_prefixes, self._entry_mask(use_index), take
            ),
            len(zone_prefixes),
            restrictions,
        )

    def entries_matching(
        self, restrictions: Sequence[Tuple[int, np.ndarray, int]]
    ) -> np.ndarray:
        """Count-table entry indices whose groups may satisfy all
        restrictions (see :meth:`restriction_mask`)."""
        keep = self.count_table.valid & self._matching(
            self.entry_group_values, self.count_table.num_entries, restrictions
        )
        return np.flatnonzero(keep)

    # ------------------------------------------------------------- updates
    def keys_for_rows(self, db: Database, row_indices: np.ndarray) -> np.ndarray:
        """``_bdcc_`` keys for the given rows of the live database,
        binned with the *existing* dimensions — no renumbering,
        out-of-domain key values clamp to the nearest bin (the paper's
        update story).  What delta-run placement keys new rows with."""
        keys = np.zeros(len(row_indices), dtype=np.uint64)
        for use in self.uses:
            values = db.resolve_path_values(
                self.table, use.path, use.dimension.key, rows=row_indices
            )
            bins = use.dimension.bin_of_values(values)
            scatter_bins_into_key(bins, use.dimension.bits, use.mask, keys)
        return keys


def _widest_stored_column(db: Database, table: str) -> Tuple[str, float]:
    definition = db.schema.table(table)
    widest = max(definition.columns, key=lambda c: c.datatype.stored_bytes)
    return widest.name, float(widest.datatype.stored_bytes)


def build_bdcc_table(
    db: Database,
    table: str,
    uses: Sequence[DimensionUse],
    config: Optional[BDCCBuildConfig] = None,
) -> BDCCTable:
    """Run Algorithm 1 for one table.

    The given uses need no masks; they are assigned here according to the
    configured interleaving.  Each use's bins are computed once per row
    of the dimension's host table, then gathered for every row of
    ``table`` over the use's dimension path (:meth:`Database.walk_path`)
    against the live database: rows that reach the same host row share
    its bin, so no using row's key values are encoded or searched.
    """
    config = config or BDCCBuildConfig()
    if not uses:
        raise ValueError(f"table {table!r} needs at least one dimension use")
    uses = [DimensionUse(u.dimension, u.path) for u in uses]  # private copies

    # (i) mask assignment at maximal granularity B = sum bits(D(U_i))
    bits_per_use = [u.dimension.bits for u in uses]
    if config.interleave == "round_robin":
        masks = assign_masks(bits_per_use)
    elif config.interleave == "major_minor":
        masks = assign_masks_major_minor(bits_per_use)
    else:
        raise ValueError(f"unknown interleave mode {config.interleave!r}")
    total_bits = sum(bits_per_use)
    for use, mask in zip(uses, masks):
        use.mask = mask
    check_bdcc_constraints(uses, total_bits)

    # (ii) compute _bdcc_ at maximal granularity and sort
    n = db.num_rows(table)
    keys = np.zeros(n, dtype=np.uint64)
    for use in uses:
        dim = use.dimension
        host, rows = db.walk_path(table, use.path)
        host_bins = dim.bin_of_values([db.column(host, a) for a in dim.key])
        bins = host_bins if rows is None else host_bins[rows]
        scatter_bins_into_key(bins, dim.bits, use.mask, keys)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    stats = collect_granularity_stats(sorted_keys, total_bits)

    # (iii) choose the count-table granularity from the densest column
    densest_col, densest_bytes = _widest_stored_column(db, table)
    granularity = choose_granularity(stats, densest_bytes, config.efficient_access_bytes)

    # (iv) T_COUNT at the reduced granularity
    count_table = CountTable.from_sorted_keys(sorted_keys, total_bits, granularity)

    bdcc = BDCCTable(
        table=table,
        uses=uses,
        total_bits=total_bits,
        granularity=granularity,
        row_source=order.astype(np.int64),
        keys=sorted_keys,
        count_table=count_table,
        stats=stats,
        densest_column=densest_col,
        densest_bytes_per_tuple=densest_bytes,
        logical_rows=n,
    )

    # (v) post-bulk-load consolidation of very small groups
    if config.consolidate_max_fraction is not None and n > 0:
        bdcc = _consolidate_small_groups(
            bdcc,
            threshold_bytes=config.efficient_access_bytes,
            max_fraction=config.consolidate_max_fraction,
        )
    return bdcc


def _consolidate_small_groups(
    bdcc: BDCCTable, threshold_bytes: float, max_fraction: float
) -> BDCCTable:
    """``bdcc`` with the tuples of groups smaller than ``threshold_bytes``
    (in the densest column) copied to a contiguous region appended at
    the end, and the original count-table entries marked invalid.

    Skipped when small groups hold more than ``max_fraction`` of the data
    (Algorithm 1 only tolerates a low percentage there) or when fewer than
    two groups qualify (nothing to co-locate)."""
    ct = bdcc.count_table
    group_bytes = ct.counts * bdcc.densest_bytes_per_tuple
    small = ct.valid & (group_bytes < threshold_bytes)
    small_rows = int(ct.counts[small].sum())
    if np.count_nonzero(small) < 2 or small_rows == 0:
        return bdcc
    if small_rows > max_fraction * bdcc.logical_rows:
        return bdcc

    small_indices = np.flatnonzero(small)  # already in key order
    moved = ct.selection(small_indices).indexer()
    base = bdcc.stored_rows
    new_keys = ct.keys[small_indices]
    new_counts = ct.counts[small_indices]
    new_offsets = base + np.concatenate([[0], np.cumsum(new_counts[:-1])]).astype(np.int64)
    return replace(
        bdcc,
        row_source=np.concatenate([bdcc.row_source, bdcc.row_source[moved]]),
        keys=np.concatenate([bdcc.keys, bdcc.keys[moved]]),
        count_table=CountTable(
            granularity=ct.granularity,
            keys=np.concatenate([ct.keys, new_keys]),
            counts=np.concatenate([ct.counts, new_counts]),
            offsets=np.concatenate([ct.offsets, new_offsets]),
            valid=np.concatenate([ct.valid & ~small, np.ones(len(new_keys), dtype=bool)]),
        ),
    )
