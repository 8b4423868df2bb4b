"""A physically ordered table: the unit all three schemes store.

A :class:`StoredTable` is one physical row order of a logical table
(generation order for Plain, primary-key order for PK, ``_bdcc_`` order
for BDCC — possibly with a consolidated small-group region), derives a
MinMax index per column on first request, and knows its page layout for
IO accounting.  Its columns are an
:class:`~repro.storage.database.IndexedColumns`: the pieces of the
logical table version it was built from and that row order, a column
gathered into stored order the first time it is read — as a column
store reads only the columns a query names, no copy pays memory for a
column no query reads.  A copy whose row order is the logical order
gathers nothing: its columns are the logical arrays.

A stored table is a value: nothing changes one after construction (a
gather fills in a column, it never changes one).  A commit publishes
the *next version* of each table it touches — ``dataclasses.replace``
with a new delta store (:mod:`repro.updates.delta`: sorted insert runs
plus a deletion bitmap) and ``epoch + 1``, sharing the base columns'
mapping and so every column gathered before or after — and compaction
publishes a version whose columns are the same pieces plus the delta
runs' and one index of the live rows in storage order, gathered as they
are read; each version derives its own zone maps
(:mod:`repro.storage.memo`).  A plan
lowered before a commit keeps reading the versions it holds; ``epoch``
counts the commits/compactions behind a version, and plan caches key
on it.

:data:`LIVE_TABLES` holds every table alive in this process, weakly: the
process backend forks its workers over them, so a fragment payload can
name a table instead of shipping it (:mod:`repro.parallel.backends`).
"""

from __future__ import annotations

import weakref
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..catalog import Table
from ..core.bdcc_table import BDCCTable
from ..core.selection import Selection
from .database import IndexedColumns
from .memo import derive
from .minmax import MinMaxIndex
from .pages import PageModel

__all__ = ["StoredTable", "LIVE_TABLES"]


@dataclass(frozen=True, eq=False)
class StoredTable:
    name: str
    definition: Table
    #: stored order; a plain dict is wrapped on construction
    columns: IndexedColumns
    page_model: PageModel
    #: physical sort columns (PK scheme); empty otherwise.
    sort_columns: Tuple[str, ...] = ()
    #: BDCC metadata when this table is co-clustered.
    bdcc: Optional[BDCCTable] = None
    #: pending updates (a ``repro.updates.delta.DeltaStore``), or None
    #: while the table has never been written to.
    delta: Optional[object] = None
    #: one more than the version this one replaced (commit or
    #: compaction); plan caches include it in their keys.
    epoch: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.columns, IndexedColumns):
            object.__setattr__(self, "columns", IndexedColumns(self.columns))
        LIVE_TABLES.add(self)

    @property
    def stored_rows(self) -> int:
        return self.columns.rows

    @property
    def logical_rows(self) -> int:
        if self.bdcc is not None:
            return self.bdcc.logical_rows
        return self.stored_rows

    # ------------------------------------------------------------- updates
    @property
    def has_delta(self) -> bool:
        """True when reads must merge delta state (live insert runs or
        deleted base rows)."""
        return self.delta is not None and self.delta.is_dirty

    def storage_order(
        self, keys: Optional[np.ndarray], columns: Mapping[str, np.ndarray]
    ) -> Optional[np.ndarray]:
        """The permutation that puts rows into this table's storage
        order: by their ``_bdcc_`` ``keys`` on a BDCC table, else by the
        ``sort_columns`` values in ``columns``; ``None`` where storage is
        arrival order (Plain).  Stable — rows handed over base first,
        then runs in commit order, keep that order among equal keys.
        Placing a delta run, merge-on-read and compaction all order rows
        through here, so a read before compaction and the table after it
        agree by construction."""
        if self.bdcc is not None:
            return np.argsort(keys, kind="stable")
        if self.sort_columns:
            # lexsort: last key is primary
            return np.lexsort(tuple(columns[c] for c in reversed(self.sort_columns)))
        return None

    def merge_pieces(
        self,
        pieces: Mapping[str, List[np.ndarray]],
        key_pieces: Optional[List[np.ndarray]] = None,
        sort_pieces: Optional[Mapping[str, List[np.ndarray]]] = None,
    ) -> Tuple[Dict[str, np.ndarray], Optional[np.ndarray]]:
        """Concatenate per-column ``pieces`` (the base first, then the
        runs in commit order) and put the rows in :meth:`storage_order`;
        returns ``(columns, keys)``.  ``sort_pieces`` holds the sort
        columns when ``pieces`` does not (a scan that outputs other, or
        renamed, columns)."""
        keys = np.concatenate(key_pieces) if key_pieces is not None else None
        sort_from = pieces if sort_pieces is None else sort_pieces
        order = self.storage_order(
            keys, {c: np.concatenate(sort_from[c]) for c in self.sort_columns}
        )
        if order is None:
            return {name: np.concatenate(arrs) for name, arrs in pieces.items()}, keys
        merged = {name: np.concatenate(arrs)[order] for name, arrs in pieces.items()}
        return merged, None if keys is None else keys[order]

    def logical_selection(self) -> Selection:
        """Every logical base row once, in storage-read order: on BDCC the
        valid count-table entries' runs (skipping consolidated-away
        originals, derived with the BDCC version), else the whole table."""
        if self.bdcc is not None:
            return self.bdcc.logical_selection
        return Selection.whole(self.stored_rows)

    # ------------------------------------------------------------- layout
    def stored_bytes_per_value(self, column: str) -> float:
        return self.definition.column(column).datatype.stored_bytes

    def column_bytes(self, column: str) -> float:
        return self.page_model.column_bytes(
            self.stored_rows, self.stored_bytes_per_value(column)
        )

    def column_pages(self, column: str) -> int:
        return self.page_model.column_pages(
            self.stored_rows, self.stored_bytes_per_value(column)
        )

    def total_bytes(self, columns: Optional[List[str]] = None) -> float:
        names = columns if columns is not None else list(self.columns)
        return float(sum(self.column_bytes(c) for c in names))

    # ------------------------------------------------------------- minmax
    def minmax_for(self, column: str) -> MinMaxIndex:
        """Zone map with one block per page of that column (built on first
        request; Vectorwise maintains these automatically on every table)."""
        block_rows = self.page_model.rows_per_page(self.stored_bytes_per_value(column))
        key = ("minmax", column, block_rows)
        return derive(self, key, lambda: MinMaxIndex.build(self.columns[column], block_rows))

    # ----------------------------------------------------------------- IO
    def io_run_bytes(self, selection: Selection, columns: List[str]) -> List[float]:
        """Byte sizes of the separate disk accesses needed to read the
        selected rows of the given columns (column store: one run list
        per column, page-granular); columns of one stored width read the
        same pages."""
        widths = [self.stored_bytes_per_value(c) for c in columns]
        page_bytes = self.page_model.page_bytes
        runs = {
            width: (self.page_model.pages_for_runs(selection, width).lengths * page_bytes).tolist()
            for width in set(widths)
        }
        return [size for width in widths for size in runs[width]]


#: every :class:`StoredTable` alive in this process (identity-hashed,
#: hence ``eq=False``); an entry goes with its table.
LIVE_TABLES: "weakref.WeakSet[StoredTable]" = weakref.WeakSet()
