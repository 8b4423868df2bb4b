"""Delta stores: the write side of merge-on-read updates.

A :class:`DeltaStore` hangs off a :class:`~repro.storage.stored_table.StoredTable`
and holds everything committed since the table was built (or last
compacted):

* **insert runs** — one :class:`DeltaRun` per committed batch, its rows
  ordered the way the table's scheme orders storage (generation order for
  Plain, primary-key order for PK, ``_bdcc_``-key order for BDCC).  BDCC
  runs additionally carry the per-row clustering keys: new tuples are
  binned with the table's *existing* dimensions — out-of-domain key
  values clamp to the nearest bin, the paper's flat-numbering update
  story — so every delta row is tagged with the zone it belongs to and
  pushdown/sandwiching keep working over deltas;
* a **deletion bitmap** over the base storage plus one per run, so
  deletes never rewrite anything either.

Per-run zone maps (:class:`~repro.storage.minmax.MinMaxIndex`, derived
per run version like the base table's) let the scan prune delta runs
with the same superset semantics as base blocks.  Reads merge base and
deltas through the scan's ``delta_selected``
(:attr:`~repro.execution.operators.PhysicalScan.delta_selected`); compaction
(:mod:`repro.updates.compaction`) folds everything back into the base
layout of a new table version with an empty store.

Stores and runs are values, like the tables that hold them: a commit
builds the next store of each table it touches — one more run, or masks
or-ed into *new* arrays — and never changes one a reader may hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..storage.database import Database
from ..storage.memo import derive
from ..storage.minmax import MinMaxIndex
from ..storage.stored_table import StoredTable

__all__ = ["DeltaRun", "DeltaStore", "place_delta_run"]


@dataclass(frozen=True)
class DeltaRun:
    """One committed insert batch, rows in scheme storage order."""

    columns: Dict[str, np.ndarray]
    #: full-granularity ``_bdcc_`` keys per row (BDCC tables only).
    keys: Optional[np.ndarray]
    #: rows of this run deleted by a later (or the same) commit.
    deleted: np.ndarray

    @property
    def num_rows(self) -> int:
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    @property
    def live_rows(self) -> int:
        return self.num_rows - int(np.count_nonzero(self.deleted))

    def minmax_for(self, column: str, block_rows: int) -> MinMaxIndex:
        """Zone map over this run's values of one column, derived like
        the base table's."""
        key = ("minmax", column, block_rows)
        return derive(self, key, lambda: MinMaxIndex.build(self.columns[column], block_rows))


@dataclass(frozen=True)
class DeltaStore:
    """All uncompacted update state of one stored table."""

    #: deletion bitmap over the base storage (stored positions, so
    #: consolidated duplicate regions are marked consistently too).
    base_deleted: np.ndarray
    runs: Tuple[DeltaRun, ...] = ()

    @property
    def is_dirty(self) -> bool:
        return bool(self.runs) or bool(self.base_deleted.any())

    @property
    def live_delta_rows(self) -> int:
        return sum(run.live_rows for run in self.runs)

    @property
    def total_delta_rows(self) -> int:
        return sum(run.num_rows for run in self.runs)

    @property
    def deleted_base_rows(self) -> int:
        return int(np.count_nonzero(self.base_deleted))


def place_delta_run(stored: StoredTable, db: Database, n_old: int) -> DeltaRun:
    """Build one scheme-ordered :class:`DeltaRun` from the run just
    appended to ``db`` — the logical database a commit stages — whose
    rows follow the ``n_old`` rows the table held before it.

    Placement per scheme: BDCC rows are binned into existing zones; the
    run is then a one-piece merge into the table's storage order (key
    order on BDCC, primary-key order on PK, arrival order on Plain).
    """
    run = db.version(stored.name).runs[-1]
    n_new = run.columns.rows
    key_pieces = None
    if stored.bdcc is not None:
        row_indices = np.arange(n_old, n_old + n_new, dtype=np.int64)
        key_pieces = [stored.bdcc.keys_for_rows(db, row_indices)]
    columns, keys = stored.merge_pieces(
        {name: [values] for name, values in run.columns.items()}, key_pieces
    )
    return DeltaRun(columns=columns, keys=keys, deleted=np.zeros(n_new, dtype=bool))
