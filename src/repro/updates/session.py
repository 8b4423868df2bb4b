"""The write API: buffered inserts/deletes committed all or nothing.

An :class:`UpdateSession` spans one *logical* database and every physical
database materialised over it — committing once keeps the logical arrays
(what the SQL reference and dimension paths read) and every
scheme's delta stores in step:

.. code-block:: python

    session = UpdateSession(pdb)              # or UpdateSession(plain, pk, bdcc)
    session.insert_rows("orders", new_orders)
    session.insert_rows("lineitem", new_lineitems)
    session.delete_where("lineitem", col("l_orderkey").isin(stale))
    result = session.commit()                 # binning, delta runs, maybe compaction

Commit semantics:

* inserts are applied parents-first (the schema's leaves-first order), so
  dimension paths over foreign keys resolve for rows inserted in the same
  commit; each insert must supply every column of the table, and callers
  keep primary keys unique and foreign keys resolvable;
* deletes run after the inserts (they see this commit's rows) in the
  order declared — delete children before, or together with, their
  parents (the TPC-H RF2 pattern);
* all or nothing: the commit is staged on a copy of the logical table map
  and on the *next version* of every stored copy it touches, then
  published in one last step.  Logical and stored tables change the same
  way: an insert batch becomes one more run (on a stored copy, binned
  into *existing* BDCC zones — out-of-domain keys clamp — and in that
  copy's storage order), a delete or-s its matches into *new* per-piece
  bitmaps, and no column of the table is copied; a stored copy also gets
  ``epoch + 1``.  The registry's ``updates.logical_bytes_copied`` counts
  the bytes of logical arrays a commit allocates: the batch and the
  bitmaps.  A failure before that step raises
  :class:`~repro.errors.CommitAborted`, chained to its cause, and
  changes nothing: no table, epoch or counter moves, and the buffered
  changes stay queued for a retry;
* after the publish the compaction policy folds any table whose delta
  volume crossed the threshold, one table at a time, each its own
  publish, charging the amortized rewrite IO to the commit.  Compacting
  a stored copy of a table folds the logical table's pieces into a new
  base too, in the same publish; without compaction they stay pieces.
  Compaction changes no row a reader sees, so a compaction that raises
  leaves the commit published and the table uncompacted until a later
  commit touching it crosses the threshold again.

The returned :class:`CommitResult` carries per-scheme simulated cost
(binning CPU + delta-write IO + compaction) — the refresh-stream
"cost of updates" measurement — and the new epoch per physical database.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import CommitAborted
from ..execution.cost import DEFAULT_COSTS, CostModel
from ..execution.expressions import Expr
from ..execution.metrics import ExecutionMetrics
from ..execution.relation import Relation
from ..observe.registry import REGISTRY
from ..schemes.base import PhysicalDatabase
from ..storage.database import Database
from ..storage.io_model import PAPER_SSD, DiskModel
from ..storage.stored_table import StoredTable
from .compaction import CompactionPolicy, compact_table
from .delta import DeltaStore, place_delta_run

__all__ = ["UpdateSession", "CommitResult", "TableChange"]


@dataclass
class TableChange:
    """What one commit did to one stored copy of one table."""

    scheme: str
    table: str
    rows_inserted: int = 0
    rows_deleted: int = 0
    delta_rows: int = 0        # live delta rows after the commit
    compacted: bool = False
    epoch: int = 0


@dataclass
class CommitResult:
    """Outcome of one :meth:`UpdateSession.commit`."""

    inserted: Dict[str, int] = field(default_factory=dict)
    deleted: Dict[str, int] = field(default_factory=dict)
    changes: List[TableChange] = field(default_factory=list)
    #: simulated commit cost per scheme (binning/sorting CPU, delta-write
    #: IO, compaction IO+CPU; compaction also appears on
    #: ``metrics.compaction_seconds``).
    scheme_metrics: Dict[str, ExecutionMetrics] = field(default_factory=dict)
    #: epoch of each physical database after the commit.
    epochs: Dict[str, int] = field(default_factory=dict)

    @property
    def is_empty(self) -> bool:
        return not self.inserted and not self.deleted

    def seconds_for(self, scheme: str) -> float:
        metrics = self.scheme_metrics.get(scheme)
        if metrics is None:
            return 0.0
        return metrics.total_seconds + metrics.compaction_seconds

    def compacted_tables(self, scheme: Optional[str] = None) -> List[str]:
        return sorted(
            {
                c.table
                for c in self.changes
                if c.compacted and (scheme is None or c.scheme == scheme)
            }
        )


class UpdateSession:
    """Buffered inserts and deletes over one logical database and any
    number of physical databases built from it."""

    def __init__(
        self,
        *physical_dbs: PhysicalDatabase,
        policy: Optional[CompactionPolicy] = None,
        disk: Optional[DiskModel] = None,
        costs: Optional[CostModel] = None,
    ):
        if not physical_dbs:
            raise ValueError("UpdateSession needs at least one physical database")
        self.pdbs: Tuple[PhysicalDatabase, ...] = tuple(physical_dbs)
        self.db: Database = self.pdbs[0].database
        for pdb in self.pdbs[1:]:
            if pdb.database is not self.db:
                raise ValueError(
                    "all physical databases of one session must share the "
                    "same logical database"
                )
        self.policy = policy or CompactionPolicy()
        self.disk = disk or PAPER_SSD
        self.costs = costs or DEFAULT_COSTS
        self._inserts: List[Tuple[str, Dict[str, np.ndarray]]] = []
        self._deletes: List[Tuple[str, Expr]] = []

    # ------------------------------------------------------------ buffering
    def insert_rows(self, table: str, rows: Dict[str, np.ndarray]) -> None:
        """Queue complete rows for ``table``.

        Args:
            table: a table of the session's schema (checked eagerly;
                unknown names raise here, not at commit).
            rows: column name -> array of equal lengths covering *every*
                column of the table (checked when :meth:`commit` appends
                them; a bad batch aborts the whole commit).  Arrays
                are converted with ``np.asarray`` but not copied.

        Callers keep primary keys unique and foreign keys resolvable;
        referenced parents may ride in the *same* commit (inserts apply
        parents-first).  Buffering order is preserved for batches of
        the same table, so commits are deterministic given the call
        sequence."""
        self.db.schema.table(table)  # fail fast on unknown tables
        self._inserts.append((table, {k: np.asarray(v) for k, v in rows.items()}))

    def delete_where(self, table: str, predicate: Expr) -> None:
        """Queue deletion of every row of ``table`` matching
        ``predicate``.

        Args:
            table: a table of the session's schema (checked eagerly).
            predicate: an :class:`~repro.execution.expressions.Expr`
                over the table's *own* (unprefixed) column names; a
                name outside the table aborts the :meth:`commit`.

        Deletes run after this commit's inserts — they see rows
        inserted in the same commit — and in declaration order, which
        is how the TPC-H RF2 pattern deletes children before (or with)
        their parents.  A predicate matching nothing leaves epochs and
        plan caches untouched."""
        self.db.schema.table(table)
        self._deletes.append((table, predicate))

    # ------------------------------------------------------------- commit
    def _ordered_inserts(self) -> List[Tuple[str, Dict[str, np.ndarray]]]:
        """Pending inserts, parents before children (batches of the same
        table keep their declaration order)."""
        order = {t: i for i, t in enumerate(self.db.schema.leaves_first_order())}
        indexed = sorted(
            enumerate(self._inserts),
            key=lambda item: (order.get(item[1][0], len(order)), item[0]),
        )
        return [item for _, item in indexed]

    def _charge_insert(
        self, metrics: ExecutionMetrics, stored: StoredTable, n_new: int
    ) -> None:
        """Simulated cost of placing one delta run: bin/sort CPU plus one
        sequential append write per column (and the key column on BDCC)."""
        num_uses = len(stored.bdcc.uses) if stored.bdcc is not None else 0
        cpu = n_new * self.costs.expr_value * max(num_uses, 1)
        if stored.bdcc is not None or stored.sort_columns:
            cpu += n_new * max(np.log2(max(n_new, 2)), 1.0) * self.costs.sort_row
        metrics.charge_cpu(cpu, "update")
        write_bytes = [
            n_new * stored.stored_bytes_per_value(c) for c in stored.columns
        ]
        if stored.bdcc is not None:
            write_bytes.append(float(n_new))  # RLE key column
        metrics.charge_io(
            float(sum(write_bytes)), len(write_bytes),
            self.disk.time_for_runs(write_bytes),
        )

    def commit(self) -> CommitResult:
        """Apply all buffered changes, all or nothing; returns the
        per-scheme outcome.  Raises :class:`~repro.errors.CommitAborted`,
        having changed nothing, if anything fails before the publish.
        The session is reusable afterwards."""
        if not self._inserts and not self._deletes:
            return CommitResult(epochs={pdb.scheme_name: pdb.epoch for pdb in self.pdbs})
        try:
            staged, versions, result = self._stage()
        except Exception as error:
            raise CommitAborted(
                f"commit aborted before publishing, nothing applied: {error}"
            ) from error
        # ---- publish: every table this commit touched, at once ----------
        self.db.publish(staged)
        for pdb in self.pdbs:
            pdb.publish(versions)
        REGISTRY.inc("commits")
        REGISTRY.inc("updates.logical_bytes_copied", staged.copied_bytes)
        REGISTRY.inc("epochs_bumped", len(versions))
        self._inserts = []
        self._deletes = []

        # ---- compaction: one table at a time, each its own publish ------
        for pdb in self.pdbs:
            metrics = result.scheme_metrics[pdb.scheme_name]
            for change in result.changes:
                if change.scheme != pdb.scheme_name:
                    continue
                for stored in pdb.stored_copies(change.table):
                    if self.policy.should_compact(stored):
                        compacted, io_s, cpu_s = compact_table(stored, self.disk, self.costs)
                        pdb.publish({stored: compacted})
                        REGISTRY.inc("updates.logical_bytes_copied", self.db.fold(change.table))
                        REGISTRY.inc("compactions")
                        REGISTRY.inc("epochs_bumped")
                        metrics.compaction_seconds += io_s + cpu_s
                        change.compacted = True
                        stored = compacted
                    change.delta_rows = stored.delta.live_delta_rows
                    change.epoch = stored.epoch
            result.epochs[pdb.scheme_name] = pdb.epoch
        return result

    def _stage(self) -> Tuple[Database, Dict[StoredTable, StoredTable], CommitResult]:
        """Build, without publishing any of it, the logical database
        after this commit and the next version of every stored copy it
        touches (keyed by the current version); also returns the result,
        complete but for compaction and the epochs."""
        db = self.db.stage()
        result = CommitResult()
        #: current version -> the delta store of its next version
        deltas: Dict[StoredTable, DeltaStore] = {}
        per_table: Dict[Tuple[str, str], TableChange] = {}

        def change_for(pdb: PhysicalDatabase, table: str) -> TableChange:
            key = (pdb.scheme_name, table)
            if key not in per_table:
                per_table[key] = TableChange(scheme=pdb.scheme_name, table=table)
            return per_table[key]

        def delta_of(stored: StoredTable) -> DeltaStore:
            delta = deltas.get(stored, stored.delta)
            if delta is None:
                return DeltaStore(base_deleted=np.zeros(stored.stored_rows, dtype=bool))
            return delta

        for pdb in self.pdbs:
            result.scheme_metrics.setdefault(pdb.scheme_name, ExecutionMetrics())

        # ---- inserts, parents first --------------------------------------
        for table, rows in self._ordered_inserts():
            n_old, n_new = db.append_table_rows(table, rows)
            if n_new == 0:
                continue
            result.inserted[table] = result.inserted.get(table, 0) + n_new
            for pdb in self.pdbs:
                metrics = result.scheme_metrics[pdb.scheme_name]
                for stored in pdb.stored_copies(table):
                    delta = delta_of(stored)
                    run = place_delta_run(stored, db, n_old)
                    deltas[stored] = replace(delta, runs=delta.runs + (run,))
                    self._charge_insert(metrics, stored, n_new)
                # logical row counts: once per table, not per replica copy
                change_for(pdb, table).rows_inserted += n_new

        # ---- deletes, in declaration order -------------------------------
        for table, predicate in self._deletes:
            unknown = predicate.columns() - set(db.schema.table(table).column_names)
            if unknown:
                raise ValueError(
                    f"table {table!r} delete predicate references unknown "
                    f"columns: {sorted(unknown)}"
                )
            version = db.version(table)
            removed = db.delete_table_rows(
                table, version.gather([_matches(predicate, p.columns) for p in version.pieces])
            )
            if removed == 0:
                continue  # nothing matched anywhere: no marks, no epoch bump
            result.deleted[table] = result.deleted.get(table, 0) + removed
            for pdb in self.pdbs:
                metrics = result.scheme_metrics[pdb.scheme_name]
                for stored in pdb.stored_copies(table):
                    delta = delta_of(stored)
                    deltas[stored] = DeltaStore(
                        base_deleted=delta.base_deleted | _matches(predicate, stored.columns),
                        runs=tuple(
                            replace(run, deleted=run.deleted | _matches(predicate, run.columns))
                            for run in delta.runs
                        ),
                    )
                    metrics.charge_cpu(
                        (stored.stored_rows + delta.total_delta_rows)
                        * max(len(predicate.columns()), 1) * self.costs.expr_value,
                        "update",
                    )
                # logical deletion count, once per table (the db-side count;
                # stored-side marks may cover consolidated duplicates too)
                change_for(pdb, table).rows_deleted += removed

        result.changes = list(per_table.values())
        versions = {
            stored: replace(stored, delta=delta, epoch=stored.epoch + 1)
            for stored, delta in deltas.items()
        }
        return db, versions, result


def _matches(predicate: Expr, columns: Dict[str, np.ndarray]) -> np.ndarray:
    """Where ``predicate`` holds on ``columns``, reading only the columns
    it names (one, for the row count, when it names none)."""
    names = predicate.columns() or list(columns)[:1]
    return predicate.holds(Relation({name: columns[name] for name in names}))
