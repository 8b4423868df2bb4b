"""Seeded random update batches for the differential oracle.

The generator draws *referential-integrity-safe* insert/delete batches
against any schema, the way :class:`~repro.workload.generator.PlanGenerator`
draws queries:

* **inserts** go to tables whose primary key can be kept unique
  mechanically — the PK is empty, or at least one PK column is not part
  of any outgoing foreign key (that column receives ``max+1..`` values;
  TPC-H: every table except PARTSUPP, whose PK is entirely foreign
  keys).  Foreign-key columns sample from the referenced keys currently
  live, other columns sample from the column's own current values — so
  domains stay realistic.  Occasionally a dimension-hinted numeric
  column is pushed *beyond* its observed domain, exercising the paper's
  out-of-domain clamping (new tuples land in the nearest existing bin,
  no renumbering);
* **deletes** target leaf tables only (no incoming foreign keys, so no
  dangling references) with a sampled predicate whose selectivity is
  capped — repeated rounds must not drain the table.

A batch depends only on ``(seed, index)`` and the current database
content, exactly like generated queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..catalog import Schema
from ..execution.expressions import Between, Cmp, Col, Const, Expr
from ..storage.database import Database

__all__ = ["UpdateBatch", "UpdateGenerator"]

_MAX_DELETE_FRACTION = 0.15


@dataclass
class UpdateBatch:
    """One commit's worth of randomized changes."""

    seed: int
    index: int
    inserts: List[Tuple[str, Dict[str, np.ndarray]]] = field(default_factory=list)
    deletes: List[Tuple[str, Expr]] = field(default_factory=list)
    description: str = ""

    @property
    def is_empty(self) -> bool:
        return not self.inserts and not self.deletes

    def apply(self, session) -> None:
        """Stage the batch into an :class:`~repro.updates.UpdateSession`
        (the caller commits)."""
        for table, rows in self.inserts:
            session.insert_rows(table, rows)
        for table, predicate in self.deletes:
            session.delete_where(table, predicate)


class UpdateGenerator:
    """Draws random valid update batches against one logical database."""

    def __init__(self, db: Database):
        self.db = db
        self.schema: Schema = db.schema

    # ---------------------------------------------------------- candidates
    def insertable_tables(self) -> List[str]:
        """Tables whose primary key we can keep unique: empty PK, or a
        PK column free of foreign-key constraints to carry fresh
        ``max+1..`` values."""
        out = []
        for table in self.db.loaded_tables:
            if self.db.num_rows(table) == 0:
                continue
            pk = self.schema.key_columns(table)
            if not pk:
                out.append(table)
                continue
            fk_cols = set(self.schema.fk_child_columns(table))
            free = [c for c in pk if c not in fk_cols]
            if free and all(
                self.db.column(table, c).dtype.kind in "iu" for c in free
            ):
                out.append(table)
        return out

    def deletable_tables(self) -> List[str]:
        """Leaf tables: deleting their rows can never dangle a foreign
        key."""
        return [
            table
            for table in self.db.loaded_tables
            if not self.schema.incoming_foreign_keys(table)
            and self.db.num_rows(table) > 20
        ]

    # ------------------------------------------------------------- inserts
    def _make_insert(
        self, rng: np.random.RandomState, table: str, n_rows: int
    ) -> Dict[str, np.ndarray]:
        definition = self.schema.table(table)
        pk = set(self.schema.key_columns(table))
        fk_cols = set(self.schema.fk_child_columns(table))
        free_pk = [c for c in self.schema.key_columns(table) if c not in fk_cols]
        hinted = set(self.schema.hinted_columns(table))

        rows: Dict[str, np.ndarray] = {}
        # foreign-key columns sample parent key *tuples* jointly, widest
        # FK first — a composite key like LINEITEM's (l_partkey,
        # l_suppkey) must name an existing PARTSUPP pair, which then also
        # satisfies the single-column FKs to PART and SUPPLIER
        for fk in sorted(
            self.schema.outgoing_foreign_keys(table),
            key=lambda f: -len(f.child_columns),
        ):
            if any(c in rows for c in fk.child_columns):
                continue
            parent_rows = self.db.num_rows(fk.parent_table)
            picks = rng.randint(0, parent_rows, n_rows)
            for child_col, parent_col in zip(fk.child_columns, fk.parent_columns):
                rows[child_col] = self.db.column(fk.parent_table, parent_col)[picks]
        clamp_target: Optional[str] = None
        numeric_hinted = [
            c for c in hinted
            if c not in pk and c not in fk_cols
            and self.db.column(table, c).dtype.kind in "iuf"
        ]
        if numeric_hinted and rng.random_sample() < 0.2:
            clamp_target = numeric_hinted[int(rng.randint(len(numeric_hinted)))]

        for column in definition.column_names:
            if column in rows and column not in free_pk:
                continue  # assigned from a parent key tuple
            values = self.db.column(table, column)
            if column in free_pk:
                start = values.max() + 1 if len(values) else 1
                rows[column] = (start + np.arange(n_rows)).astype(values.dtype)
            else:
                picks = rng.randint(0, len(values), n_rows)
                sampled = values[picks]
                if column == clamp_target:
                    # beyond the observed domain: bins must clamp
                    span = values.max() - values.min()
                    sampled = sampled + (span + 1)
                rows[column] = sampled
        return rows

    # ------------------------------------------------------------- deletes
    def _make_delete(
        self, rng: np.random.RandomState, table: str
    ) -> Optional[Expr]:
        """A predicate deleting a bounded fraction of the table."""
        numeric = [
            c for c in self.schema.table(table).column_names
            if self.db.column(table, c).dtype.kind in "iuf"
        ]
        if not numeric:
            return None
        data = self.db.table_data(table)
        n = self.db.num_rows(table)
        for _ in range(4):
            column = numeric[int(rng.randint(len(numeric)))]
            values = data[column]
            a = values[int(rng.randint(n))]
            b = values[int(rng.randint(n))]
            low, high = (a, b) if a <= b else (b, a)
            predicate: Expr = Between(Col(column), Const(low), Const(high))
            frac = np.count_nonzero((values >= low) & (values <= high)) / n
            if frac <= _MAX_DELETE_FRACTION:
                return predicate
        # fall back to a point delete on a sampled value
        column = numeric[int(rng.randint(len(numeric)))]
        value = data[column][int(rng.randint(n))]
        return Cmp("==", Col(column), Const(value))

    # -------------------------------------------------------------- public
    def generate(self, seed: int, index: int) -> UpdateBatch:
        """The batch for ``(seed, index)``; deterministic for a given
        database state.  Round 0 is insert-only: the seeded batch
        sequence is pinned, and every later round draws from it."""
        rng = np.random.RandomState([seed & 0x7FFFFFFF, (index + 0x5EED) & 0x7FFFFFFF])
        batch = UpdateBatch(seed=seed, index=index)
        shape: List[str] = []

        insertable = self.insertable_tables()
        want_inserts = index == 0 or rng.random_sample() < 0.8
        if want_inserts and insertable:
            num_tables = 1 + int(rng.random_sample() < 0.4)
            chosen: List[str] = []
            for _ in range(num_tables):
                table = insertable[int(rng.randint(len(insertable)))]
                if table not in chosen:
                    chosen.append(table)
            # parents before children so same-commit FK references resolve
            order = {t: i for i, t in enumerate(self.schema.leaves_first_order())}
            for table in sorted(chosen, key=lambda t: order.get(t, len(order))):
                n_rows = int(rng.randint(8, 48))
                batch.inserts.append((table, self._make_insert(rng, table, n_rows)))
                shape.append(f"+{n_rows} {table}")

        if index > 0 and rng.random_sample() < 0.5:
            deletable = self.deletable_tables()
            if deletable:
                table = deletable[int(rng.randint(len(deletable)))]
                predicate = self._make_delete(rng, table)
                if predicate is not None:
                    batch.deletes.append((table, predicate))
                    shape.append(f"-{table} where ...")

        batch.description = (
            f"update seed={seed} round={index}: " + (", ".join(shape) or "no-op")
        )
        return batch
