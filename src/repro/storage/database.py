"""In-memory logical database: schema + column vectors per table.

This is the *logical* content a physical scheme (plain / PK / BDCC)
re-organises.  Columns are numpy arrays; rows across the arrays of one
table are aligned.  A table is a :class:`TableVersion`, which an append or
delete replaces.  Parent-key lookup indices support foreign-key
traversal (dimension paths, referential-integrity checks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..catalog import Schema
from .keys import encode_join_keys, match_keys

__all__ = ["Database", "TableVersion", "lookup_rows"]


def lookup_rows(
    key_columns: Sequence[np.ndarray], probe_columns: Sequence[np.ndarray]
) -> np.ndarray:
    """Row index in the keyed table for each probe tuple, or -1.

    ``key_columns`` must form a unique key (e.g. a primary key): the
    lookup is the join probe with the keyed table as its unique build
    side, where a matched probe's run start is the row itself.
    """
    if len(key_columns) != len(probe_columns):
        raise ValueError("key/probe column count mismatch")
    probes, keys = encode_join_keys(probe_columns, key_columns)
    order, lo, counts = match_keys(probes, keys)
    rows = np.full(len(probes), -1, dtype=np.int64)
    found = counts > 0
    rows[found] = order[lo[found]]
    return rows


@dataclass(frozen=True, eq=False)
class TableVersion:
    """One version of a logical table's columns; nothing writes them."""

    columns: Dict[str, np.ndarray]


class Database:
    """Schema plus per-table column data.

    ``scale_factor`` is optional metadata set by generators whose
    workloads are parameterised by data volume (TPC-H Q11's threshold).
    """

    def __init__(self, schema: Schema, scale_factor: Optional[float] = None):
        self.schema = schema
        self.scale_factor = scale_factor
        self._tables: Dict[str, TableVersion] = {}

    # --------------------------------------------------------------- data
    def add_table_data(self, table: str, columns: Dict[str, np.ndarray]) -> None:
        definition = self.schema.table(table)
        missing = set(definition.column_names) - set(columns)
        if missing:
            raise ValueError(f"table {table!r} missing columns: {sorted(missing)}")
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"table {table!r}: ragged column lengths {lengths}")
        self._tables[table] = TableVersion(
            {name: np.asarray(columns[name]) for name in definition.column_names}
        )

    def version(self, table: str) -> TableVersion:
        try:
            return self._tables[table]
        except KeyError:
            raise KeyError(f"no data loaded for table {table!r}") from None

    def table_data(self, table: str) -> Dict[str, np.ndarray]:
        return self.version(table).columns

    def column(self, table: str, column: str) -> np.ndarray:
        return self.table_data(table)[column]

    def num_rows(self, table: str) -> int:
        data = self.table_data(table)
        if not data:
            return 0
        return len(next(iter(data.values())))

    # ------------------------------------------------------------- updates
    def stage(self) -> "Database":
        """A copy to stage a commit on: the same schema and table versions
        under a table map of its own.  Appends and deletes bind a new
        version in that map and never write an array, so nothing the
        copy does is seen here until :meth:`publish`."""
        staged = Database(self.schema, self.scale_factor)
        staged._tables = dict(self._tables)
        return staged

    def publish(self, staged: "Database") -> None:
        """Make a staged copy's tables this database's, all at once."""
        self._tables = staged._tables

    def append_table_rows(self, table: str, rows: Dict[str, np.ndarray]) -> Tuple[int, int]:
        """Append complete rows at the end of a table's arrays.

        Returns ``(n_old, n_new)``.  Numeric columns keep the table's
        dtype; string columns may widen (numpy promotion), never truncate.
        """
        definition = self.schema.table(table)
        data = self.table_data(table)
        missing = set(definition.column_names) - set(rows)
        if missing:
            raise ValueError(f"table {table!r} insert missing columns: {sorted(missing)}")
        lengths = {len(np.asarray(v)) for v in rows.values()}
        if len(lengths) != 1:
            raise ValueError(f"table {table!r}: ragged insert batch {lengths}")
        n_new = lengths.pop()
        n_old = self.num_rows(table)
        if n_new == 0:
            return n_old, 0
        merged: Dict[str, np.ndarray] = {}
        for name in definition.column_names:
            base = data[name]
            extra = np.asarray(rows[name])
            if base.dtype.kind in "iuf" and extra.dtype != base.dtype:
                extra = extra.astype(base.dtype)
            merged[name] = np.concatenate([base, extra])
        self._tables[table] = TableVersion(merged)
        return n_old, n_new

    def delete_table_rows(self, table: str, mask: np.ndarray) -> int:
        """Physically remove the rows where ``mask`` is True; returns the
        number removed.  Callers maintain referential integrity (delete
        children before, or together with, their parents)."""
        data = self.table_data(table)
        mask = np.asarray(mask, dtype=bool)
        if len(mask) != self.num_rows(table):
            raise ValueError(f"table {table!r}: delete mask length mismatch")
        removed = int(np.count_nonzero(mask))
        if removed == 0:
            return 0
        keep = ~mask
        self._tables[table] = TableVersion({name: values[keep] for name, values in data.items()})
        return removed

    @property
    def loaded_tables(self) -> List[str]:
        return list(self._tables)

    # ------------------------------------------------------- FK traversal
    def follow_foreign_key(
        self, fk_name: str, child_rows: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Parent-row index for each child row (or the given subset).

        Returns -1 for dangling references (none occur in generated data;
        tests assert this).
        """
        fk = self.schema.foreign_key(fk_name)
        child_data = self.table_data(fk.child_table)
        parent_data = self.table_data(fk.parent_table)
        probe_cols = [child_data[c] for c in fk.child_columns]
        if child_rows is not None:
            probe_cols = [col[child_rows] for col in probe_cols]
        key_cols = [parent_data[c] for c in fk.parent_columns]
        return lookup_rows(key_cols, probe_cols)

    def resolve_path_values(
        self,
        table: str,
        path: Sequence[str],
        attributes: Sequence[str],
        rows: Optional[np.ndarray] = None,
    ) -> List[np.ndarray]:
        """Dimension-key attribute values for each row of ``table``,
        resolved over the dimension path (Definition 2).

        With an empty path the attributes are local to ``table``.  With
        ``rows`` only that subset of the table's rows is resolved (the
        incremental update path bins just the appended rows).
        """
        if rows is not None:
            rows = np.asarray(rows, dtype=np.int64)
        current = table
        for fk_name in path:
            fk = self.schema.foreign_key(fk_name)
            if fk.child_table != current:
                raise ValueError(
                    f"path step {fk_name!r} starts at {fk.child_table!r}, "
                    f"expected {current!r}"
                )
            parent_rows = self.follow_foreign_key(fk_name, rows)
            if np.any(parent_rows < 0):
                raise ValueError(
                    f"dangling foreign key {fk_name!r} while resolving path"
                )
            rows = parent_rows
            current = fk.parent_table
        data = self.table_data(current)
        if rows is None:
            return [data[a] for a in attributes]
        return [data[a][rows] for a in attributes]
