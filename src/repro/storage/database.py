"""In-memory logical database: schema + column vectors per table.

This is the *logical* content a physical scheme (plain / PK / BDCC)
re-organises.  Columns are numpy arrays; rows across the arrays of one
table are aligned.  A table is a :class:`TableVersion` with the shape of
a stored table's update state: its base columns, one appended run per
committed insert batch and one deletion bitmap per piece.  An append or
a delete binds a new version that shares every old piece and adds at
most the batch and new bitmaps, so a write copies its batch, never the
table; readers see the merged rows, a column merged the first time it
is read.  Parent-key lookup indices support foreign-key traversal
(dimension paths, referential-integrity checks).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..catalog import Schema
from .keys import encode_join_keys, match_keys
from .memo import derive

__all__ = ["Database", "TablePiece", "TableVersion", "lookup_rows"]


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
class TablePiece:
    """The base columns of a logical table, or one appended run: rows
    nothing writes, shared by every version that holds the piece, so a
    fact derived on it (a host predicate's mask) outlives commits."""

    columns: Dict[str, np.ndarray]


@dataclass(frozen=True, eq=False)
class TableVersion(Mapping):
    """One version of a logical table: the base, the runs appended since
    the last fold in commit order, and one deletion bitmap per piece
    (base first).  The rows it holds are the base rows not deleted,
    then each run's rows not deleted.

    The version is also the read-only mapping of its merged columns by
    name, whose lookups merge (so nothing it memoises refers back to it:
    a version dropped by its database is freed at once)."""

    base: TablePiece
    runs: Tuple[TablePiece, ...]
    deleted: Tuple[np.ndarray, ...]

    # a version is equal only to itself, not to a mapping of equal columns
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __getitem__(self, name: str) -> np.ndarray:
        if name not in self.base.columns:
            raise KeyError(name)
        return self.column(name)

    def __contains__(self, name) -> bool:
        return name in self.base.columns

    def __iter__(self) -> Iterator[str]:
        return iter(self.base.columns)

    def __len__(self) -> int:
        return len(self.base.columns)

    @classmethod
    def of(cls, columns: Dict[str, np.ndarray]) -> "TableVersion":
        """A version whose rows are ``columns``, none deleted."""
        rows = len(next(iter(columns.values()))) if columns else 0
        return cls(TablePiece(columns), (), (np.zeros(rows, dtype=bool),))

    @property
    def pieces(self) -> Tuple[TablePiece, ...]:
        return (self.base,) + self.runs

    @property
    def live(self) -> Tuple[Optional[np.ndarray], ...]:
        """Per piece, the mask of its rows not deleted, or None where
        none is."""
        return derive(self, ("live",), lambda: tuple(
            ~deleted if deleted.any() else None for deleted in self.deleted
        ))

    @property
    def is_flat(self) -> bool:
        """No runs and no deletions: the base arrays are the rows."""
        return not self.runs and self.live[0] is None

    @property
    def num_rows(self) -> int:
        return derive(self, ("num_rows",), lambda: sum(
            len(deleted) - int(np.count_nonzero(deleted)) for deleted in self.deleted
        ))

    def gather(self, per_piece: Sequence[np.ndarray]) -> np.ndarray:
        """The merged-rows array of one array per piece (a column, or a
        mask): each piece's rows not deleted, in piece order.  A flat
        version's is the base array itself."""
        if self.is_flat:
            return per_piece[0]
        parts = [
            values if live is None else values[live]
            for values, live in zip(per_piece, self.live)
        ]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def column(self, name: str) -> np.ndarray:
        """One merged column, merged on first read and kept."""
        return derive(self, ("column", name), lambda: self.gather(
            [piece.columns[name] for piece in self.pieces]
        ))

    def dtype(self, name: str) -> np.dtype:
        """The merged column's dtype, known without merging."""
        return np.result_type(*(piece.columns[name] for piece in self.pieces))

    def derive_per_piece(self, key, build: Callable[[Dict[str, np.ndarray]], np.ndarray]):
        """The merged-rows array whose piece arrays ``build(piece_columns)``
        makes, memoised under ``key`` on each piece and on the version:
        a new version pays only for the runs it added."""
        return derive(self, key, lambda: self.gather([
            derive(piece, key, lambda piece=piece: build(piece.columns))
            for piece in self.pieces
        ]))


class Database:
    """Schema plus per-table column data.

    ``scale_factor`` is optional metadata set by generators whose
    workloads are parameterised by data volume (TPC-H Q11's threshold).
    ``copied_bytes`` counts the bytes of the arrays that appends and
    deletes allocated here: what a staged commit copies.
    """

    def __init__(self, schema: Schema, scale_factor: Optional[float] = None):
        self.schema = schema
        self.scale_factor = scale_factor
        self.copied_bytes = 0
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
        self._tables[table] = TableVersion.of(
            {name: np.asarray(columns[name]) for name in definition.column_names}
        )

    def version(self, table: str) -> TableVersion:
        try:
            return self._tables[table]
        except KeyError:
            raise KeyError(f"no data loaded for table {table!r}") from None

    def table_data(self, table: str) -> TableVersion:
        """The table's merged columns: its version, a read-only mapping."""
        return self.version(table)

    def column(self, table: str, column: str) -> np.ndarray:
        return self.version(table).column(column)

    def num_rows(self, table: str) -> int:
        return self.version(table).num_rows

    # ------------------------------------------------------------- updates
    def stage(self) -> "Database":
        """A copy to stage a commit on: the same schema and table versions
        under a table map of its own, counting its own ``copied_bytes``.
        Appends and deletes bind a new version in that map and never
        write an array, so nothing the copy does is seen here until
        :meth:`publish`."""
        staged = Database(self.schema, self.scale_factor)
        staged._tables = dict(self._tables)
        return staged

    def publish(self, staged: "Database") -> None:
        """Make a staged copy's tables this database's, all at once."""
        self._tables = staged._tables

    def append_table_rows(self, table: str, rows: Dict[str, np.ndarray]) -> Tuple[int, int]:
        """Append complete rows as one new run of the table, after every
        row it holds; the run is a copy of the batch.

        Returns ``(n_old, n_new)``.  Numeric columns keep the table's
        dtype; string columns may widen (numpy promotion), never truncate.
        """
        definition = self.schema.table(table)
        version = self.version(table)
        missing = set(definition.column_names) - set(rows)
        if missing:
            raise ValueError(f"table {table!r} insert missing columns: {sorted(missing)}")
        lengths = {len(np.asarray(v)) for v in rows.values()}
        if len(lengths) != 1:
            raise ValueError(f"table {table!r}: ragged insert batch {lengths}")
        n_new = lengths.pop()
        n_old = version.num_rows
        if n_new == 0:
            return n_old, 0
        run: Dict[str, np.ndarray] = {}
        for name in definition.column_names:
            dtype, extra = version.dtype(name), np.asarray(rows[name])
            run[name] = np.array(extra, dtype=dtype if dtype.kind in "iuf" else extra.dtype)
        deleted = np.zeros(n_new, dtype=bool)
        self._tables[table] = replace(
            version,
            runs=version.runs + (TablePiece(run),),
            deleted=version.deleted + (deleted,),
        )
        self.copied_bytes += sum(values.nbytes for values in run.values()) + deleted.nbytes
        return n_old, n_new

    def delete_table_rows(self, table: str, mask: np.ndarray) -> int:
        """Delete the rows where ``mask`` (over the merged rows) is True;
        returns the number removed.  Each piece the mask hits gets a new
        bitmap, the old one or-ed with the hits; no column is touched.
        Callers maintain referential integrity (delete children before,
        or together with, their parents)."""
        version = self.version(table)
        mask = np.asarray(mask, dtype=bool)
        if len(mask) != version.num_rows:
            raise ValueError(f"table {table!r}: delete mask length mismatch")
        removed = int(np.count_nonzero(mask))
        if removed == 0:
            return 0
        bitmaps: List[np.ndarray] = []
        start = 0
        for deleted, live in zip(version.deleted, version.live):
            n_live = len(deleted) if live is None else int(np.count_nonzero(live))
            hits = mask[start:start + n_live]
            start += n_live
            if not hits.any():
                bitmaps.append(deleted)
                continue
            if live is None:
                bitmap = hits.copy()
            else:
                bitmap = deleted.copy()
                bitmap[live] = hits
            bitmaps.append(bitmap)
            self.copied_bytes += bitmap.nbytes
        self._tables[table] = replace(version, deleted=tuple(bitmaps))
        return removed

    def fold(self, table: str) -> int:
        """Fold the table's pieces into a new base holding its merged
        rows, with no runs and no deletions (what compacting a stored
        copy of the table does to that copy); returns the bytes of the
        arrays the new version allocated.  The rows do not change."""
        version = self.version(table)
        if version.is_flat:
            return 0
        folded = TableVersion.of(dict(version))
        self._tables[table] = folded
        return folded.deleted[0].nbytes + sum(
            values.nbytes for values in folded.base.columns.values()
        )

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

    def walk_path(
        self, table: str, path: Sequence[str], rows: Optional[np.ndarray] = None
    ) -> Tuple[str, Optional[np.ndarray]]:
        """Follow a dimension path's foreign keys from ``table``
        (Definition 2).

        Returns the table the path ends at (a dimension's host table)
        and, for each row of ``table`` — or of the subset ``rows`` — the
        index of the row it reaches there.  The index is ``None`` for an
        empty path over every row: each row reaches itself.  A dangling
        reference raises ``ValueError``.
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
        return current, rows

    def resolve_path_values(
        self,
        table: str,
        path: Sequence[str],
        attributes: Sequence[str],
        rows: Optional[np.ndarray] = None,
    ) -> List[np.ndarray]:
        """Dimension-key attribute values for each row of ``table``,
        resolved over the dimension path: :meth:`walk_path`, then a
        gather of the host table's attributes.

        With an empty path the attributes are local to ``table``.  With
        ``rows`` only that subset of the table's rows is resolved (the
        incremental update path bins just the appended rows).
        """
        host, rows = self.walk_path(table, path, rows)
        data = self.table_data(host)
        if rows is None:
            return [data[a] for a in attributes]
        return [data[a][rows] for a in attributes]
