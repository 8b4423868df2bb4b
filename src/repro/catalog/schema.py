"""Relational catalog: tables, keys, foreign keys and index hints.

This is the "classic DDL" input the paper's Algorithm 2 consumes: the
advisor looks only at declared foreign keys and ``CREATE INDEX``
statements (interpreted as BDCC hints), never at a workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ReproError
from .datatypes import DataType

__all__ = ["Column", "Table", "ForeignKey", "IndexHint", "Schema", "SchemaError"]


class SchemaError(ReproError, ValueError):
    """Raised for inconsistent catalog definitions or lookups."""


@dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    datatype: DataType

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name} {self.datatype.name}"


@dataclass
class Table:
    """A base table definition.

    Attributes:
        name: table name (unique within a :class:`Schema`).
        columns: ordered column definitions.
        primary_key: names of primary-key columns (may be empty).
    """

    name: str
    columns: List[Column]
    primary_key: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for col in self.columns:
            if col.name in seen:
                raise SchemaError(f"duplicate column {col.name!r} in table {self.name!r}")
            seen.add(col.name)
        for key_col in self.primary_key:
            if key_col not in seen:
                raise SchemaError(
                    f"primary key column {key_col!r} not in table {self.name!r}"
                )

    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    def has_column(self, name: str) -> bool:
        return any(c.name == name for c in self.columns)

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        raise SchemaError(f"no column {name!r} in table {self.name!r}")


@dataclass(frozen=True)
class ForeignKey:
    """A declared foreign key ``child(child_columns) -> parent(parent_columns)``.

    The identifier ``name`` is the ``FK_Ti_Tj`` of Definition 2; dimension
    paths are chains of these names.
    """

    name: str
    child_table: str
    child_columns: Tuple[str, ...]
    parent_table: str
    parent_columns: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.child_columns) != len(self.parent_columns):
            raise SchemaError(
                f"foreign key {self.name!r}: column count mismatch "
                f"{self.child_columns} -> {self.parent_columns}"
            )
        if not self.child_columns:
            raise SchemaError(f"foreign key {self.name!r} has no columns")


@dataclass(frozen=True)
class IndexHint:
    """A ``CREATE INDEX name ON table(columns)`` statement.

    Algorithm 2 treats these purely as BDCC hints: an index whose column
    set equals a foreign key requests co-clustering along that key; any
    other index introduces a new dimension on its columns.

    ``dimension_name`` optionally names the dimension a non-FK hint
    creates (the paper uses D_NATION / D_PART / D_DATE); the advisor
    otherwise derives ``D_<TABLE>_<LASTCOL>``.
    """

    name: str
    table: str
    columns: Tuple[str, ...]
    dimension_name: Optional[str] = None


class Schema:
    """A collection of tables, foreign keys and index hints.

    Provides the lookups the advisor needs: outgoing foreign keys per
    table and a leaves-first traversal order of the schema DAG (the
    *projection* of Algorithm 2 step (i): referenced tables before
    referencing tables).
    """

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}
        self._foreign_keys: Dict[str, ForeignKey] = {}
        self._index_hints: List[IndexHint] = []

    # ------------------------------------------------------------------ DDL
    def add_table(
        self,
        name: str,
        columns: Sequence[Tuple[str, DataType]],
        primary_key: Sequence[str] = (),
    ) -> Table:
        """Define a table from ``(name, datatype)`` pairs."""
        if name in self._tables:
            raise SchemaError(f"table {name!r} already defined")
        table = Table(name, [Column(n, t) for n, t in columns], tuple(primary_key))
        self._tables[name] = table
        return table

    def add_foreign_key(
        self,
        name: str,
        child_table: str,
        child_columns: Sequence[str],
        parent_table: str,
        parent_columns: Sequence[str] = (),
    ) -> ForeignKey:
        """Declare a foreign key; parent columns default to the parent PK."""
        child = self.table(child_table)
        parent = self.table(parent_table)
        if not parent_columns:
            parent_columns = parent.primary_key
            if not parent_columns:
                raise SchemaError(
                    f"foreign key {name!r}: parent {parent_table!r} has no primary key"
                )
        for col in child_columns:
            if not child.has_column(col):
                raise SchemaError(f"foreign key {name!r}: {child_table}.{col} missing")
        for col in parent_columns:
            if not parent.has_column(col):
                raise SchemaError(f"foreign key {name!r}: {parent_table}.{col} missing")
        if name in self._foreign_keys:
            raise SchemaError(f"foreign key {name!r} already defined")
        fkey = ForeignKey(name, child_table, tuple(child_columns), parent_table, tuple(parent_columns))
        self._foreign_keys[name] = fkey
        return fkey

    def add_index_hint(
        self,
        name: str,
        table: str,
        columns: Sequence[str],
        dimension_name: Optional[str] = None,
    ) -> IndexHint:
        """Record a ``CREATE INDEX`` statement (a BDCC hint)."""
        tbl = self.table(table)
        for col in columns:
            if not tbl.has_column(col):
                raise SchemaError(f"index {name!r}: {table}.{col} missing")
        hint = IndexHint(name, table, tuple(columns), dimension_name)
        self._index_hints.append(hint)
        return hint

    # -------------------------------------------------------------- lookups
    @property
    def tables(self) -> List[Table]:
        return list(self._tables.values())

    @property
    def table_names(self) -> List[str]:
        return list(self._tables)

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise SchemaError(f"unknown table {name!r}") from None

    def foreign_key(self, name: str) -> ForeignKey:
        try:
            return self._foreign_keys[name]
        except KeyError:
            raise SchemaError(f"unknown foreign key {name!r}") from None

    def outgoing_foreign_keys(self, table: str) -> List[ForeignKey]:
        """Foreign keys whose child is ``table``, in declaration order."""
        return [fk for fk in self._foreign_keys.values() if fk.child_table == table]

    def incoming_foreign_keys(self, table: str) -> List[ForeignKey]:
        """Foreign keys whose parent is ``table``, in declaration order."""
        return [fk for fk in self._foreign_keys.values() if fk.parent_table == table]

    def hints_for(self, table: str) -> List[IndexHint]:
        return [h for h in self._index_hints if h.table == table]

    def find_foreign_key(
        self, child_table: str, child_columns: Iterable[str]
    ) -> Optional[ForeignKey]:
        """The FK on ``child_table`` over exactly ``child_columns``, if any."""
        wanted = tuple(sorted(child_columns))
        for fk in self._foreign_keys.values():
            if fk.child_table == child_table and tuple(sorted(fk.child_columns)) == wanted:
                return fk
        return None

    # -------------------------------------------------------- introspection
    def key_columns(self, table: str) -> Tuple[str, ...]:
        """The primary-key columns of ``table`` (may be empty)."""
        return tuple(self.table(table).primary_key)

    def fk_child_columns(self, table: str) -> Tuple[str, ...]:
        """Columns of ``table`` participating in any outgoing foreign
        key, in declaration order, deduplicated — the columns whose
        predicates and joins BDCC pushdown/propagation act on."""
        seen: List[str] = []
        for fk in self.outgoing_foreign_keys(table):
            for column in fk.child_columns:
                if column not in seen:
                    seen.append(column)
        return tuple(seen)

    def hinted_columns(self, table: str) -> Tuple[str, ...]:
        """Columns of ``table`` named by ``CREATE INDEX`` hints — the
        dimension columns of Algorithm 2 (e.g. ``o_orderdate``)."""
        seen: List[str] = []
        for hint in self.hints_for(table):
            for column in hint.columns:
                if column not in seen:
                    seen.append(column)
        return tuple(seen)

    def plain_columns(self, table: str) -> Tuple[str, ...]:
        """Columns of ``table`` that are neither key, FK-child nor
        hinted: the columns no clustering scheme organises."""
        special = set(self.key_columns(table))
        special.update(self.fk_child_columns(table))
        special.update(self.hinted_columns(table))
        return tuple(
            c for c in self.table(table).column_names if c not in special
        )

    # ------------------------------------------------------------ traversal
    def leaves_first_order(self) -> List[str]:
        """Tables ordered so every referenced (parent) table precedes its
        referencing (child) tables — the traversal Algorithm 2 uses.

        Raises:
            SchemaError: if the foreign-key graph has a cycle.
        """
        remaining = dict.fromkeys(self._tables)
        order: List[str] = []
        while remaining:
            progress = False
            for name in list(remaining):
                parents = {
                    fk.parent_table
                    for fk in self.outgoing_foreign_keys(name)
                    if fk.parent_table != name
                }
                if parents.isdisjoint(remaining):
                    order.append(name)
                    del remaining[name]
                    progress = True
            if not progress:
                raise SchemaError(
                    f"foreign-key cycle among tables: {sorted(remaining)}"
                )
        return order
