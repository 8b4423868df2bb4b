"""Physical schemes: how a logical database is laid out on disk.

The paper's evaluation compares three configurations of the *same*
system: Plain (load order, no indexing), PK (primary-key sorted — the
classical merge-join-friendly layout) and BDCC (advisor-designed
co-clustering).  A :class:`PhysicalScheme` builds a
:class:`PhysicalDatabase` — one row order per table, each column
gathered into it when first read; the executor consumes the latter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np

from ..catalog import Schema
from ..core.bdcc_table import BDCCTable
from ..storage.database import Database, IndexedColumns
from ..storage.pages import PageModel
from ..storage.stored_table import StoredTable

__all__ = ["PhysicalDatabase", "PhysicalScheme"]


@dataclass
class PhysicalDatabase:
    """A logical database materialised under one physical scheme.

    ``replicas`` optionally holds additional physical copies of a table
    clustered on different dimension subsets (the paper's future-work
    direction (ii)); the executor picks, per scan, the copy whose groups
    the query's restrictions prune hardest.

    The stored tables are values; this object is where the current
    version of each is found.  :meth:`publish` swaps next versions in
    by building new ``stored`` and ``replicas`` maps, so whoever holds a
    table — or an old map — keeps reading what it held.
    """

    scheme_name: str
    database: Database
    stored: Dict[str, StoredTable]
    replicas: Dict[str, list] = field(default_factory=dict)

    @property
    def schema(self) -> Schema:
        return self.database.schema

    def bdcc_tables(self) -> Dict[str, BDCCTable]:
        return {
            name: table.bdcc for name, table in self.stored.items() if table.bdcc is not None
        }

    def table(self, name: str) -> StoredTable:
        return self.stored[name]

    def stored_copies(self, name: str) -> List[StoredTable]:
        """Every physical copy of a table: the primary plus replicas.
        The update path maintains delta state on each."""
        return [self.stored[name], *self.replicas.get(name, ())]

    def publish(self, versions: Mapping[StoredTable, StoredTable]) -> None:
        """Make each ``old -> new`` of ``versions`` current, all at once;
        tables of other databases in ``versions`` are ignored."""
        self.stored = {name: versions.get(t, t) for name, t in self.stored.items()}
        self.replicas = {
            name: [versions.get(t, t) for t in copies]
            for name, copies in self.replicas.items()
        }

    @property
    def epoch(self) -> int:
        """Monotonic update counter over all stored tables (primary and
        replica copies); plan caches key on it so no cached plan survives
        a commit or compaction."""
        total = sum(t.epoch for t in self.stored.values())
        for copies in self.replicas.values():
            total += sum(t.epoch for t in copies)
        return total


class PhysicalScheme:
    """Base class; subclasses order rows and attach metadata per table."""

    name = "abstract"

    def __init__(self, page_model: Optional[PageModel] = None):
        self.page_model = page_model or PageModel()

    def build(self, db: Database) -> PhysicalDatabase:
        stored: Dict[str, StoredTable] = {}
        for table_name in db.loaded_tables:
            stored[table_name] = self.build_table(db, table_name)
        return PhysicalDatabase(self.name, db, stored, self.build_replicas(db))

    def build_replicas(self, db: Database) -> Dict[str, list]:
        """Additional physical copies per table; none by default."""
        return {}

    def build_table(self, db: Database, table_name: str) -> StoredTable:
        raise NotImplementedError

    # ------------------------------------------------------------ helpers
    def _stored_table(
        self,
        db: Database,
        table_name: str,
        row_source: Optional[np.ndarray],
        sort_columns=(),
        bdcc=None,
    ) -> StoredTable:
        """The table stored in ``row_source`` order (load order where it
        is None).  Nothing is copied here: the stored table's columns
        gather from the pieces of the table's current logical version
        as they are first read
        (:class:`~repro.storage.database.IndexedColumns`).  A
        ``row_source`` that is the load order — a PK sort of a table
        loaded sorted on its key — is dropped there, so such a copy
        hands out the logical arrays themselves."""
        return StoredTable(
            name=table_name,
            definition=db.schema.table(table_name),
            columns=IndexedColumns(db.table_data(table_name), row_source),
            page_model=self.page_model,
            sort_columns=tuple(sort_columns),
            bdcc=bdcc,
        )
