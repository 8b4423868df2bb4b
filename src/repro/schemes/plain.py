"""The Plain scheme: tables stored in load (generation) order.

The paper's baseline "plain database without any indexing": full scans
everywhere, hash joins everywhere, no co-locality.  (MinMax indices still
exist — Vectorwise always builds them — but random load order gives them
nothing to prune.)
"""

from __future__ import annotations

from ..storage.database import Database
from ..storage.stored_table import StoredTable
from .base import PhysicalScheme

__all__ = ["PlainScheme"]


class PlainScheme(PhysicalScheme):
    name = "plain"

    def build_table(self, db: Database, table_name: str) -> StoredTable:
        return self._stored_table(db, table_name, row_source=None)
