"""The PK scheme: every table sorted on its primary key.

The paper's second baseline: LINEITEM-ORDERS and PARTSUPP-PART share
major key prefixes, so those joins become merge joins, and Q18's
aggregation on ``l_orderkey`` streams.  But "many attributes that queries
select on do not group the primary key": no selection pushdown, no
co-locality for the remaining tables.
"""

from __future__ import annotations

import numpy as np

from ..storage.database import Database
from ..storage.stored_table import StoredTable
from .base import PhysicalScheme

__all__ = ["PrimaryKeyScheme"]


class PrimaryKeyScheme(PhysicalScheme):
    name = "pk"

    def build_table(self, db: Database, table_name: str) -> StoredTable:
        definition = db.schema.table(table_name)
        pk = definition.primary_key
        if not pk:
            return self._stored_table(db, table_name, row_source=None)
        data = db.table_data(table_name)
        # lexsort: last key is primary
        order = np.lexsort(tuple(data[c] for c in reversed(pk)))
        return self._stored_table(db, table_name, row_source=order, sort_columns=pk)
