"""The BDCC scheme: advisor-designed co-clustered layout.

Runs Algorithm 2 (the :class:`~repro.core.advisor.SchemaAdvisor`) over
the declared DDL and clusters every table with at least one dimension use
via Algorithm 1; tables without uses (e.g. TPC-H REGION) stay in load
order.  The resulting :class:`StoredTable` carries the
:class:`~repro.core.bdcc_table.BDCCTable` metadata the executor needs for
pushdown, propagation and sandwiching.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.advisor import AdvisorConfig, SchemaAdvisor, SchemaDesign
from ..core.bdcc_table import BDCCTable
from ..storage.database import Database
from ..storage.pages import PageModel
from ..storage.stored_table import StoredTable
from .base import PhysicalDatabase, PhysicalScheme

__all__ = ["BDCCScheme"]


class BDCCScheme(PhysicalScheme):
    """The advisor-designed scheme.

    ``replica_uses`` opts into the paper's future-work replication: per
    table, a list of *use-index subsets* of the advisor's design — each
    subset becomes an extra physical copy clustered on just those
    dimension uses (e.g. a LINEITEM replica on the part/supplier
    dimensions next to the primary date/customer clustering).  The
    executor chooses the best copy per scan.
    """

    name = "bdcc"

    def __init__(
        self,
        advisor_config: Optional[AdvisorConfig] = None,
        page_model: Optional[PageModel] = None,
        replica_uses: Optional[Dict[str, list]] = None,
    ):
        super().__init__(page_model)
        self.advisor_config = advisor_config or AdvisorConfig()
        self.replica_uses = replica_uses or {}
        self.design: Optional[SchemaDesign] = None
        self._built: Dict[str, BDCCTable] = {}

    def build(self, db: Database) -> PhysicalDatabase:
        advisor = SchemaAdvisor(db.schema, self.advisor_config)
        self.design = advisor.design(db)
        self._built = advisor.build(db, self.design)
        return super().build(db)

    def build_table(self, db: Database, table_name: str) -> StoredTable:
        bdcc = self._built.get(table_name)
        if bdcc is None:
            return self._stored_table(db, table_name, row_source=None)
        return self._stored_table(
            db, table_name, row_source=bdcc.row_source, bdcc=bdcc
        )

    def build_replicas(self, db: Database) -> Dict[str, list]:
        from ..core.bdcc_table import build_bdcc_table

        replicas: Dict[str, list] = {}
        for table_name, subsets in self.replica_uses.items():
            base_uses = self.design.uses_for(table_name) if self.design else []
            if not base_uses:
                raise ValueError(
                    f"cannot replicate {table_name!r}: no dimension uses"
                )
            copies = []
            for subset in subsets:
                uses = [base_uses[i] for i in subset]
                bdcc = build_bdcc_table(db, table_name, uses, self.advisor_config.build)
                copies.append(
                    self._stored_table(
                        db, table_name, row_source=bdcc.row_source, bdcc=bdcc
                    )
                )
            replicas[table_name] = copies
        return replicas
