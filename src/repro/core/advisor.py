"""Algorithm 2: semi-automatic BDCC schema design.

The advisor consumes nothing but classic DDL — declared foreign keys and
``CREATE INDEX`` statements interpreted as hints — and derives a fully
co-clustered schema:

(i)   traverse the schema DAG leaves-first (referenced tables before
      referencing ones); an index hint equal to an outgoing foreign key
      inherits *all* dimension uses of the referenced table with the FK
      identifier prepended to their paths; any other hint introduces a
      new dimension on its columns;
(ii)  create each dimension once, equi-frequency binned over the union of
      key values of all tables using it (each resolved over its path),
      granularity capped (``bits(D) <= max_dimension_bits``, paper: 13);
(iii) BDCC-cluster every table with at least one use via Algorithm 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..catalog import IndexHint, Schema
from ..storage.database import Database
from .bdcc_table import BDCCBuildConfig, BDCCTable, build_bdcc_table
from .dimension import Dimension
from .dimension_use import DimensionUse

__all__ = ["AdvisorConfig", "SchemaDesign", "SchemaAdvisor"]


@dataclass
class AdvisorConfig:
    """Advisor parameters (paper defaults)."""

    #: granularity cap for created dimensions, the paper's bits(D) <= 13.
    max_dimension_bits: int = 13
    #: cap on dimension uses per table (the paper's noted limitation on
    #: very large schemas: realistically 5-8 uses). None = unlimited.
    max_uses_per_table: Optional[int] = None
    #: Algorithm 1 knobs used in phase (iii).
    build: BDCCBuildConfig = field(default_factory=BDCCBuildConfig)


@dataclass
class SchemaDesign:
    """The advisor's output: dimensions plus per-table dimension uses."""

    dimensions: Dict[str, Dimension]
    table_uses: Dict[str, List[DimensionUse]]

    def uses_for(self, table: str) -> List[DimensionUse]:
        return self.table_uses.get(table, [])

    def describe_dimensions(self) -> List[Tuple[str, int, str, str]]:
        """Rows of the paper's dimension table:
        (dimension, bits, host table, key)."""
        rows = []
        for dim in self.dimensions.values():
            rows.append((dim.name, dim.bits, dim.table, ",".join(dim.key)))
        return rows


@dataclass
class _PendingDimension:
    """A dimension discovered in phase (i), created in phase (ii)."""

    name: str
    table: str
    key: Tuple[str, ...]
    #: (using_table, path) pairs for the usage-union histogram.
    usages: List[Tuple[str, Tuple[str, ...]]] = field(default_factory=list)


def _derive_dimension_name(hint: IndexHint) -> str:
    if hint.dimension_name:
        return hint.dimension_name
    return f"D_{hint.table.upper()}_{hint.columns[-1].upper()}"


class SchemaAdvisor:
    """Runs Algorithm 2 against a schema and its data."""

    def __init__(self, schema: Schema, config: Optional[AdvisorConfig] = None):
        self.schema = schema
        self.config = config or AdvisorConfig()
        #: every foreign key's parent rows this advisor's walks followed
        #: (``Database.parent_rows``): a design and its build probe each
        #: foreign key once, and nothing outlives the advisor
        self._walks: dict = {}

    # ------------------------------------------------------------ phase i
    def discover(self) -> Tuple[Dict[str, _PendingDimension], Dict[str, List[Tuple[str, Tuple[str, ...]]]]]:
        """Traverse the DAG and collect dimensions and per-table uses.

        Returns pending dimensions keyed by name and, per table, the list
        of ``(dimension_name, path)`` uses in discovery order.
        """
        pending: Dict[str, _PendingDimension] = {}
        uses: Dict[str, List[Tuple[str, Tuple[str, ...]]]] = {}
        by_identity: Dict[Tuple[str, Tuple[str, ...]], str] = {}

        for table in self.schema.leaves_first_order():
            table_uses: List[Tuple[str, Tuple[str, ...]]] = []
            for hint in self.schema.hints_for(table):
                fk = self.schema.find_foreign_key(table, hint.columns)
                if fk is not None:
                    # inherit the referenced table's uses, FK id in front
                    for dim_name, path in uses.get(fk.parent_table, []):
                        table_uses.append((dim_name, (fk.name,) + path))
                else:
                    identity = (table, tuple(hint.columns))
                    name = by_identity.get(identity)
                    if name is None:
                        name = _derive_dimension_name(hint)
                        if name in pending:
                            raise ValueError(
                                f"dimension name collision: {name!r} hinted on "
                                f"both {pending[name].table!r} and {table!r}"
                            )
                        pending[name] = _PendingDimension(name, table, tuple(hint.columns))
                        by_identity[identity] = name
                    table_uses.append((name, ()))
            if self.config.max_uses_per_table is not None:
                table_uses = table_uses[: self.config.max_uses_per_table]
            uses[table] = table_uses

        for table, table_uses in uses.items():
            for dim_name, path in table_uses:
                pending[dim_name].usages.append((table, path))
        return pending, uses

    # ----------------------------------------------------------- phase ii
    def create_dimensions(
        self, db: Database, pending: Dict[str, _PendingDimension]
    ) -> Dict[str, Dimension]:
        """Create each dimension from the union of key values across all
        tables that use it, joined over their dimension paths
        (Algorithm 2(ii), standing in for tech report [4]): the union is
        the host rows those tables' rows reach, with multiplicity, so
        each host row's key is encoded once."""
        dimensions: Dict[str, Dimension] = {}
        for name, spec in pending.items():
            host_values = [db.column(spec.table, attr) for attr in spec.key]
            reached: List[np.ndarray] = []
            for using_table, path in spec.usages:
                host, rows = db.walk_path(using_table, path, walks=self._walks)
                reached.append(np.arange(db.num_rows(host)) if rows is None else rows)
            dimensions[name] = Dimension.create(
                name=name,
                table=spec.table,
                key=spec.key,
                attribute_values=host_values,
                max_bits=self.config.max_dimension_bits,
                weight_rows=np.concatenate(reached) if reached else None,
            )
        return dimensions

    # -------------------------------------------------------------- design
    def design(self, db: Database) -> SchemaDesign:
        """Phases (i) + (ii): a schema design without materialisation."""
        pending, raw_uses = self.discover()
        dimensions = self.create_dimensions(db, pending)
        table_uses: Dict[str, List[DimensionUse]] = {}
        for table, entries in raw_uses.items():
            table_uses[table] = [
                DimensionUse(dimensions[dim_name], path) for dim_name, path in entries
            ]
        return SchemaDesign(dimensions=dimensions, table_uses=table_uses)

    def build(self, db: Database, design: Optional[SchemaDesign] = None) -> Dict[str, BDCCTable]:
        """Phase (iii): BDCC-cluster every table with uses (Algorithm 1)."""
        if design is None:
            design = self.design(db)
        built: Dict[str, BDCCTable] = {}
        for table in self.schema.table_names:
            uses = design.uses_for(table)
            if not uses:
                continue
            built[table] = build_bdcc_table(
                db, table, uses, self.config.build, walks=self._walks
            )
        return built
