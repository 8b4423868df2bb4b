"""repro — a reproduction of "Automatic Schema Design for Co-Clustered
Tables" (Baumann, Boncz, Sattler; ICDE 2013).

The package implements Bitwise Dimensional Co-Clustering (BDCC) end to
end: the core dimension/interleaving machinery, the self-tuned table
builder (Algorithm 1), the automatic schema advisor (Algorithm 2), a
columnar storage and IO cost model, a vectorised relational executor with
selection pushdown / propagation and sandwich operators, the three
physical schemes the paper compares (Plain, PK, BDCC), and a full TPC-H
substrate (generator + all 22 queries) for the evaluation.

Quick start::

    from repro import tpch, BDCCScheme, Executor
    db = tpch.generate(scale_factor=0.01, seed=7)
    pdb = BDCCScheme().build(db)
    result = Executor(pdb).execute(tpch.queries.q06(db))
    print(result.rows, result.metrics.total_seconds)
"""

from .catalog import (
    BOOL,
    DATE,
    DECIMAL,
    FLOAT64,
    INT32,
    INT64,
    DataType,
    ForeignKey,
    IndexHint,
    Schema,
    SchemaError,
    Table,
    string_type,
)
from .core import (
    AdvisorConfig,
    BDCCBuildConfig,
    BDCCTable,
    Dimension,
    DimensionUse,
    SchemaAdvisor,
    SchemaDesign,
    assign_masks,
    assign_masks_major_minor,
    build_bdcc_table,
)
from .execution import (
    AggSpec,
    CostModel,
    Expr,
    Relation,
    col,
    days,
    lit,
    year,
)
from .planner import ExecutionOptions, Executor, Plan, QueryResult, scan
from .schemes import BDCCScheme, PhysicalDatabase, PlainScheme, PrimaryKeyScheme
from .storage import Database, DiskModel, MinMaxIndex, PageModel

__version__ = "1.0.0"

__all__ = [
    "BOOL", "DATE", "DECIMAL", "FLOAT64", "INT32", "INT64", "DataType",
    "ForeignKey", "IndexHint", "Schema", "SchemaError", "Table", "string_type",
    "AdvisorConfig", "BDCCBuildConfig", "BDCCTable", "Dimension",
    "DimensionUse", "SchemaAdvisor", "SchemaDesign",
    "assign_masks", "assign_masks_major_minor", "build_bdcc_table",
    "AggSpec", "CostModel", "Expr", "Relation", "col", "days", "lit", "year",
    "ExecutionOptions", "Executor", "Plan", "QueryResult", "scan",
    "BDCCScheme", "PhysicalDatabase", "PlainScheme", "PrimaryKeyScheme",
    "Database", "DiskModel", "MinMaxIndex", "PageModel",
    "__version__",
]
