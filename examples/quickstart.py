"""Quickstart: automatic BDCC design for a small retail star schema.

Builds a sales database from plain DDL (foreign keys + CREATE INDEX
hints), lets Algorithm 2 derive a co-clustered schema, and compares a
filtered join query against unclustered storage.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    DATE,
    INT32,
    DECIMAL,
    AggSpec,
    BDCCScheme,
    Database,
    Executor,
    PlainScheme,
    Schema,
    col,
    scan,
    string_type,
)
from repro.planner import format_physical_plan


def build_catalog() -> Schema:
    schema = Schema()
    schema.add_table("store", [
        ("st_id", INT32),
        ("st_region", string_type(10)),
    ], primary_key=["st_id"])
    schema.add_table("product", [
        ("pr_id", INT32),
        ("pr_category", string_type(12)),
        ("pr_price", DECIMAL),
    ], primary_key=["pr_id"])
    schema.add_table("sale", [
        ("sa_id", INT32),
        ("sa_store", INT32),
        ("sa_product", INT32),
        ("sa_day", DATE),
        ("sa_qty", INT32),
        ("sa_note", string_type(64)),
    ], primary_key=["sa_id"])
    schema.add_foreign_key("FK_SA_ST", "sale", ["sa_store"], "store")
    schema.add_foreign_key("FK_SA_PR", "sale", ["sa_product"], "product")

    # classic DDL hints: two dimensions + the FK references to co-cluster on
    schema.add_index_hint("region_idx", "store", ["st_region"], dimension_name="D_REGION")
    schema.add_index_hint("day_idx", "sale", ["sa_day"], dimension_name="D_DAY")
    schema.add_index_hint("sale_store_idx", "sale", ["sa_store"])
    return schema


def build_data(schema: Schema, n_sales: int = 200_000, seed: int = 42) -> Database:
    rng = np.random.default_rng(seed)
    db = Database(schema, scale_factor=0.02)
    regions = np.array(["north", "south", "east", "west"])
    db.add_table_data("store", {
        "st_id": np.arange(64, dtype=np.int32),
        "st_region": regions[np.arange(64) % 4],
    })
    db.add_table_data("product", {
        "pr_id": np.arange(1000, dtype=np.int32),
        "pr_category": np.char.add("cat", (np.arange(1000) % 20).astype("<U2")),
        "pr_price": np.round(rng.uniform(1, 500, 1000), 2),
    })
    db.add_table_data("sale", {
        "sa_id": np.arange(n_sales, dtype=np.int32),
        "sa_store": rng.integers(0, 64, n_sales).astype(np.int32),
        "sa_product": rng.integers(0, 1000, n_sales).astype(np.int32),
        "sa_day": rng.integers(8000, 9000, n_sales).astype(np.int32),
        "sa_qty": rng.integers(1, 20, n_sales).astype(np.int32),
        "sa_note": np.full(n_sales, "-" * 40),
    })
    return db


def revenue_per_region_query():
    """North-region revenue by store for a 10% day range."""
    return (
        scan("sale", predicate=col("sa_day").between(8000, 8099))
        .join(
            scan("store", predicate=col("st_region").eq("north")),
            on=[("sa_store", "st_id")],
        )
        .groupby(["sa_store"], [AggSpec("qty", "sum", col("sa_qty"))])
        .sort([("sa_store", True)])
    )


def main() -> None:
    schema = build_catalog()
    db = build_data(schema)

    print("== Algorithm 2: derived co-clustered design ==")
    bdcc_scheme = BDCCScheme()
    physical = {"plain": PlainScheme().build(db), "bdcc": bdcc_scheme.build(db)}
    for dim_name, bits, table, key in bdcc_scheme.design.describe_dimensions():
        print(f"  dimension {dim_name}: {bits} bits over {table}({key})")
    for table, uses in bdcc_scheme.design.table_uses.items():
        if uses:
            print(f"  table {table}: " + ", ".join(
                f"{u.dimension.name} via {u.path_string()}" for u in uses
            ))

    print("\n== query: north-region revenue over a day range ==")
    results = {}
    for name, pdb in physical.items():
        executor = Executor(pdb)
        pplan = executor.lower(revenue_per_region_query())
        result = executor.run(pplan)
        results[name] = result
        m = result.metrics
        print(
            f"  {name:>5}: simulated {m.total_seconds * 1e3:7.3f} ms, "
            f"IO {m.io_bytes / 1e6:6.2f} MB, peak mem {m.peak_memory_bytes / 1e3:8.1f} KB"
        )
        for line in format_physical_plan(pplan, metrics=m).splitlines():
            print(f"         {line}")
    assert sorted(results["plain"].rows) == sorted(results["bdcc"].rows)
    speedup = (
        results["plain"].metrics.total_seconds / results["bdcc"].metrics.total_seconds
    )
    print(f"\n  identical results; BDCC speedup {speedup:.2f}x")


if __name__ == "__main__":
    main()
