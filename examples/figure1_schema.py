"""The paper's Figure 1, executable: tables A, B, C co-clustered over
dimensions D1 (geography), D2 (time) and D3 (range-binned values).

Shows the three co-clustering relationships of Section II:
  * B co-clusters with A on D1 and D2 (over FK_B_A),
  * B co-clusters with C on D1 (different path!) and D3 (over FK_B_C),
  * A and C are co-clustered on D1 although not FK-connected — a
    selection on continents prunes groups of *both* fact tables, and a
    join between them on the shared geography key sandwiches.

Run:  python examples/figure1_schema.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    INT32,
    AdvisorConfig,
    AggSpec,
    BDCCBuildConfig,
    BDCCScheme,
    Database,
    DiskModel,
    Executor,
    PageModel,
    Schema,
    col,
    scan,
    string_type,
)
from repro.core.bits import mask_to_string
from repro.planner import format_physical_plan

# a device scaled to this toy data volume (A_R = page = 256 B), so the
# self-tuned count tables get useful granularity — the scaling rule of
# repro/tpch/environment.py
PAGE = 256
DISK = DiskModel(sequential_bandwidth=1e9, access_latency=PAGE / 4e9)


def build_database(seed: int = 3) -> Database:
    schema = Schema()
    schema.add_table("d1", [("geo", INT32), ("continent", string_type(10))],
                     primary_key=["geo"])
    schema.add_table("d2", [("yr", INT32)], primary_key=["yr"])
    schema.add_table("d3", [("val", INT32)], primary_key=["val"])
    schema.add_table("a", [("a_id", INT32), ("a_geo", INT32), ("a_yr", INT32),
                           ("a_amount", INT32)], primary_key=["a_id"])
    schema.add_table("c", [("c_id", INT32), ("c_geo", INT32), ("c_val", INT32),
                           ("c_amount", INT32)], primary_key=["c_id"])
    schema.add_table("b", [("b_id", INT32), ("b_a", INT32), ("b_c", INT32)],
                     primary_key=["b_id"])
    schema.add_foreign_key("FK_A_D1", "a", ["a_geo"], "d1")
    schema.add_foreign_key("FK_A_D2", "a", ["a_yr"], "d2")
    schema.add_foreign_key("FK_C_D1", "c", ["c_geo"], "d1")
    schema.add_foreign_key("FK_C_D3", "c", ["c_val"], "d3")
    schema.add_foreign_key("FK_B_A", "b", ["b_a"], "a")
    schema.add_foreign_key("FK_B_C", "b", ["b_c"], "c")
    schema.add_index_hint("i_d1", "d1", ["geo"], dimension_name="D1")
    schema.add_index_hint("i_d2", "d2", ["yr"], dimension_name="D2")
    schema.add_index_hint("i_d3", "d3", ["val"], dimension_name="D3")
    for table, cols in [("a", ["a_geo"]), ("a", ["a_yr"]),
                        ("c", ["c_geo"]), ("c", ["c_val"]),
                        ("b", ["b_a"]), ("b", ["b_c"])]:
        schema.add_index_hint(f"i_{table}_{cols[0]}", table, cols)

    rng = np.random.default_rng(seed)
    db = Database(schema)
    db.add_table_data("d1", {
        "geo": np.arange(4, dtype=np.int32),
        "continent": np.array(["Africa", "America", "Asia", "Europe"]),
    })
    db.add_table_data("d2", {"yr": np.array([1997, 1998, 1999, 2000], dtype=np.int32)})
    db.add_table_data("d3", {"val": np.array([5, 9, 11, 13], dtype=np.int32)})
    n = 4096
    db.add_table_data("a", {
        "a_id": np.arange(n, dtype=np.int32),
        "a_geo": rng.integers(0, 4, n).astype(np.int32),
        "a_yr": np.array([1997, 1998, 1999, 2000], dtype=np.int32)[rng.integers(0, 4, n)],
        "a_amount": rng.integers(1, 100, n).astype(np.int32),
    })
    db.add_table_data("c", {
        "c_id": np.arange(n, dtype=np.int32),
        "c_geo": rng.integers(0, 4, n).astype(np.int32),
        "c_val": np.array([5, 9, 11, 13], dtype=np.int32)[rng.integers(0, 4, n)],
        "c_amount": rng.integers(1, 100, n).astype(np.int32),
    })
    db.add_table_data("b", {
        "b_id": np.arange(4 * n, dtype=np.int32),
        "b_a": rng.integers(0, n, 4 * n).astype(np.int32),
        "b_c": rng.integers(0, n, 4 * n).astype(np.int32),
    })
    return db


def show(executor: Executor, label: str, plan) -> None:
    """Run ``plan`` and print its count and its plan with the actuals."""
    pplan = executor.lower(plan)
    result = executor.run(pplan)
    print(f"   {label}: {result.rows[0][0]}")
    for line in format_physical_plan(pplan, metrics=result.metrics).splitlines():
        print(f"   {line}")


def main() -> None:
    db = build_database()
    scheme = BDCCScheme(
        advisor_config=AdvisorConfig(
            build=BDCCBuildConfig(efficient_access_bytes=PAGE)
        ),
        page_model=PageModel(PAGE),
    )
    pdb = scheme.build(db)

    print("== the co-clustered schema of Figure 1 ==")
    for table in ("a", "c", "b"):
        bdcc = pdb.bdcc_tables()[table]
        print(f"table {table.upper()} clustered on {bdcc.total_bits} bits:")
        for use in bdcc.uses:
            print(
                f"   {use.dimension.name:<3} via {use.path_string():<18} "
                f"mask {mask_to_string(use.mask, bdcc.total_bits)}"
            )

    print("\n== B joins both A and C with sandwiched execution ==")
    executor = Executor(pdb, disk=DISK)
    show(executor, "joined rows", (
        scan("b")
        .join(scan("a"), on=[("b_a", "a_id")])
        .join(scan("c"), on=[("b_c", "c_id")])
        .groupby([], [AggSpec("rows", "count")])
    ))

    print("\n== A and C co-clustered on D1 without an FK between them ==")
    # "tuples in A and C from matching nations" (Section II): join the two
    # fact tables on the shared geography key, filtered to one continent
    show(executor, "matching-geography pairs in Asia", (
        scan("a")
        .join(scan("c"), on=[("a_geo", "c_geo")])
        .join(scan("d1", predicate=col("continent").eq("Asia")),
              on=[("a_geo", "geo")])
        .groupby([], [AggSpec("pairs", "count")])
    ))


if __name__ == "__main__":
    main()
