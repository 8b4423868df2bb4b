"""Two-phase aggregation: serial vs gather-then-aggregate vs partial.

Builds a small TPC-H database under the BDCC scheme and runs Q1 — the
paper's "no index helps this" pricing-summary scan — three ways:

1. **serial** — one worker, the baseline;
2. **gather-then-aggregate** (``workers=4, enable_partial_agg=False``)
   — the LINEITEM scan splits into zone-aligned fragments, but every
   scanned row crosses the exchange and the whole hash aggregation runs in
   the serial tail fragment, which caps the speedup around 2.2x;
3. **partial aggregation** (``workers=4``, the default) — each fragment
   pre-aggregates its rows down to its local group states with a
   ``partial`` aggregate *below* the exchange (sums stay sums, avg becomes a
   sum plus a ``__pcnt__`` companion count, min/max carry validity
   counts), the exchange ships those few state rows, and one
   ``merge`` aggregate above the gather combines them exactly.

Merging re-sums floats in gather order, so the partial plan carries the
order-insensitive result contract (see docs/execution-model.md): same
rows within float tolerance, deterministic across runs, but not
bit-identical to serial.  The script verifies the three runs agree on
the result multiset, prints the ``explain()`` fragment views, and
reports the makespan deltas.

Run:  python examples/partial_aggregation.py
"""

from __future__ import annotations

from repro import tpch
from repro.execution.aggregate import AggSpec
from repro.execution.expressions import col
from repro.planner.executor import ExecutionOptions, Executor
from repro.planner.explain import explain
from repro.planner.logical import scan
from repro.tpch.dates import days
from repro.tpch.environment import make_environment
from repro.tpch.harness import build_schemes
from repro.workload.differential import normalized_rows, rows_match

SCALE_FACTOR = 0.005


def q1_plan():
    revenue = col("l_extendedprice") * (1 - col("l_discount"))
    return (
        scan("lineitem", predicate=col("l_shipdate").le(days("1998-09-02")))
        .groupby(
            ["l_returnflag", "l_linestatus"],
            [
                AggSpec("sum_qty", "sum", col("l_quantity")),
                AggSpec("sum_base_price", "sum", col("l_extendedprice")),
                AggSpec("sum_disc_price", "sum", revenue),
                AggSpec("avg_qty", "avg", col("l_quantity")),
                AggSpec("avg_price", "avg", col("l_extendedprice")),
                AggSpec("avg_disc", "avg", col("l_discount")),
                AggSpec("count_order", "count"),
            ],
        )
        .sort([("l_returnflag", True), ("l_linestatus", True)])
    )


def main() -> None:
    print(f"generating TPC-H SF={SCALE_FACTOR} and building the BDCC scheme ...")
    db = tpch.generate(scale_factor=SCALE_FACTOR, seed=7)
    env = make_environment(SCALE_FACTOR)
    pdb = build_schemes(db, env, include=["bdcc"])["bdcc"]
    plan = q1_plan()

    runs = {}
    for label, options in [
        ("serial", ExecutionOptions(workers=1)),
        ("gather-agg", ExecutionOptions(workers=4, enable_partial_agg=False)),
        ("partial-agg", ExecutionOptions(workers=4)),
    ]:
        executor = Executor(pdb, disk=env.disk, costs=env.cost_model, options=options)
        result = executor.execute(plan)
        runs[label] = (executor, result)

    # all three contracts agree on the result multiset; the gather-agg
    # run is additionally bit-identical to serial (same plan tail)
    serial_rel = runs["serial"][1].relation
    names = sorted(serial_rel.column_names)
    expected = normalized_rows(serial_rel.columns, names)
    for label, (_, result) in runs.items():
        got = normalized_rows(result.relation.columns, names)
        assert rows_match(expected, got), label
    print(f"\nQ1's {serial_rel.num_rows} groups identical across all three runs\n")

    for label in ("gather-agg", "partial-agg"):
        executor, _ = runs[label]
        print(f"=== {label} fragment view " + "=" * (48 - len(label)))
        print(explain(executor, plan))
        print()

    serial_seconds = runs["serial"][1].metrics.total_seconds
    print("makespan:")
    for label, (_, result) in runs.items():
        wall = result.metrics.wall_seconds
        print(
            f"  {label:<15} {wall * 1e3:8.3f} ms"
            f"  ({serial_seconds / wall:4.2f}x vs serial)"
        )
    gather_wall = runs["gather-agg"][1].metrics.wall_seconds
    partial_wall = runs["partial-agg"][1].metrics.wall_seconds
    print(
        f"\npartial aggregation beats the gather-then-aggregate tail by "
        f"{gather_wall / partial_wall:.2f}x at 4 workers"
    )


if __name__ == "__main__":
    main()
