"""Selection resolution: ``selected_rows`` is metadata, and a selection
of the whole table is no selection.

``None`` means "every stored row, in storage order" on every scheme; a
BDCC scan gets it whenever its surviving groups are all the groups of a
dense count table.  Anything that really selects — pruned groups,
masked deletes, a consolidated table — carries the row indices.
"""

import dataclasses
import re

import numpy as np
import pytest

from repro import tpch
from repro.core.bdcc_table import BDCCBuildConfig
from repro.execution.aggregate import AggSpec
from repro.execution.expressions import col
from repro.execution.operators import PhysicalScan
from repro.observe.registry import REGISTRY
from repro.planner.executor import ExecutionOptions, Executor
from repro.planner.logical import scan
from repro.storage.minmax import MinMaxIndex
from repro.tpch.environment import make_environment
from repro.tpch.harness import build_schemes
from repro.tpch.queries import QUERIES
from repro.tpch.runner import run_query
from repro.updates import CompactionPolicy, UpdateSession
from repro.workload.differential import reference_mismatch, run_differential
from repro.workload.reference import evaluate_reference

SMALL_SF = 0.003
NO_COMPACTION = CompactionPolicy(max_delta_fraction=None)


def _scan_op(pdb, plan) -> PhysicalScan:
    root = Executor(pdb).lower(plan).root
    assert isinstance(root, PhysicalScan)
    return root


@pytest.fixture(scope="module")
def small_db():
    return tpch.generate(scale_factor=SMALL_SF, seed=7)


@pytest.fixture(scope="module")
def consolidated(small_db):
    """A BDCC database whose big tables are *consolidated*: small groups
    copied behind the base rows, their original entries invalid.  No
    scale factor the repo runs at reaches this branch on its own."""
    env = make_environment(SMALL_SF)
    config = env.advisor_config(
        build=BDCCBuildConfig(efficient_access_bytes=1024.0, consolidate_max_fraction=0.5)
    )
    pdb = build_schemes(small_db, env, include=["bdcc"], advisor_config=config)["bdcc"]
    for table in ("lineitem", "orders"):
        stored = pdb.table(table)
        assert not stored.bdcc.count_table.valid.all(), table
        assert stored.stored_rows > stored.logical_rows, table
    return env, pdb


class TestWholeTableIsNoSelection:
    def test_unrestricted_bdcc_scan(self, bdcc_db):
        for table in ("lineitem", "orders", "nation"):
            op = _scan_op(bdcc_db, scan(table))
            assert op.stored.bdcc is not None
            assert op.selected_rows is None, table
            assert op.selection_notes == ()

    def test_restriction_that_keeps_every_group(self, bdcc_db):
        # excludes a sliver of the date domain: finer than the bits
        # that survive at count-table granularity, so every group stays
        first_day = int(bdcc_db.database.column("orders", "o_orderdate").min())
        op = _scan_op(bdcc_db, scan("orders", predicate=col("o_orderdate").ge(first_day + 1)))
        assert op.restrictions
        kept, total = re.fullmatch(r"pushdown (\d+)/(\d+) groups", op.selection_notes[0]).groups()
        assert kept == total == str(op.stored.bdcc.count_table.num_groups)
        assert op.selected_rows is None

    def test_pruning_restriction_materialises_rows(self, bdcc_db):
        dates = bdcc_db.database.column("orders", "o_orderdate")
        op = _scan_op(bdcc_db, scan("orders", predicate=col("o_orderdate").ge(int(np.median(dates)))))
        assert op.selected_rows is not None
        assert op.selected_rows.dtype == np.int64
        assert 0 < len(op.selected_rows) < op.stored.stored_rows

    def test_full_scan_reads_views_and_charges_like_the_identity(self, bdcc_db, environment):
        """``None`` and ``arange(n)`` are the same scan on the simulated
        clock; only the host stops copying."""
        executor = Executor(bdcc_db, disk=environment.disk, costs=environment.cost_model)
        pplan = executor.lower(scan("orders"))
        as_view = executor.run(pplan)
        stored = pplan.root.stored
        identity = dataclasses.replace(
            pplan, root=dataclasses.replace(
                pplan.root, selected_rows=np.arange(stored.stored_rows, dtype=np.int64)
            ),
        )
        as_copy = executor.run(identity)
        for name in ("io_seconds", "cpu_seconds", "io_bytes", "io_accesses", "rows_scanned"):
            assert getattr(as_view.metrics, name) == getattr(as_copy.metrics, name), name
        column = as_view.relation.column("o_orderkey")
        assert np.shares_memory(column, stored.columns["o_orderkey"])
        assert np.array_equal(column, as_copy.relation.column("o_orderkey"))

    def test_pending_deletes_select_the_survivors(self):
        db = tpch.generate(scale_factor=0.002, seed=1234)
        pdb = build_schemes(db, make_environment(0.002), include=["bdcc"])["bdcc"]
        session = UpdateSession(pdb, policy=CompactionPolicy(max_delta_fraction=None))
        session.delete_where("lineitem", col("l_tax").ge(0.07))
        session.commit()
        op = _scan_op(pdb, scan("lineitem"))
        assert op.kind == "DeltaMergeScan"
        deleted = op.stored.delta.base_deleted
        assert deleted.any()
        assert np.array_equal(op.selected_rows, np.flatnonzero(~deleted))

    def test_consolidated_table_selects_through_the_count_table(self, consolidated):
        _, pdb = consolidated
        op = _scan_op(pdb, scan("lineitem"))
        bdcc = op.stored.bdcc
        assert op.selected_rows is not None
        assert len(op.selected_rows) == bdcc.logical_rows < op.stored.stored_rows
        # each logical row exactly once, the moved groups read from the
        # appended region
        assert np.array_equal(
            np.sort(bdcc.row_source[op.selected_rows]), np.arange(bdcc.logical_rows)
        )
        assert op.selected_rows.max() >= bdcc.logical_rows


class TestLoweringCounters:
    def test_counted_per_plan_cache_miss(self, bdcc_db):
        dates = bdcc_db.database.column("orders", "o_orderdate")
        plan = scan("lineitem").join(
            scan("orders", predicate=col("o_orderdate").ge(int(np.median(dates)))),
            on=[("l_orderkey", "o_orderkey")],
        )
        executor = Executor(bdcc_db)
        names = ("lowering.scans", "lowering.full_scans", "lowering.rows_selected")
        before = [REGISTRY.get(n) for n in names]
        pplan = executor.lower(plan)
        selections = [
            op.selected_rows for op in pplan.operators() if isinstance(op, PhysicalScan)
        ]
        materialised = [rows for rows in selections if rows is not None]
        assert len(selections) == 2 and materialised
        moved = [REGISTRY.get(n) - b for n, b in zip(names, before)]
        assert moved == [
            2.0,
            float(len(selections) - len(materialised)),
            float(sum(len(rows) for rows in materialised)),
        ]
        executor.lower(plan)  # a cache hit lowers nothing and counts nothing
        assert [REGISTRY.get(n) - b for n, b in zip(names, before)] == moved


class TestConsolidatedEndToEnd:
    """Generated plans over consolidated tables, serial and ``workers=4``,
    against the naive reference (and parallel against serial)."""

    def test_generated_plans_match_the_reference(self, consolidated):
        env, pdb = consolidated
        split_consolidated = set()

        def observer(query, scheme, variant, executor, result):
            plan = executor.execution_plan(executor.lower(query.plan))
            if plan.is_parallel:
                split_consolidated.update(
                    op.table for op in plan.operators()
                    if isinstance(op, PhysicalScan) and op.stored.bdcc is not None
                    and not op.stored.bdcc.count_table.valid.all()
                )

        report = run_differential(
            {"bdcc": pdb},
            seed=5,
            num_queries=12,
            variants={
                "default": ExecutionOptions(),
                "workers-4": ExecutionOptions(workers=4, min_partition_rows=256),
            },
            disk=env.disk,
            costs=env.cost_model,
            observer=observer,
        )
        assert report.ok, report.render()
        assert report.executions == 12 * 2
        assert {"lineitem", "orders"} <= split_consolidated


def _cloned_orders(db, count=40):
    """``count`` ORDERS rows cloned from the first ones, with fresh keys."""
    orders = db.table_data("orders")
    rows = {c: v[:count].copy() for c, v in orders.items()}
    rows["o_orderkey"] = orders["o_orderkey"].max() + 1 + np.arange(count).astype(
        orders["o_orderkey"].dtype
    )
    return rows


def _zero_rows(db, env, pdbs):
    """Every LINEITEM row deleted: a scan selects nothing and merges
    nothing."""
    session = UpdateSession(*pdbs.values(), policy=NO_COMPACTION)
    session.delete_where("lineitem", col("l_quantity").ge(0.0))
    session.commit()
    return pdbs, "lineitem", lambda op: len(op.selected_rows) == 0 and op.delta_selected == ()


def _single_zone(db, env, pdbs):
    """BDCC ORDERS built into one count-table entry (``A_R`` between one
    and two times the table's densest column), plus an insert run that
    lands in that zone."""
    orders = pdbs["bdcc"].table("orders").bdcc
    width = orders.densest_bytes_per_tuple * orders.logical_rows
    config = env.advisor_config(build=BDCCBuildConfig(efficient_access_bytes=1.5 * width))
    pdbs = dict(pdbs, bdcc=build_schemes(db, env, include=["bdcc"], advisor_config=config)["bdcc"])
    session = UpdateSession(*pdbs.values(), policy=NO_COMPACTION)
    session.insert_rows("orders", _cloned_orders(db))
    session.commit()
    return pdbs, "orders", lambda op: (
        op.stored.bdcc.count_table.num_entries == 1 and op.delta_selected is not None
    )


def _delta_pruned(db, env, pdbs):
    """New ORDERS all dated on the last order date, read below the
    median date: every delta row is pruned, the runs stay pending."""
    rows = _cloned_orders(db)
    rows["o_orderdate"][:] = db.column("orders", "o_orderdate").max()
    session = UpdateSession(*pdbs.values(), policy=NO_COMPACTION)
    session.insert_rows("orders", rows)
    session.commit()
    return pdbs, "orders", lambda op: (
        op.delta_selected is not None
        and len(op.delta_selected) == 1
        and not any(len(sel) for _, sel in op.delta_selected)
    )


DEGENERATE = {
    "zero rows, deletes only": _zero_rows,
    "single zone": _single_zone,
    "delta rows all pruned": _delta_pruned,
}


class TestDegenerateScans:
    """Scans at the edges of the selection and merge paths, serial and
    fragmented, against the naive reference."""

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("case", sorted(DEGENERATE))
    def test_matches_the_reference(self, case, workers):
        db = tpch.generate(scale_factor=0.002, seed=1234)
        env = make_environment(0.002)
        pdbs, table, shape = DEGENERATE[case](db, env, build_schemes(db, env))
        early = col("o_orderdate").le(int(np.median(db.column("orders", "o_orderdate"))))
        plans = [
            scan("lineitem"),
            scan("orders", predicate=early),
            scan("orders", predicate=early)
            .join(scan("lineitem"), on=[("o_orderkey", "l_orderkey")])
            .groupby(
                ("o_orderpriority",),
                [AggSpec("s", "sum", col("l_extendedprice")), AggSpec("c", "count")],
            ),
        ]
        scans = [
            op for op in Executor(pdbs["bdcc"]).lower(plans[-1]).operators()
            if isinstance(op, PhysicalScan) and op.table == table
        ]
        assert scans and all(shape(op) for op in scans), case
        options = ExecutionOptions(workers=workers, min_partition_rows=256)
        for plan in plans:
            reference = evaluate_reference(db, plan)
            for scheme, pdb in pdbs.items():
                executor = Executor(pdb, disk=env.disk, costs=env.cost_model, options=options)
                detail, _ = reference_mismatch(reference, executor.execute(plan).relation)
                assert detail is None, (case, scheme, detail)


@pytest.mark.parametrize("num_rows,block_rows", [(1000, 100), (1037, 100), (5, 16), (0, 16)])
def test_row_mask_is_each_rows_block_verdict(num_rows, block_rows):
    values = np.sort(np.random.default_rng(num_rows).integers(0, 1000, num_rows))
    index = MinMaxIndex.build(values, block_rows)
    assert index.num_blocks == -(-num_rows // block_rows)
    keep_blocks = index.blocks_overlapping(200, 400)
    expected = keep_blocks[np.arange(num_rows) // block_rows]
    mask = index.row_mask(200, 400, num_rows)
    assert mask.dtype == bool and np.array_equal(mask, expected)


class TestFullScansAliasStorage:
    """Full BDCC scans hand operators views of the stored columns and of
    ``bdcc.keys``, as Plain/PK scans always did: nothing downstream may
    write into what it was handed."""

    def test_tpch_runs_over_read_only_storage(self, small_db):
        env = make_environment(SMALL_SF)
        pdb = build_schemes(small_db, env, include=["bdcc"])["bdcc"]
        for stored in pdb.stored.values():
            for array in stored.columns.values():
                array.flags.writeable = False
            if stored.bdcc is not None:
                stored.bdcc.keys.flags.writeable = False
        for options in (ExecutionOptions(), ExecutionOptions(workers=4, min_partition_rows=256)):
            for name, query in QUERIES.items():
                result, _ = run_query(
                    pdb, query, disk=env.disk, costs=env.cost_model, options=options
                )
                assert result.relation is not None, name
