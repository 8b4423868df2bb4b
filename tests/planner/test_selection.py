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
from repro.execution.expressions import col
from repro.execution.operators import DeltaMergeScan, PhysicalScan
from repro.observe.registry import REGISTRY
from repro.planner.executor import ExecutionOptions, Executor
from repro.planner.logical import scan
from repro.tpch.environment import make_environment
from repro.tpch.harness import build_schemes
from repro.tpch.queries import QUERIES
from repro.tpch.runner import run_query
from repro.updates import CompactionPolicy, UpdateSession
from repro.workload.differential import run_differential

SMALL_SF = 0.003


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
        assert isinstance(op, DeltaMergeScan)
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
