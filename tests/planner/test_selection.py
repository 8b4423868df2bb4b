"""Selection resolution: a scan's ``selection`` is metadata, a run list
resolved at lowering, and a selection of the whole table is its one run.

``(0, n)`` means "every stored row, in storage order" on every scheme; a
BDCC scan gets it whenever its surviving groups are all the groups of a
dense count table.  Anything that really selects — pruned groups,
masked deletes, a consolidated table — carries the runs it keeps, and a
selection of at most one run is read as views of the stored columns.
"""

import dataclasses
import re

import numpy as np
import pytest

from repro import tpch
from repro.core.bdcc_table import BDCCBuildConfig
from repro.core.selection import Selection
from repro.execution.aggregate import AggSpec
from repro.execution.expressions import col
from repro.execution.metrics import ExecutionMetrics
from repro.execution.operators import ExecutionContext, PhysicalScan
from repro.observe.registry import REGISTRY
from repro.planner.executor import ExecutionOptions, Executor
from repro.planner.logical import scan
from repro.tpch.environment import make_environment
from repro.tpch.harness import build_schemes
from repro.tpch.queries import QUERIES
from repro.tpch.runner import run_query
from repro.updates import CompactionPolicy, UpdateSession
from repro.workload.differential import reference_mismatch, run_differential
from repro.workload.reference import evaluate_reference

from ..core.test_selection import _rows_to_runs
from ..storage.test_storage import _pages_for_row_runs

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


def _contiguous_groups(physical_dbs):
    """A BDCC ORDERS scan from the first date whose bin sets the date
    dimension's top bit: the surviving groups are the trailing half of
    the key space, one run that does not start at row 0."""
    pdb = physical_dbs["bdcc"]
    dates = pdb.database.column("orders", "o_orderdate")
    dimension = pdb.table("orders").bdcc.uses[0].dimension
    assert dimension.name == "D_DATE"
    bins = dimension.bin_of_values([dates])
    cut = int(dates[bins >= 1 << (dimension.bits - 1)].min())
    op = _scan_op(pdb, scan("orders", predicate=col("o_orderdate").ge(cut)))
    assert op.rationale.startswith("pushdown")
    assert not op.selection.is_whole(op.stored.stored_rows)
    return op


def _plain_partition(physical_dbs):
    """The second of a Plain LINEITEM scan's page-aligned partitions at
    ``workers=4``."""
    executor = Executor(
        physical_dbs["plain"], options=ExecutionOptions(workers=4, min_partition_rows=256)
    )
    parallel = executor.parallel_plan(executor.lower(scan("lineitem")))
    parts = [f.root for f in parallel.fragments if f.role == "partition"]
    assert len(parts) == 4 and all(isinstance(p, PhysicalScan) for p in parts)
    return parts[1]


#: scans whose selection is at most one run
ONE_RUN = {
    "whole table": lambda dbs: _scan_op(dbs["bdcc"], scan("orders")),
    "contiguous groups": _contiguous_groups,
    "plain partition": _plain_partition,
}


def _row_index_io(op, disk):
    """The IO the scan charged when it held row indices: the runs the
    rows diffed into, a page run list per demanded column, plus the
    BDCC key column and the count table."""
    stored = op.stored
    runs = _rows_to_runs(op.selection.rows())
    sizes = [
        num_pages * stored.page_model.page_bytes
        for column in op.demanded
        for _, num_pages in _pages_for_row_runs(
            runs, stored.page_model.rows_per_page(stored.stored_bytes_per_value(column))
        )
    ]
    if op.stored.bdcc is not None:
        sizes += [length * 1.0 for _, length in runs]
        sizes.append(op.stored.bdcc.count_table.num_entries * 8.0)
    return float(sum(sizes)), len(sizes), disk.time_for_runs(sizes)


class TestWholeTableIsOneRun:
    def test_unrestricted_bdcc_scan(self, bdcc_db):
        for table in ("lineitem", "orders", "nation"):
            op = _scan_op(bdcc_db, scan(table))
            assert op.stored.bdcc is not None
            assert op.selection.runs() == [(0, op.stored.stored_rows)], table
            assert op.selection.is_whole(op.stored.stored_rows)
            assert not op.restrictions and not op.minmax_ranges
            assert "pushdown" not in op.rationale and "minmax" not in op.rationale

    def test_restriction_that_keeps_every_group(self, bdcc_db):
        # excludes a sliver of the date domain: finer than the bits
        # that survive at count-table granularity, so every group stays
        first_day = int(bdcc_db.database.column("orders", "o_orderdate").min())
        op = _scan_op(bdcc_db, scan("orders", predicate=col("o_orderdate").ge(first_day + 1)))
        assert op.restrictions
        kept, total = re.match(r"pushdown (\d+)/(\d+) groups,", op.rationale).groups()
        assert kept == total == str(op.stored.bdcc.count_table.num_groups)
        assert op.selection.is_whole(op.stored.stored_rows)

    def test_pruning_restriction_selects_fewer_rows(self, bdcc_db):
        dates = bdcc_db.database.column("orders", "o_orderdate")
        op = _scan_op(bdcc_db, scan("orders", predicate=col("o_orderdate").ge(int(np.median(dates)))))
        assert not op.selection.is_whole(op.stored.stored_rows)
        assert op.selection.starts.dtype == op.selection.lengths.dtype == np.int64
        assert 0 < len(op.selection) < op.stored.stored_rows

    @pytest.mark.parametrize("case", sorted(ONE_RUN))
    def test_full_scan_reads_views_and_charges_like_the_identity(
        self, case, physical_dbs, environment, monkeypatch
    ):
        """A one-run selection and its expanded rows are the same scan on
        the simulated clock, and the charge is the one the row indices
        got; only the host stops copying.  (The residual predicate is
        left out: it filters into fresh arrays whatever the scan hands
        it.)"""
        op = dataclasses.replace(ONE_RUN[case](physical_dbs), predicate=None)
        assert len(op.selection.starts) == 1 and len(op.selection) > 0

        def run():
            metrics = ExecutionMetrics()
            ctx = ExecutionContext(environment.disk, environment.cost_model, metrics)
            return op.execute(ctx), metrics

        as_view, view_metrics = run()
        with monkeypatch.context() as patch:
            patch.setattr(Selection, "indexer", Selection.rows)
            as_copy, copy_metrics = run()
        for name in ("io_seconds", "cpu_seconds", "io_bytes", "io_accesses", "rows_scanned"):
            assert getattr(view_metrics, name) == getattr(copy_metrics, name), name
        assert (
            view_metrics.io_bytes, view_metrics.io_accesses, view_metrics.io_seconds
        ) == _row_index_io(op, environment.disk)
        assert view_metrics.rows_scanned == len(op.selection)
        for column in op.demanded:
            stored = op.stored.columns[column]
            got = as_view.columns[op.prefix + column]
            assert np.shares_memory(got, stored), column
            assert not np.shares_memory(as_copy.columns[op.prefix + column], stored)
            assert np.array_equal(got, stored[op.selection.rows()]), column

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
        assert np.array_equal(op.selection.rows(), np.flatnonzero(~deleted))
        assert op.selection.runs() == _rows_to_runs(np.flatnonzero(~deleted))

    def test_consolidated_table_selects_through_the_count_table(self, consolidated):
        _, pdb = consolidated
        op = _scan_op(pdb, scan("lineitem"))
        bdcc = op.stored.bdcc
        rows = op.selection.rows()
        assert not op.selection.is_whole(op.stored.stored_rows)
        assert len(rows) == bdcc.logical_rows < op.stored.stored_rows
        # each logical row exactly once, the moved groups read from the
        # appended region
        assert np.array_equal(np.sort(bdcc.row_source[rows]), np.arange(bdcc.logical_rows))
        assert rows.max() >= bdcc.logical_rows


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
        scans = [op for op in pplan.operators() if isinstance(op, PhysicalScan)]
        selecting = [
            op.selection for op in scans if op.selection.runs() != [(0, op.stored.stored_rows)]
        ]
        assert len(scans) == 2 and selecting
        moved = [REGISTRY.get(n) - b for n, b in zip(names, before)]
        assert moved == [
            2.0,
            float(len(scans) - len(selecting)),
            float(sum(len(selection) for selection in selecting)),
        ]
        executor.lower(plan)  # a cache hit lowers nothing and counts nothing
        assert [REGISTRY.get(n) - b for n, b in zip(names, before)] == moved


class TestConsolidatedEndToEnd:
    """Generated plans over consolidated tables, serial and ``workers=4``,
    against the SQL reference (and parallel against serial)."""

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
    return pdbs, "lineitem", lambda op: len(op.selection) == 0 and op.delta_selected == ()


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
    fragmented, against the SQL reference."""

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
