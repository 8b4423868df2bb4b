"""Fragmented delta scans: parallel must match serial per its contract.

BDCC merge-on-read scans split along zone boundaries of the merged
base+delta stream; Plain/PK delta scans degrade to the serial plan.
With the partial-aggregation rewrite disabled the results match the
serial run exactly, order included (the pre-existing bit-identical
guarantee, kept as an ablation); with it enabled, aggregate tails over
delta-merge partitions pre-aggregate per fragment and match serial as a
tolerance multiset (float summation order changes).
"""

import numpy as np
import pytest

from repro.execution.aggregate import AggSpec
from repro.execution.expressions import col
from repro.parallel.fragments import plan_fragments
from repro.planner.executor import ExecutionOptions, Executor
from repro.planner.logical import scan
from repro.updates import CompactionPolicy, UpdateSession
from repro.workload.differential import normalized_rows, rows_match

from .conftest import sample_lineitem_insert, sample_orders_insert

NO_COMPACTION = CompactionPolicy(max_delta_fraction=None)


@pytest.fixture()
def dirty(fresh):
    db, env, pdbs = fresh
    rng = np.random.default_rng(8)
    session = UpdateSession(*pdbs.values(), policy=NO_COMPACTION)
    orders = sample_orders_insert(db, rng, 60)
    session.insert_rows("orders", orders)
    session.insert_rows(
        "lineitem", sample_lineitem_insert(db, rng, orders["o_orderkey"], per_order=5)
    )
    session.delete_where("lineitem", col("l_tax").ge(0.07))
    session.commit()
    return db, env, pdbs


def _plans():
    return [
        scan("lineitem", predicate=col("l_shipdate").ge(8500)),
        scan("lineitem")
        .join(scan("orders"), on=[("l_orderkey", "o_orderkey")])
        .groupby(
            ("o_orderpriority",),
            [AggSpec("s", "sum", col("l_extendedprice")), AggSpec("c", "count")],
        )
        .sort([("o_orderpriority", True)]),
    ]


class TestParallelDeltaScans:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_bdcc_fragments_split_and_match_serial_bitwise(self, dirty, workers):
        _, env, pdbs = dirty
        pdb = pdbs["bdcc"]
        for plan in _plans():
            serial = Executor(pdb, disk=env.disk, costs=env.cost_model).execute(plan)
            executor = Executor(
                pdb, disk=env.disk, costs=env.cost_model,
                options=ExecutionOptions(
                    workers=workers, min_partition_rows=128,
                    enable_partial_agg=False,
                ),
            )
            parallel_plan = executor.parallel_plan(executor.lower(plan))
            assert parallel_plan.is_parallel, "the delta scan must fragment"
            delta_scans = [
                op for op in parallel_plan.operators()
                if op.kind == "DeltaMergeScan"
            ]
            assert len(delta_scans) >= 2, "base+delta split into partitions"
            result = executor.execute(plan)
            assert result.relation.column_names == serial.relation.column_names
            for name in serial.relation.column_names:
                assert np.array_equal(
                    serial.relation.column(name), result.relation.column(name)
                ), name

    @pytest.mark.parametrize("workers", [2, 4])
    def test_partial_agg_over_delta_merge_scans(self, dirty, workers):
        """DeltaMergeScan partitions feed per-fragment PartialAggs and the
        merged result matches serial as a tolerance multiset."""
        _, env, pdbs = dirty
        pdb = pdbs["bdcc"]
        plan = _plans()[1]
        serial = Executor(pdb, disk=env.disk, costs=env.cost_model).execute(plan)
        executor = Executor(
            pdb, disk=env.disk, costs=env.cost_model,
            options=ExecutionOptions(workers=workers, min_partition_rows=128),
        )
        parallel_plan = executor.parallel_plan(executor.lower(plan))
        assert parallel_plan.is_parallel
        delta_scans = [
            op for op in parallel_plan.operators()
            if op.kind == "DeltaMergeScan"
        ]
        assert len(delta_scans) >= 2, "base+delta split into partitions"
        partials = [
            op for op in parallel_plan.operators() if op.kind == "PartialAgg"
        ]
        assert len(partials) >= 2, "aggregate lowered below the gather"
        result = executor.execute(plan)
        assert result.relation.column_names == serial.relation.column_names
        names = sorted(serial.relation.column_names)
        assert rows_match(
            normalized_rows(serial.relation.columns, names),
            normalized_rows(result.relation.columns, names),
        )

    def test_partitions_cover_the_delta_rows_exactly_once(self, dirty):
        _, env, pdbs = dirty
        executor = Executor(pdbs["bdcc"], disk=env.disk, costs=env.cost_model)
        pplan = executor.lower(scan("lineitem"))
        parallel = plan_fragments(pplan, workers=4, min_partition_rows=128)
        partitions = [
            f.root for f in parallel.fragments if f.role == "partition"
        ]
        assert partitions
        serial_scan = pplan.root
        base_total = sum(len(p.selection) for p in partitions)
        assert base_total == len(serial_scan.selection)
        for run_index, sel in serial_scan.delta_selected:
            pieces = np.concatenate([
                dict(p.delta_selected)[run_index].rows() for p in partitions
            ])
            assert np.array_equal(np.sort(pieces), np.sort(sel.rows()))

    def test_plain_and_pk_delta_scans_degrade_to_serial(self, dirty):
        _, env, pdbs = dirty
        for scheme in ("plain", "pk"):
            executor = Executor(
                pdbs[scheme], disk=env.disk, costs=env.cost_model,
                options=ExecutionOptions(workers=4, min_partition_rows=128),
            )
            plan = scan("lineitem")
            parallel = executor.parallel_plan(executor.lower(plan))
            assert not parallel.is_parallel, scheme
            # untouched tables keep splitting as before
            clean = executor.parallel_plan(executor.lower(scan("partsupp")))
            assert clean.is_parallel, scheme
