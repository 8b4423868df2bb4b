"""Replication extension: per-scan replica selection (future work (ii))."""

import numpy as np
import pytest

from repro.execution.aggregate import AggSpec
from repro.execution.expressions import col
from repro.execution.operators import PhysicalScan
from repro.planner.executor import ExecutionOptions, Executor
from repro.planner.logical import scan
from repro.schemes.bdcc import BDCCScheme
from repro.tpch.dates import days


@pytest.fixture(scope="module")
def replicated_db(tpch_db, environment):
    # primary LINEITEM clustering = all four uses; one replica clustered
    # only on the part dimension (use index 3 in discovery order)
    scheme = BDCCScheme(
        advisor_config=environment.advisor_config(),
        page_model=environment.page_model,
        replica_uses={"lineitem": [[3]]},
    )
    return scheme.build(tpch_db)


def _part_query(lo, hi):
    return (
        scan("part", predicate=col("p_partkey").between(lo, hi))
        .join(scan("lineitem"), on=[("p_partkey", "l_partkey")])
        .groupby([], [AggSpec("qty", "sum", col("l_quantity"))])
    )


def _date_query():
    return (
        scan("orders", predicate=col("o_orderdate").lt(days("1993-01-01")))
        .join(scan("lineitem"), on=[("o_orderkey", "l_orderkey")])
        .groupby([], [AggSpec("qty", "sum", col("l_quantity"))])
    )


def _scans(executor, plan):
    """``{alias: scan}`` of the plan as lowered: a replica choice is a
    scan's stored copy, and its reason leads the scan's rationale."""
    return {
        op.alias: op for op in executor.lower(plan).operators()
        if isinstance(op, PhysicalScan)
    }


class TestReplicaSelection:
    def test_part_query_uses_replica(self, replicated_db, environment, tpch_db):
        n_part = tpch_db.num_rows("part")
        executor = Executor(replicated_db, disk=environment.disk)
        lineitem = _scans(executor, _part_query(1, max(2, n_part // 20)))["lineitem"]
        assert lineitem.stored is replicated_db.replicas["lineitem"][0]
        assert lineitem.rationale.startswith("replica #1 selected (")

    def test_date_query_keeps_primary(self, replicated_db, environment):
        executor = Executor(replicated_db, disk=environment.disk)
        for op in _scans(executor, _date_query()).values():
            assert op.stored is replicated_db.table(op.table)
            assert "replica" not in op.rationale

    def test_results_identical_with_and_without_replica(
        self, replicated_db, bdcc_db, environment, tpch_db
    ):
        n_part = tpch_db.num_rows("part")
        plan = _part_query(1, max(2, n_part // 10))
        a = Executor(replicated_db, disk=environment.disk).execute(plan)
        b = Executor(bdcc_db, disk=environment.disk).execute(plan)
        assert len(a.rows) == len(b.rows)
        for ra, rb in zip(a.rows, b.rows):
            assert ra[0] == pytest.approx(rb[0])

    def test_replica_reduces_io_for_its_workload(
        self, replicated_db, bdcc_db, environment, tpch_db
    ):
        n_part = tpch_db.num_rows("part")
        plan = _part_query(1, max(2, n_part // 20))
        with_replica = Executor(replicated_db, disk=environment.disk).execute(plan)
        without = Executor(bdcc_db, disk=environment.disk).execute(plan)
        assert with_replica.metrics.io_bytes <= without.metrics.io_bytes

    def test_pushdown_disabled_ignores_replicas(self, replicated_db, environment):
        executor = Executor(
            replicated_db,
            disk=environment.disk,
            options=ExecutionOptions(enable_pushdown=False),
        )
        for op in _scans(executor, _part_query(1, 10)).values():
            assert op.stored is replicated_db.table(op.table)
            assert "replica" not in op.rationale

    def test_replica_without_uses_rejected(self, tpch_db, environment):
        scheme = BDCCScheme(
            advisor_config=environment.advisor_config(),
            page_model=environment.page_model,
            replica_uses={"region": [[0]]},
        )
        with pytest.raises(ValueError):
            scheme.build(tpch_db)
