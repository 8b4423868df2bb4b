"""NULL through partial and merge aggregation.

``customer LEFT JOIN orders`` grouped by ``c_custkey``: a customer with
no order is a group with no valid ``o_totalprice``, so its ``sum``,
``avg``, ``min`` and ``max`` are NULL — in the partition that holds it,
after the merge, and in the serial run, bit for bit."""

import pytest

from repro.execution import AggSpec, col
from repro.planner.executor import ExecutionOptions, Executor
from repro.planner.logical import scan
from repro.workload.differential import bitwise_mismatch, reference_mismatch
from repro.workload.reference import evaluate_reference

AGGS = [AggSpec(fn, fn, col("o_totalprice")) for fn in ("sum", "avg", "min", "max")]


def _plan():
    return scan("customer").join(
        scan("orders"), on=[("c_custkey", "o_custkey")], how="left"
    ).groupby(["c_custkey"], AGGS)


@pytest.mark.parametrize("backend", ["simulated", "process"])
def test_no_valid_row_is_null_through_partial_and_merge(tpch_db, plain_db, backend):
    serial = Executor(plain_db).execute(_plan()).relation
    executor = Executor(
        plain_db, options=ExecutionOptions(workers=4, min_partition_rows=256, backend=backend)
    )
    parallel = executor.parallel_plan(executor.lower(_plan()))
    assert any(op.kind == "PartialAgg" for op in parallel.operators())
    got = executor.execute(_plan()).relation
    orderless = ~serial.valid["sum"]
    assert orderless.any() and not orderless.all()
    for fn in ("sum", "avg", "min", "max"):
        assert serial.valid[fn].tolist() == serial.valid["sum"].tolist()
        assert (serial.column(fn)[orderless] == 0).all()  # NULL over the placeholder
    assert bitwise_mismatch(serial, got) is None
    assert reference_mismatch(evaluate_reference(tpch_db, _plan()), got)[0] is None
