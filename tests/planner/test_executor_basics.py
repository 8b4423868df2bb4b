"""Executor semantics on a hand-made database, checked against oracles."""

import numpy as np
import pytest

from repro.catalog import INT32, DECIMAL, Schema, string_type
from repro.execution.aggregate import AggSpec
from repro.execution.expressions import col
from repro.planner.executor import ExecutionOptions, Executor
from repro.planner.logical import scan
from repro.schemes.plain import PlainScheme
from repro.schemes.primary_key import PrimaryKeyScheme
from repro.storage.database import Database


def _db():
    schema = Schema()
    schema.add_table("dept", [("d_id", INT32), ("d_name", string_type(10))], primary_key=["d_id"])
    schema.add_table(
        "emp",
        [("e_id", INT32), ("e_dept", INT32), ("e_sal", DECIMAL)],
        primary_key=["e_id"],
    )
    schema.add_foreign_key("FK_E_D", "emp", ["e_dept"], "dept")
    db = Database(schema)
    db.add_table_data("dept", {
        "d_id": np.array([1, 2, 3], dtype=np.int32),
        "d_name": np.array(["eng", "ops", "hr"]),
    })
    db.add_table_data("emp", {
        "e_id": np.arange(8, dtype=np.int32),
        "e_dept": np.array([1, 1, 2, 2, 2, 3, 1, 2], dtype=np.int32),
        "e_sal": np.array([10.0, 20, 30, 40, 50, 60, 70, 80]),
    })
    return db


@pytest.fixture(scope="module")
def plain_exec():
    db = _db()
    return Executor(PlainScheme().build(db))


class TestScanFilterProject:
    def test_scan_all(self, plain_exec):
        res = plain_exec.execute(scan("emp"))
        assert res.relation.num_rows == 8

    def test_scan_predicate(self, plain_exec):
        res = plain_exec.execute(scan("emp", predicate=col("e_sal").gt(45)))
        assert sorted(r[0] for r in res.rows) == [4, 5, 6, 7]

    def test_project_expressions(self, plain_exec):
        res = plain_exec.execute(
            scan("emp").project(eid=col("e_id"), double=col("e_sal") * 2)
        )
        assert res.relation.column_names == ["eid", "double"]
        assert res.relation.column("double")[3] == 80.0

    def test_filter_after_project(self, plain_exec):
        res = plain_exec.execute(
            scan("emp").project(s=col("e_sal")).filter(col("s").lt(25))
        )
        assert res.relation.num_rows == 2


class TestJoins:
    def test_inner_join(self, plain_exec):
        res = plain_exec.execute(
            scan("emp").join(scan("dept"), on=[("e_dept", "d_id")])
        )
        assert res.relation.num_rows == 8
        by_emp = {r[res.relation.column_names.index("e_id")]: r for r in res.rows}
        names = res.relation.column("d_name")
        ids = res.relation.column("e_id")
        lookup = dict(zip(ids.tolist(), names.tolist()))
        assert lookup[0] == "eng" and lookup[5] == "hr"

    def test_semi_and_anti(self, plain_exec):
        eng = scan("dept", predicate=col("d_name").eq("eng"))
        semi = plain_exec.execute(scan("emp").join(eng, on=[("e_dept", "d_id")], how="semi"))
        assert sorted(r[0] for r in semi.rows) == [0, 1, 6]
        anti = plain_exec.execute(
            scan("emp").join(scan("dept", alias="d2", predicate=col("d2.d_name").eq("eng")),
                             on=[("e_dept", "d2.d_id")], how="anti")
        )
        assert sorted(r[0] for r in anti.rows) == [2, 3, 4, 5, 7]

    def test_left_join_nulls_count(self, plain_exec):
        # dept 'hr' has one emp; an unmatched dept keeps a row with null
        res = plain_exec.execute(
            scan("dept")
            .join(scan("emp", predicate=col("e_sal").gt(1000)), on=[("d_id", "e_dept")], how="left")
            .groupby(["d_name"], [AggSpec("n", "count", col("e_id"))])
        )
        counts = dict(zip(res.relation.column("d_name"), res.relation.column("n")))
        assert counts == {"eng": 0, "ops": 0, "hr": 0}

    def test_residual(self, plain_exec):
        res = plain_exec.execute(
            scan("emp").join(
                scan("dept"), on=[("e_dept", "d_id")],
                residual=col("e_sal").gt(60),
            )
        )
        assert sorted(r[res.relation.column_names.index("e_id")] for r in res.rows) == [6, 7]

    def test_self_join_aliases(self, plain_exec):
        res = plain_exec.execute(
            scan("emp", alias="a")
            .join(scan("emp", alias="b"), on=[("a.e_dept", "b.e_dept")])
        )
        # dept sizes 3,4,1 -> 9+16+1 pairs
        assert res.relation.num_rows == 26


class TestAggregation:
    def test_groupby_sum(self, plain_exec):
        res = plain_exec.execute(
            scan("emp").groupby(["e_dept"], [AggSpec("total", "sum", col("e_sal"))])
        )
        totals = dict(zip(res.relation.column("e_dept").tolist(),
                          res.relation.column("total").tolist()))
        assert totals == {1: 100.0, 2: 200.0, 3: 60.0}

    def test_scalar_aggregate(self, plain_exec):
        res = plain_exec.execute(
            scan("emp").groupby([], [AggSpec("n", "count"), AggSpec("m", "max", col("e_sal"))])
        )
        assert res.rows == [(8, 80.0)]

    def test_empty_input_aggregate(self, plain_exec):
        res = plain_exec.execute(
            scan("emp", predicate=col("e_sal").gt(10_000)).groupby(
                ["e_dept"], [AggSpec("n", "count")]
            )
        )
        assert res.relation.num_rows == 0


class TestSortLimit:
    def test_sort_desc(self, plain_exec):
        res = plain_exec.execute(scan("emp").sort([("e_sal", False)]).limit(3))
        assert [r[0] for r in res.rows] == [7, 6, 5]

    def test_sort_string_desc(self, plain_exec):
        res = plain_exec.execute(scan("dept").sort([("d_name", False)]))
        assert [r[1] for r in res.rows] == ["ops", "hr", "eng"]

    def test_sort_multi_key(self, plain_exec):
        res = plain_exec.execute(scan("emp").sort([("e_dept", True), ("e_sal", False)]))
        rows = res.rows
        assert rows[0][1] == 1 and rows[0][2] == 70.0


class TestPKScheme:
    def test_merge_join_used_and_correct(self):
        db = _db()
        executor = Executor(PrimaryKeyScheme().build(db))
        res = executor.execute(
            scan("dept").join(scan("emp"), on=[("d_id", "e_dept")])
        )
        # dept is sorted on d_id, emp on e_id (not e_dept) -> no merge here
        assert res.relation.num_rows == 8

    def test_merge_on_sorted_keys(self):
        db = _db()
        executor = Executor(PrimaryKeyScheme().build(db))
        res = executor.execute(
            scan("emp", alias="x").join(scan("emp", alias="y"), on=[("x.e_id", "y.e_id")])
        )
        assert res.relation.num_rows == 8
        assert "MergeJoin" in [a.kind for a in res.metrics.operators.values()]

    def test_merge_disabled_by_option(self):
        db = _db()
        executor = Executor(
            PrimaryKeyScheme().build(db),
            options=ExecutionOptions(enable_merge=False),
        )
        res = executor.execute(
            scan("emp", alias="x").join(scan("emp", alias="y"), on=[("x.e_id", "y.e_id")])
        )
        kinds = [a.kind for a in res.metrics.operators.values()]
        assert "HashJoin" in kinds and "MergeJoin" not in kinds


class TestMetrics:
    def test_io_and_cpu_charged(self, plain_exec):
        res = plain_exec.execute(scan("emp"))
        assert res.metrics.io_bytes > 0
        assert res.metrics.cpu_seconds > 0
        assert res.metrics.total_seconds > 0

    def test_column_demand_reduces_io(self, plain_exec):
        all_cols = plain_exec.execute(scan("emp")).metrics.io_bytes
        one_col = plain_exec.execute(
            scan("emp").project(x=col("e_id"))
        ).metrics.io_bytes
        assert one_col < all_cols

    def test_hash_join_memory_held(self, plain_exec):
        res = plain_exec.execute(scan("emp").join(scan("dept"), on=[("e_dept", "d_id")]))
        assert res.metrics.peak_memory_bytes > 0
