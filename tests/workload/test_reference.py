"""The SQL reference, checked against hand-computed answers and against
the engine on handwritten plans (including SQL's NULL rules), plus a
generated plan whose joins pair millions of candidate rows."""

import numpy as np
import pytest

from repro import tpch
from repro.catalog import DECIMAL, INT32, Schema, string_type
from repro.execution.aggregate import AggSpec
from repro.execution.expressions import col
from repro.execution.relation import Relation
from repro.planner.executor import ExecutionOptions, Executor
from repro.planner.logical import scan
from repro.schemes.plain import PlainScheme
from repro.storage.database import Database
from repro.workload.differential import normalized_rows, reference_mismatch, rows_match
from repro.workload.generator import PlanGenerator
from repro.workload.reference import evaluate_reference


def _dept_emp(departments):
    """Departments ``1..len(departments)`` named ``departments``, and
    eight employees in departments 1-3."""
    schema = Schema()
    schema.add_table(
        "dept", [("d_id", INT32), ("d_name", string_type(10))], primary_key=["d_id"]
    )
    schema.add_table(
        "emp",
        [("e_id", INT32), ("e_dept", INT32), ("e_sal", DECIMAL)],
        primary_key=["e_id"],
    )
    schema.add_foreign_key("FK_E_D", "emp", ["e_dept"], "dept")
    database = Database(schema)
    database.add_table_data("dept", {
        "d_id": np.arange(1, len(departments) + 1, dtype=np.int32),
        "d_name": np.array(departments),
    })
    database.add_table_data("emp", {
        "e_id": np.arange(8, dtype=np.int32),
        "e_dept": np.array([1, 1, 2, 2, 2, 3, 1, 2], dtype=np.int32),
        "e_sal": np.array([10.0, 20, 30, 40, 50, 60, 70, 80]),
    })
    return database


@pytest.fixture(scope="module")
def db():
    return _dept_emp(["eng", "ops", "hr"])


@pytest.fixture(scope="module")
def lonely_db():
    """Plus department 4, which has no employee."""
    return _dept_emp(["eng", "ops", "hr", "fin"])


class TestAgainstHandComputedAnswers:
    def test_scan_filter(self, db):
        rel = evaluate_reference(db, scan("emp", predicate=col("e_sal").gt(45)))
        assert sorted(rel.columns["e_id"].tolist()) == [4, 5, 6, 7]

    def test_groupby_sum(self, db):
        rel = evaluate_reference(
            db, scan("emp").groupby(["e_dept"], [AggSpec("t", "sum", col("e_sal"))])
        )
        totals = dict(zip(rel.columns["e_dept"].tolist(), rel.columns["t"].tolist()))
        assert totals == {1: 100.0, 2: 200.0, 3: 60.0}

    def test_inner_join(self, db):
        rel = evaluate_reference(
            db, scan("emp").join(scan("dept"), on=[("e_dept", "d_id")])
        )
        lookup = dict(zip(rel.columns["e_id"].tolist(), rel.columns["d_name"].tolist()))
        assert lookup[0] == "eng" and lookup[5] == "hr"

    def test_left_join_count_nulls(self, db):
        plan = (
            scan("dept")
            .join(scan("emp", predicate=col("e_sal").gt(1000)),
                  on=[("d_id", "e_dept")], how="left")
            .groupby(["d_name"], [AggSpec("n", "count", col("e_id"))])
        )
        rel = evaluate_reference(db, plan)
        counts = dict(zip(rel.columns["d_name"].tolist(), rel.columns["n"].tolist()))
        assert counts == {"eng": 0, "ops": 0, "hr": 0}

    def test_semi_with_residual(self, db):
        plan = scan("emp").join(
            scan("dept"), on=[("e_dept", "d_id")], how="semi",
            residual=col("e_sal").gt(60),
        )
        rel = evaluate_reference(db, plan)
        assert sorted(rel.columns["e_id"].tolist()) == [6, 7]

    def test_sort_limit(self, db):
        plan = scan("emp").project(i=col("e_id"), s=col("e_sal")).sort(
            [("s", False)]
        ).limit(3)
        rel = evaluate_reference(db, plan)
        assert rel.columns["i"].tolist() == [7, 6, 5]

    def test_scalar_agg_on_empty_input_yields_no_rows(self, db):
        plan = scan("emp", predicate=col("e_sal").gt(10_000)).groupby(
            [], [AggSpec("n", "count")]
        )
        rel = evaluate_reference(db, plan)
        assert rel.num_rows == 0


def _unmatched_dept(*aggs):
    """Every department left-joined to its employees earning over 65:
    dept 3 has none, so its employee columns are NULL (the engine's
    placeholders are the first surviving employee's values: e_id 6,
    e_sal 70)."""
    return scan("dept").join(
        scan("emp", predicate=col("e_sal").gt(65)), on=[("d_id", "e_dept")], how="left",
    ).groupby(["d_id"], list(aggs))


class TestAgainstEngine:
    """The two implementations must agree on handwritten plans.  An
    aggregate skips a row whenever a column its expression reads is
    NULL, in the reference (SQL) and in the engine alike."""

    @pytest.fixture(scope="class")
    def executor(self, db):
        return Executor(PlainScheme().build(db))

    @pytest.mark.parametrize("make_plan", [
        lambda: scan("emp").project(i=col("e_id"), d=col("e_sal") * 2),
        lambda: scan("emp").join(scan("dept"), on=[("e_dept", "d_id")], how="anti"),
        lambda: scan("emp").join(
            scan("dept", predicate=col("d_name").ne("hr")),
            on=[("e_dept", "d_id")], how="left",
        ).groupby(["e_dept"], [AggSpec("n", "count", col("d_name")),
                               AggSpec("m", "max", col("e_sal"))]),
        lambda: scan("emp").groupby(
            ["e_dept"], [AggSpec("u", "count_distinct", col("e_sal")),
                         AggSpec("a", "avg", col("e_sal"))]
        ),
        lambda: scan("dept").join(scan("emp"), on=[("d_id", "e_dept")], how="semi",
                                  residual=col("e_sal").ge(60)),
    ])
    def test_agree(self, db, executor, make_plan):
        plan = make_plan()
        reference = evaluate_reference(db, plan)
        result = executor.execute(plan)
        names = sorted(result.relation.column_names)
        assert sorted(reference.visible_names) == names
        assert rows_match(
            normalized_rows(reference.columns, names),
            normalized_rows(result.relation.columns, names),
        )

    @pytest.mark.parametrize("agg, expected", [
        (AggSpec("v", "sum", col("e_sal") * 2), {1: 140.0, 2: 160.0, 3: None}),
        (AggSpec("v", "count", col("e_sal")), {1: 1, 2: 1, 3: 0}),
        (AggSpec("v", "count_distinct", col("e_sal")), {1: 1, 2: 1, 3: 0}),
    ])
    def test_left_join_unmatched_rows(self, db, executor, agg, expected):
        plan = _unmatched_dept(agg)
        reference = evaluate_reference(db, plan)
        got = executor.execute(plan).relation
        assert _per_dept(reference) == expected
        assert _per_dept(got) == expected
        assert reference_mismatch(reference, got)[0] is None

    def test_computed_projection_of_a_null_extended_column_is_null(self, db, executor):
        """``v = e_sal * 2`` over dept 3's null-extended row is NULL, as
        SQL says, not twice its placeholder: the aggregate above skips it."""
        plan = scan("dept").join(
            scan("emp", predicate=col("e_sal").gt(65)), on=[("d_id", "e_dept")], how="left",
        ).project(d=col("d_id"), v=col("e_sal") * 2).groupby(
            ["d"], [AggSpec("s", "sum", col("v")), AggSpec("n", "count", col("v"))]
        )
        got = executor.execute(plan).relation
        assert dict(zip(got.column("d").tolist(), got.column("n").tolist())) == {1: 1, 2: 1, 3: 0}
        assert reference_mismatch(evaluate_reference(db, plan), got)[0] is None

    def test_computed_projection_over_a_tpch_left_join(self, tpch_db, plain_db):
        plan = scan("customer").join(
            scan("orders"), on=[("c_custkey", "o_custkey")], how="left"
        ).project(c_nationkey=col("c_nationkey"), v=col("o_totalprice") * 2.0).groupby(
            ["c_nationkey"], [AggSpec("s", "sum", col("v")), AggSpec("n", "count", col("v"))]
        )
        reference = evaluate_reference(tpch_db, plan)
        result = Executor(plain_db).execute(plan)
        names = sorted(result.relation.column_names)
        assert rows_match(
            normalized_rows(reference.columns, names),
            normalized_rows(result.relation.columns, names),
        )

    @pytest.mark.parametrize("fn, column", [
        ("sum", "e_sal"), ("avg", "e_sal"), ("min", "e_sal"), ("max", "e_sal"),
        ("sum", "e_id"), ("min", "e_id"), ("max", "e_id"),
    ])
    def test_an_aggregate_of_no_valid_row_is_null(self, db, executor, fn, column):
        """SQL's SUM, AVG, MIN and MAX over no valid row are NULL, and so
        are the engine's, over the dtype's placeholder."""
        plan = _unmatched_dept(AggSpec("v", fn, col(column)))
        reference = evaluate_reference(db, plan)
        got = executor.execute(plan).relation
        assert _per_dept(reference)[3] is None and _per_dept(got)[3] is None
        assert got.column("v")[got.column("d_id").tolist().index(3)] == 0
        assert reference.valid["v"].sum() == got.valid["v"].sum() == 2
        assert reference_mismatch(reference, got)[0] is None


def _per_dept(rel):
    """``d_id -> v``, NULL as None."""
    valid = rel.valid.get("v", np.ones(rel.num_rows, dtype=bool))
    return {
        d: v if ok else None
        for d, v, ok in zip(rel.columns["d_id"].tolist(), rel.columns["v"].tolist(), valid)
    }


def _dept_left_join_emp():
    return scan("dept").join(scan("emp"), on=[("d_id", "e_dept")], how="left")


class TestJudgeReadsValidity:
    """``dept LEFT JOIN emp`` emits department 4's employee columns
    raw: NULL in the reference, a masked placeholder in the engine.
    The judge compares NULL with NULL, not with the placeholder."""

    @pytest.fixture(scope="class")
    def executor(self, lonely_db):
        return Executor(PlainScheme().build(lonely_db))

    @pytest.mark.parametrize("make_plan", [
        _dept_left_join_emp,
        lambda: _dept_left_join_emp().sort([("e_sal", True)]),
    ])
    def test_a_raw_nullable_output_is_judged_equal(self, lonely_db, executor, make_plan):
        plan = make_plan()
        reference = evaluate_reference(lonely_db, plan)
        got = executor.execute(plan).relation
        row = got.column("d_id").tolist().index(4)
        assert not got.valid["e_sal"][row] and got.valid["e_sal"].sum() == 8
        assert reference.valid["e_sal"].sum() == 8
        assert reference_mismatch(reference, got)[0] is None

    def test_a_value_where_the_reference_is_null_is_reported(self, lonely_db, executor):
        plan = _dept_left_join_emp()
        reference = evaluate_reference(lonely_db, plan)
        got = executor.execute(plan).relation
        unmasked = Relation(
            columns=dict(got.columns),
            valid={name: mask for name, mask in got.valid.items() if name != "e_sal"},
        )
        detail = reference_mismatch(reference, unmasked)[0]
        assert detail is not None and "NULL" in detail


class TestSortPlacesNull:
    """``Sort`` puts NULL first ascending and last descending, as the
    reference (sqlite) does; NULL rows tie with each other whatever
    placeholder lies under them, so the next key orders them."""

    @pytest.fixture(scope="class")
    def lonelier_db(self):
        """Departments 4 and 5 have no employee: two NULL rows."""
        return _dept_emp(["eng", "ops", "hr", "fin", "law"])

    @pytest.mark.parametrize("ascending", [True, False])
    @pytest.mark.parametrize("next_ascending", [True, False])
    @pytest.mark.parametrize("database", ["lonely_db", "lonelier_db"])
    def test_the_order_is_the_references(
        self, request, database, ascending, next_ascending
    ):
        database = request.getfixturevalue(database)
        plan = _dept_left_join_emp().sort([("e_sal", ascending), ("d_id", next_ascending)])
        reference = evaluate_reference(database, plan)
        got = Executor(PlainScheme().build(database)).execute(plan).relation
        assert got.valid["e_sal"].tolist() == reference.valid["e_sal"].tolist()
        assert got.valid["e_sal"][0] != ascending  # NULL leads ascending only
        assert got.column("d_id").tolist() == reference.columns["d_id"].tolist()

    def test_limit_over_the_ascending_sort_is_the_null_row(self, lonely_db):
        plan = _dept_left_join_emp().sort([("e_sal", True)]).limit(1)
        reference = evaluate_reference(lonely_db, plan)
        got = Executor(PlainScheme().build(lonely_db)).execute(plan).relation
        assert got.column("d_id").tolist() == [4] and not got.valid["e_sal"][0]
        assert reference_mismatch(reference, got)[0] is None


class TestSqlNullSemantics:
    """Over ``dept LEFT JOIN emp`` of ``lonely_db`` department 4's
    employee columns are NULL; the engine answers as SQL does."""

    @pytest.fixture(scope="class")
    def executor(self, lonely_db):
        return Executor(PlainScheme().build(lonely_db))

    def _judge(self, lonely_db, executor, plan, rows):
        reference = evaluate_reference(lonely_db, plan)
        got = executor.execute(plan).relation
        assert (reference.num_rows, got.num_rows) == (rows, rows)
        assert reference_mismatch(reference, got)[0] is None
        return got

    @pytest.mark.parametrize("predicate, rows", [
        (col("e_sal").gt(5), 8),
        (~col("e_sal").gt(15), 1),
    ])
    def test_a_filter_keeps_a_row_only_where_its_predicate_is_true(
        self, lonely_db, executor, predicate, rows
    ):
        self._judge(lonely_db, executor, _dept_left_join_emp().filter(predicate), rows)

    @pytest.mark.parametrize("how, residual, rows", [
        ("inner", col("e_sal").gt(5), 8),
        ("semi", ~col("e_sal").gt(15), 1),
        ("anti", ~col("e_sal").gt(15), 8),
    ])
    def test_a_join_residual_keeps_a_pair_only_where_it_is_true(
        self, lonely_db, executor, how, residual, rows
    ):
        plan = _dept_left_join_emp().join(
            scan("dept", alias="d2"), on=[("d_id", "d2.d_id")], how=how, residual=residual
        )
        self._judge(lonely_db, executor, plan, rows)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_null_group_keys_form_one_group_numbered_first(self, lonely_db, workers):
        plan = _dept_left_join_emp().groupby(["e_dept"], [AggSpec("n", "count")])
        executor = Executor(
            PlainScheme().build(lonely_db),
            options=ExecutionOptions(workers=workers, min_partition_rows=1),
        )
        got = self._judge(lonely_db, executor, plan, 4)
        assert got.valid["e_dept"].tolist() == [False, True, True, True]
        assert got.column("e_dept").tolist() == [0, 1, 2, 3]  # the placeholder leads
        assert got.column("n").tolist() == [1, 3, 4, 1]

    @pytest.mark.parametrize("null_side, how, rows", [
        ("left", "inner", 8), ("left", "left", 9), ("left", "semi", 8), ("left", "anti", 1),
        ("right", "inner", 8), ("right", "left", 9),
    ])
    def test_a_null_join_key_matches_nothing(self, lonely_db, executor, null_side, how, rows):
        """Department 4's NULL ``e_dept`` lies over the placeholder 1;
        anti keeps its row, as ``NOT EXISTS`` does."""
        nullable, departments = _dept_left_join_emp(), scan("dept", alias="d2")
        if null_side == "left":
            plan = nullable.join(departments, on=[("e_dept", "d2.d_id")], how=how)
        else:
            plan = departments.join(nullable, on=[("d2.d_id", "e_dept")], how=how)
        self._judge(lonely_db, executor, plan, rows)

    @pytest.mark.parametrize("how, rows", [("inner", 8), ("left", 9), ("semi", 8), ("anti", 1)])
    def test_a_null_join_key_matches_nothing_on_the_sorted_path(
        self, lonely_db, executor, how, rows
    ):
        """Keys 1000 apart span more slots than both sides have rows."""
        nullable = _dept_left_join_emp().project(d_id=col("d_id"), k=col("e_dept") * 1000)
        departments = scan("dept", alias="d2").project(k2=col("d2.d_id") * 1000)
        plan = nullable.join(departments, on=[("k", "k2")], how=how)
        self._judge(lonely_db, executor, plan, rows)

    def test_min_of_a_department_with_no_employee_is_null(self, lonely_db, executor):
        plan = _dept_left_join_emp().groupby(["d_id"], [AggSpec("v", "min", col("e_sal"))])
        got = self._judge(lonely_db, executor, plan, 4)
        assert _per_dept(got) == {1: 10.0, 2: 30.0, 3: 60.0, 4: None}


@pytest.mark.workload
def test_anti_join_over_lineitem_self_join_at_sf_001():
    """Generated plan seed 0 / index 41 at SF 0.01: an anti join with a
    residual over a LINEITEM self-join, millions of candidate row pairs.
    The reference finishes and agrees with the Plain engine."""
    database = tpch.generate(scale_factor=0.01, seed=7)
    query = PlanGenerator(database).generate(0, 41)
    reference = evaluate_reference(database, query.plan)
    got = Executor(PlainScheme().build(database)).execute(query.plan).relation
    assert reference_mismatch(reference, got)[0] is None
