"""Relation container, held memory, execution metrics, query runner."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.metrics import ExecutionMetrics
from repro.execution.relation import Relation, row_bytes_of


def _rel():
    return Relation(
        columns={
            "a": np.array([1, 2, 3], dtype=np.int64),
            "b": np.array(["x", "y", "z"]),
            "__grp__t__0": np.array([0, 0, 1], dtype=np.uint64),
        },
    )


class TestRelation:
    def test_is_columns_and_validity_only(self):
        # stream properties (order, carried uses, ownership) are plan
        # facts owned by lowering; a batch must not grow them back: its
        # only public state is its columns and their validity
        assert list(inspect.signature(Relation).parameters) == ["columns", "valid"]
        assert [n for n in Relation.__slots__ if not n.startswith("_")] == ["valid"]
        assert isinstance(Relation.columns, property) and Relation.columns.fset is None
        with pytest.raises(TypeError):
            Relation(columns={}, sorted_on=("a",))
        with pytest.raises(AttributeError):
            _rel().sorted_on = ("a",)

    def test_visible_columns_hide_group_ids(self):
        rel = _rel()
        assert rel.column_names == ["a", "b"]
        assert rel.num_rows == 3

    def test_filter_preserves_properties(self):
        rel = _rel()
        out = rel.filter(np.array([True, False, True]))
        assert out.num_rows == 2
        assert list(out.columns) == list(rel.columns)
        assert list(out.columns["__grp__t__0"]) == [0, 1]
        taken = rel.take(np.array([2, 0]))
        assert list(taken.columns["a"]) == [3, 1]

    def test_row_bytes_strings_counted_as_chars(self):
        cols = {"s": np.array(["abcd", "ef"])}  # <U4 -> 4 bytes modelled
        assert row_bytes_of(cols) == pytest.approx(4.0)

    def test_missing_column_error_is_helpful(self):
        with pytest.raises(KeyError, match="no column 'zz'"):
            _rel().column("zz")

    def test_to_rows(self):
        rows = _rel().to_rows()
        assert rows[0] == (1, "x")

    def test_validity_masks_travel(self):
        rel = _rel()
        rel.valid["a"] = np.array([True, False, True])
        out = rel.filter(np.array([True, True, False]))
        assert list(out.valid["a"]) == [True, False]


class TestMaskIsACandidateList:
    """``take(mask)`` turns the mask into positions once; a mask of the
    wrong length must still fail, as boolean indexing did, instead of
    selecting a prefix."""

    @pytest.mark.parametrize("mask", [[True, False], [True, False, True, True], []])
    def test_mask_of_the_wrong_length_raises(self, mask):
        rel = _rel()
        rel.valid["a"] = np.array([True, False, True])
        with pytest.raises(IndexError, match="boolean mask"):
            rel.filter(np.array(mask, dtype=bool))

    def test_all_false_mask_keeps_every_column_and_dtype(self):
        rel = _rel()
        rel.valid["b"] = np.array([False, True, True])
        out = rel.filter(np.zeros(3, dtype=bool))
        assert out.num_rows == 0
        for name, array in rel.columns.items():
            assert out.columns[name].dtype == array.dtype
        assert out.valid["b"].dtype == bool and len(out.valid["b"]) == 0

    def test_zero_row_relation(self):
        rel = Relation(columns={"a": np.zeros(0, dtype=np.int32)}, valid={"a": np.zeros(0, bool)})
        out = rel.filter(np.zeros(0, dtype=bool))
        assert out.num_rows == 0 and out.columns["a"].dtype == np.int32
        with pytest.raises(IndexError):
            rel.filter(np.ones(1, dtype=bool))
        assert Relation(columns={}).filter(np.zeros(0, dtype=bool)).num_rows == 0

    def test_validity_masks_and_hidden_columns_follow_the_positions(self):
        rel = _rel()
        rel.valid["a"] = np.array([False, True, True])
        out = rel.filter(np.array([False, True, True]))
        assert out.columns["__grp__t__0"].tolist() == [0, 1]
        assert out.valid["a"].tolist() == [True, True]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(-5, 5), st.booleans(), st.booleans()), max_size=40))
    def test_a_mask_equals_its_positions_and_the_boolean_gather(self, rows):
        values = np.array([r[0] for r in rows], dtype=np.int64)
        valid = np.array([r[1] for r in rows], dtype=bool)
        mask = np.array([r[2] for r in rows], dtype=bool)
        rel = Relation(
            columns={
                "v": values,
                "s": values.astype(str),
                "__grp__t__0": values.astype(np.uint64),
            },
            valid={"v": valid},
        )
        by_mask = rel.take(mask)
        by_positions = rel.take(np.flatnonzero(mask))
        for got, name in ((by_mask, "mask"), (by_positions, "positions")):
            assert list(got.columns) == list(rel.columns), name
            for column, array in rel.columns.items():
                expected = array[mask]  # what boolean indexing returned
                assert got.columns[column].dtype == expected.dtype
                assert got.columns[column].tobytes() == expected.tobytes()
            assert got.valid["v"].tobytes() == valid[mask].tobytes()


class TestHold:
    """A fragment holds its blocking state until it ends: ``hold`` only
    adds, overall and per tag."""

    def _context(self):
        from repro.execution.cost import DEFAULT_COSTS
        from repro.execution.operators import ExecutionContext
        from repro.storage.io_model import PAPER_SSD

        return ExecutionContext(PAPER_SSD, DEFAULT_COSTS, ExecutionMetrics())

    def test_peaks_are_sums_of_holds(self):
        ctx = self._context()
        ctx.hold("a", 100)
        ctx.hold("b", 50)
        ctx.hold("a", 60)
        assert ctx.metrics.peak_memory_bytes == 210.0
        assert ctx.metrics.peak_memory_by_tag == {"a": 160.0, "b": 50.0}

    def test_non_positive_holds_are_not_recorded(self):
        ctx = self._context()
        ctx.hold("a", 0)
        ctx.hold("b", -5)
        assert ctx.metrics.peak_memory_bytes == 0.0
        assert ctx.metrics.peak_memory_by_tag == {}

    def test_holds_are_plain_floats(self):
        ctx = self._context()
        ctx.hold("a", np.int64(7))
        assert type(ctx.metrics.peak_memory_bytes) is float
        assert type(ctx.metrics.peak_memory_by_tag["a"]) is float


class TestExecutionMetrics:
    def test_totals(self):
        m = ExecutionMetrics()
        m.charge_io(1000, 2, 0.5)
        m.charge_cpu(0.25, "join")
        assert m.total_seconds == pytest.approx(0.75)
        assert m.counters["join"] == pytest.approx(0.25)

    def test_bumps(self):
        m = ExecutionMetrics()
        m.bump("sandwich_joins")
        m.bump("sandwich_joins")
        assert m.counters["sandwich_joins"] == 2.0


class TestQueryRunner:
    def test_multi_stage_merge(self, plain_db, environment):
        from repro.execution.aggregate import AggSpec
        from repro.execution.expressions import col
        from repro.planner.executor import Executor
        from repro.planner.logical import scan
        from repro.tpch.runner import QueryRunner

        runner = QueryRunner(Executor(plain_db, disk=environment.disk))
        first = runner.execute(scan("nation").groupby([], [AggSpec("n", "count")]))
        io_after_first = runner.metrics.io_seconds
        runner.execute(scan("region").groupby([], [AggSpec("n", "count")]))
        assert runner.metrics.io_seconds > io_after_first
        # peak is the max across stages, not the sum
        assert runner.metrics.peak_memory_bytes >= 0
        assert first.relation.num_rows == 1

    def test_stage_peaks_merge_as_maxima(self, plain_db):
        from repro.planner.executor import Executor
        from repro.tpch.runner import QueryRunner

        runner = QueryRunner(Executor(plain_db))
        runner._merge(ExecutionMetrics(
            peak_memory_bytes=10.0, peak_memory_by_tag={"sort": 10.0, "exchange": 0.0}
        ))
        runner._merge(ExecutionMetrics(
            peak_memory_bytes=6.0, peak_memory_by_tag={"sort": 4.0, "agg:hash": 6.0}
        ))
        # stages run one after another: maxima, never sums, and a tag
        # that held nothing in any stage stays out of the record
        assert runner.metrics.peak_memory_bytes == 10.0
        assert runner.metrics.peak_memory_by_tag == {"sort": 10.0, "agg:hash": 6.0}

    def test_scale_factor_defaults_to_one(self, plain_db):
        from repro.planner.executor import Executor
        from repro.tpch.runner import QueryRunner

        plain_db.database.scale_factor, saved = None, plain_db.database.scale_factor
        try:
            runner = QueryRunner(Executor(plain_db))
            assert runner.scale_factor == 1.0
        finally:
            plain_db.database.scale_factor = saved
