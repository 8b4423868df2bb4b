"""Join and aggregation kernels vs. brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.aggregate import (
    AggSpec,
    apply_aggregate,
    distinct_per_partition,
    group_rows,
)
from repro.execution.join_utils import inner_join_pairs, left_join_pairs, semi_join_mask
from repro.execution.sandwich import grouped_aggregate_reference, grouped_join_reference
from repro.storage.keys import encode_join_keys

keys_lists = st.lists(st.integers(0, 8), min_size=0, max_size=40)


def _oracle_pairs(left, right):
    return sorted(
        (i, j) for i, lv in enumerate(left) for j, rv in enumerate(right) if lv == rv
    )


class TestInnerJoin:
    @settings(max_examples=80)
    @given(keys_lists, keys_lists)
    def test_matches_nested_loop(self, left, right):
        l = np.array(left, dtype=np.int64)
        r = np.array(right, dtype=np.int64)
        lidx, ridx = inner_join_pairs(l, r)
        assert sorted(zip(lidx.tolist(), ridx.tolist())) == _oracle_pairs(left, right)

    def test_left_major_order(self):
        l = np.array([2, 1, 2])
        r = np.array([2, 2, 1])
        lidx, _ = inner_join_pairs(l, r)
        assert np.all(np.diff(lidx) >= 0)

    def test_empty_sides(self):
        lidx, ridx = inner_join_pairs(np.array([], dtype=np.int64), np.array([1]))
        assert len(lidx) == 0 and len(ridx) == 0


class TestLeftJoin:
    @settings(max_examples=60)
    @given(keys_lists, keys_lists)
    def test_every_left_row_appears(self, left, right):
        l = np.array(left, dtype=np.int64)
        r = np.array(right, dtype=np.int64)
        lidx, ridx = left_join_pairs(l, r)
        matched = _oracle_pairs(left, right)
        got_matched = sorted(
            (int(a), int(b)) for a, b in zip(lidx, ridx) if b >= 0
        )
        assert got_matched == matched
        unmatched_left = {i for i in range(len(left)) if left[i] not in set(right)}
        got_unmatched = {int(a) for a, b in zip(lidx, ridx) if b < 0}
        assert got_unmatched == unmatched_left


class TestSemiAnti:
    @settings(max_examples=60)
    @given(keys_lists, keys_lists)
    def test_semi_mask(self, left, right):
        mask = semi_join_mask(np.array(left, dtype=np.int64), np.array(right, dtype=np.int64))
        rset = set(right)
        assert list(mask) == [v in rset for v in left]


class TestEncodeJoinKeys:
    def test_multi_column(self):
        l1 = np.array([1, 1, 2])
        l2 = np.array(["a", "b", "a"])
        r1 = np.array([1, 2])
        r2 = np.array(["b", "a"])
        lk, rk = encode_join_keys([l1, l2], [r1, r2])
        lidx, ridx = inner_join_pairs(lk, rk)
        assert sorted(zip(lidx.tolist(), ridx.tolist())) == [(1, 0), (2, 1)]

    def test_string_single_column(self):
        lk, rk = encode_join_keys([np.array(["x", "y"])], [np.array(["y"])])
        assert semi_join_mask(lk, rk).tolist() == [False, True]

    def test_mismatched_counts_rejected(self):
        with pytest.raises(ValueError):
            encode_join_keys([np.array([1])], [])


class TestGroupRows:
    def test_group_numbering_sorted(self):
        idx, firsts, n = group_rows([np.array([3, 1, 3, 2])])
        assert n == 3
        assert list(idx) == [2, 0, 2, 1]

    def test_multi_key(self):
        a = np.array([1, 1, 2, 2])
        b = np.array(["x", "y", "x", "x"])
        idx, firsts, n = group_rows([a, b])
        assert n == 3
        assert idx[2] == idx[3]

    def test_requires_keys(self):
        with pytest.raises(ValueError, match="at least one key column"):
            group_rows([])

    def test_requires_keys_for_tuple_input(self):
        with pytest.raises(ValueError, match="at least one key column"):
            group_rows(())


class TestAggregates:
    def _grouped(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        idx = np.array([0, 0, 1, 1])
        return idx, 2, values

    def test_sum_avg_count(self):
        idx, n, values = self._grouped()
        assert list(apply_aggregate(AggSpec("s", "sum", object()), idx, n, values)[0]) == [3.0, 7.0]
        assert list(apply_aggregate(AggSpec("a", "avg", object()), idx, n, values)[0]) == [1.5, 3.5]
        assert list(apply_aggregate(AggSpec("c", "count"), idx, n, None)[0]) == [2, 2]

    def test_min_max(self):
        idx, n, values = self._grouped()
        assert list(apply_aggregate(AggSpec("m", "min", object()), idx, n, values)[0]) == [1.0, 3.0]
        assert list(apply_aggregate(AggSpec("m", "max", object()), idx, n, values)[0]) == [2.0, 4.0]

    def test_min_int_dtype(self):
        idx = np.array([0, 0, 1])
        out = apply_aggregate(AggSpec("m", "min", object()), idx, 2, np.array([5, 3, 9]))[0]
        assert list(out) == [3, 9]

    def test_string_min_max(self):
        idx = np.array([0, 0, 1])
        vals = np.array(["b", "a", "z"])
        assert list(apply_aggregate(AggSpec("m", "min", object()), idx, 2, vals)[0]) == ["a", "z"]
        assert list(apply_aggregate(AggSpec("m", "max", object()), idx, 2, vals)[0]) == ["b", "z"]

    def test_count_distinct(self):
        idx = np.array([0, 0, 0, 1])
        vals = np.array([7, 7, 8, 7])
        out = apply_aggregate(AggSpec("d", "count_distinct", object()), idx, 2, vals)[0]
        assert list(out) == [2, 1]

    def test_count_with_validity(self):
        idx = np.array([0, 0, 1])
        valid = np.array([True, False, False])
        out = apply_aggregate(AggSpec("c", "count", object()), idx, 2, np.ones(3), valid)[0]
        assert list(out) == [1, 0]

    def test_sum_skips_nulls(self):
        idx = np.array([0, 0])
        valid = np.array([True, False])
        out = apply_aggregate(AggSpec("s", "sum", object()), idx, 1, np.array([5.0, 9.0]), valid)[0]
        assert out[0] == 5.0

    def test_unknown_fn_rejected(self):
        with pytest.raises(ValueError):
            AggSpec("x", "median")

    @settings(max_examples=50)
    @given(st.lists(st.tuples(st.integers(0, 5), st.floats(-100, 100)), min_size=1, max_size=80))
    def test_sum_matches_python(self, rows):
        groups = np.array([g for g, _ in rows])
        values = np.array([v for _, v in rows])
        idx, firsts, n = group_rows([groups])
        out = apply_aggregate(AggSpec("s", "sum", object()), idx, n, values)[0]
        expected = {}
        for g, v in rows:
            expected[g] = expected.get(g, 0.0) + v
        for gi in range(n):
            key = groups[firsts[gi]]
            assert out[gi] == pytest.approx(expected[key])


class TestDistinctPerPartition:
    def test_counts(self):
        pid = np.array([0, 0, 1, 1, 1])
        gid = np.array([0, 0, 1, 2, 2])
        out = distinct_per_partition(pid, gid)
        assert list(out) == [1, 2]

    def test_empty(self):
        assert len(distinct_per_partition(np.array([], dtype=np.int64), np.array([], dtype=np.int64))) == 0


class TestSandwichReference:
    @settings(max_examples=40)
    @given(
        st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2)), min_size=0, max_size=30),
        st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2)), min_size=0, max_size=30),
    )
    def test_grouped_join_equals_vectorised(self, left_rows, right_rows):
        """Group-at-a-time sandwich join == vectorised kernel, when keys
        determine groups (key % 3 here)."""
        lkeys = np.array([k for k, _ in left_rows], dtype=np.int64)
        rkeys = np.array([k for k, _ in right_rows], dtype=np.int64)
        lgroups = lkeys % 3
        rgroups = rkeys % 3
        pairs, _ = grouped_join_reference(lkeys, lgroups, rkeys, rgroups)
        lidx, ridx = inner_join_pairs(lkeys, rkeys)
        assert pairs == sorted(zip(lidx.tolist(), ridx.tolist()))

    def test_grouped_join_memory_bound(self):
        lkeys = np.arange(100, dtype=np.int64)
        rkeys = np.arange(100, dtype=np.int64)
        groups = (np.arange(100) // 25).astype(np.int64)
        _, max_build = grouped_join_reference(lkeys, groups, rkeys, groups)
        assert max_build == 25  # a quarter of the full build side

    def test_grouped_aggregate_reference(self):
        keys = [np.array([10, 10, 20, 30])]
        values = np.array([1.0, 2.0, 3.0, 4.0])
        groups = np.array([0, 0, 0, 1])
        totals, max_state = grouped_aggregate_reference(keys, values, groups)
        assert totals == {(10,): 3.0, (20,): 3.0, (30,): 4.0}
        assert max_state == 2

    def test_grouped_aggregate_detects_partition_violation(self):
        keys = [np.array([10, 10])]
        values = np.array([1.0, 1.0])
        groups = np.array([0, 1])  # same key in two partitions
        with pytest.raises(AssertionError):
            grouped_aggregate_reference(keys, values, groups)
