"""Property-based tests for the shared logical kernels.

The join and aggregation kernels are the single code path every
strategy funnels through — a bug here corrupts *all* schemes equally
and would be invisible to the cross-scheme differential oracle.  These
tests check them against direct python/numpy references over seeded
random inputs: duplicate keys, empty sides, skewed domains, and all-NULL
validity masks.
"""

import numpy as np
import pytest

from repro.execution.aggregate import (
    AggSpec,
    apply_aggregate,
    distinct_per_partition,
    group_rows,
)
from repro.execution.join_utils import (
    encode_join_keys,
    inner_join_pairs,
    left_join_pairs,
    semi_join_mask,
)

SEEDS = range(10)


def _random_keys(rng, max_len=40, domain=8):
    n = int(rng.randint(0, max_len))
    return rng.randint(-domain, domain, n).astype(np.int64)


# ------------------------------------------------------------------- joins
@pytest.mark.parametrize("seed", SEEDS)
def test_inner_join_pairs_matches_naive(seed):
    rng = np.random.RandomState(seed)
    left, right = _random_keys(rng), _random_keys(rng)
    lidx, ridx = inner_join_pairs(left, right)
    got = sorted(zip(lidx.tolist(), ridx.tolist()))
    expected = sorted(
        (i, j)
        for i, lv in enumerate(left.tolist())
        for j, rv in enumerate(right.tolist())
        if lv == rv
    )
    assert got == expected
    # output is left-major: probe-side order survives
    assert lidx.tolist() == sorted(lidx.tolist())


@pytest.mark.parametrize("seed", SEEDS)
def test_left_join_pairs_matches_naive(seed):
    rng = np.random.RandomState(seed)
    left, right = _random_keys(rng), _random_keys(rng)
    lidx, ridx = left_join_pairs(left, right)
    # every left row appears; unmatched exactly once with right == -1
    by_left = {}
    for i, j in zip(lidx.tolist(), ridx.tolist()):
        by_left.setdefault(i, []).append(j)
    for i, lv in enumerate(left.tolist()):
        matches = [j for j, rv in enumerate(right.tolist()) if rv == lv]
        assert sorted(by_left[i]) == (sorted(matches) if matches else [-1])
    assert set(by_left) == set(range(len(left)))


@pytest.mark.parametrize("seed", SEEDS)
def test_semi_join_mask_matches_set(seed):
    rng = np.random.RandomState(seed)
    left, right = _random_keys(rng), _random_keys(rng)
    mask = semi_join_mask(left, right)
    members = set(right.tolist())
    assert mask.tolist() == [v in members for v in left.tolist()]


@pytest.mark.parametrize("seed", SEEDS)
def test_encode_join_keys_preserves_tuple_equality(seed):
    rng = np.random.RandomState(seed)
    n, m = int(rng.randint(1, 30)), int(rng.randint(1, 30))
    strings = np.array(["aa", "ab", "b", "ca"])
    left_cols = [rng.randint(0, 4, n), strings[rng.randint(0, 4, n)]]
    right_cols = [rng.randint(0, 4, m), strings[rng.randint(0, 4, m)]]
    lcodes, rcodes = encode_join_keys(left_cols, right_cols)
    left_tuples = list(zip(left_cols[0].tolist(), left_cols[1].tolist()))
    right_tuples = list(zip(right_cols[0].tolist(), right_cols[1].tolist()))
    for i, lt in enumerate(left_tuples):
        for j, rt in enumerate(right_tuples):
            assert (lcodes[i] == rcodes[j]) == (lt == rt)


def test_join_kernels_empty_sides():
    empty = np.zeros(0, dtype=np.int64)
    keys = np.array([1, 2, 2], dtype=np.int64)
    for left, right in ((empty, keys), (keys, empty), (empty, empty)):
        lidx, ridx = inner_join_pairs(left, right)
        assert len(lidx) == len(ridx) == 0
        # an empty side can never produce a match
        assert not semi_join_mask(left, right).any()
    lidx, ridx = left_join_pairs(keys, empty)
    assert lidx.tolist() == [0, 1, 2] and ridx.tolist() == [-1, -1, -1]


# -------------------------------------------------------------- aggregates
def _reference_groups(columns):
    groups = {}
    for i, key in enumerate(zip(*[c.tolist() for c in columns])):
        groups.setdefault(key, []).append(i)
    return groups


@pytest.mark.parametrize("seed", SEEDS)
def test_group_rows_matches_dict_grouping(seed):
    rng = np.random.RandomState(seed)
    n = int(rng.randint(1, 50))
    columns = [rng.randint(0, 5, n), rng.randint(0, 3, n)]
    group_index, first_rows, num_groups = group_rows(columns)
    reference = _reference_groups(columns)
    assert num_groups == len(reference)
    # same tuple <-> same group id, and representatives belong to their group
    by_group = {}
    tuples = list(zip(*[c.tolist() for c in columns]))
    for i, g in enumerate(group_index.tolist()):
        by_group.setdefault(g, set()).add(tuples[i])
    assert all(len(values) == 1 for values in by_group.values())
    for g, first in enumerate(first_rows.tolist()):
        assert group_index[first] == g


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("fn", ["sum", "count", "avg", "min", "max", "count_distinct"])
def test_apply_aggregate_matches_python_reference(seed, fn):
    rng = np.random.RandomState(seed)
    n = int(rng.randint(1, 60))
    keys = rng.randint(0, 6, n)
    group_index, _, num_groups = group_rows([keys])
    values = rng.randint(-50, 50, n).astype(np.float64)
    valid = rng.random_sample(n) < 0.7  # includes all-NULL groups
    spec = AggSpec("x", fn, object()) if fn != "count" else AggSpec("x", fn)
    result = apply_aggregate(
        spec, group_index, num_groups,
        values if fn != "count" else None,
        valid if fn not in ("count_distinct",) else None,
    )
    for g in range(num_groups):
        rows = np.flatnonzero(group_index == g)
        masked = [values[i] for i in rows if valid[i]]
        if fn == "count":
            expected = len([i for i in rows if valid[i]])
        elif fn == "sum":
            expected = sum(masked)
        elif fn == "avg":
            expected = sum(masked) / len(masked) if masked else None
        elif fn == "min":
            expected = min(masked) if masked else None
        elif fn == "max":
            expected = max(masked) if masked else None
        else:  # count_distinct ignores validity, like the kernel
            expected = len({values[i] for i in rows})
        if expected is None:
            continue  # empty-group sentinel behaviour pinned elsewhere
        assert result[g] == pytest.approx(expected)


def test_apply_aggregate_all_null_masks():
    group_index = np.array([0, 0, 1], dtype=np.int64)
    values = np.array([5.0, 7.0, 9.0])
    no_valid = np.zeros(3, dtype=bool)
    count = apply_aggregate(AggSpec("c", "count", object()), group_index, 2, values, no_valid)
    assert count.tolist() == [0, 0]
    total = apply_aggregate(AggSpec("s", "sum", object()), group_index, 2, values, no_valid)
    assert total.tolist() == [0.0, 0.0]


def test_apply_aggregate_string_min_max():
    group_index = np.array([0, 1, 0, 1], dtype=np.int64)
    values = np.array(["pear", "fig", "apple", "quince"])
    low = apply_aggregate(AggSpec("m", "min", object()), group_index, 2, values)
    high = apply_aggregate(AggSpec("m", "max", object()), group_index, 2, values)
    assert low.tolist() == ["apple", "fig"]
    assert high.tolist() == ["pear", "quince"]


@pytest.mark.parametrize("dtype", [np.float64, np.int64, "<U3"], ids=["float", "int", "str"])
def test_apply_aggregate_empty_input(dtype):
    """Zero rows give each kernel's own zero-length output — the dtype
    it produces for a non-empty input of the same type — so a partition
    that filtered to nothing cannot change a gathered column's type."""
    group_index = np.zeros(0, dtype=np.int64)
    values = np.zeros(0, dtype=dtype)
    fns = ("count", "min", "max", "count_distinct")
    if values.dtype.kind != "U":
        fns += ("sum", "avg")
    for fn in fns:
        spec = AggSpec("x", fn, object() if fn != "count" else None)
        result = apply_aggregate(spec, group_index, 0, values if fn != "count" else None)
        filled = apply_aggregate(
            spec, np.zeros(1, dtype=np.int64), 1,
            np.zeros(1, dtype=dtype) if fn != "count" else None,
        )
        assert len(result) == 0
        assert result.dtype == filled.dtype, fn
    # ... and a group whose every row is null (string extrema included)
    # still gets its slot
    for fn in ("min", "max"):
        masked = apply_aggregate(
            AggSpec("x", fn, object()), np.zeros(2, dtype=np.int64), 1,
            np.zeros(2, dtype=dtype), valid=np.zeros(2, dtype=bool),
        )
        assert len(masked) == 1 and masked.dtype == np.zeros(1, dtype=dtype).dtype


@pytest.mark.parametrize("seed", SEEDS)
def test_distinct_per_partition_matches_sets(seed):
    rng = np.random.RandomState(seed)
    n = int(rng.randint(1, 60))
    partitions = rng.randint(0, 4, n).astype(np.uint64)
    group_index = rng.randint(0, 7, n).astype(np.int64)
    per_partition = distinct_per_partition(partitions, group_index)
    reference = {}
    for p, g in zip(partitions.tolist(), group_index.tolist()):
        reference.setdefault(p, set()).add(g)
    assert sorted(per_partition.tolist()) == sorted(len(s) for s in reference.values())


def test_distinct_per_partition_empty():
    assert len(distinct_per_partition(np.zeros(0, np.uint64), np.zeros(0, np.int64))) == 0
