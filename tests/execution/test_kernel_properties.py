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
from repro.execution.join_utils import inner_join_pairs, left_join_pairs, semi_join_mask
from repro.storage.keys import encode_join_keys

from .test_kernel_paths import CASTS  # a small key domain in every dtype

SEEDS = range(10)

I64 = np.iinfo(np.int64)

#: key domains: 8 always takes the direct-address / offset path, 10**3
#: takes it once a side has a few hundred rows, the rest never do
DOMAINS = {"8": 8, "1e3": 10**3, "1e6": 10**6, "1e12": 10**12, "int64": None}
OFFSETS = {"zero": 0, "negative": -(10**3) // 2, "1e9": 10**9}
BUILD_SHAPES = ("unsorted", "sorted", "all-equal", "unique")
SIZES = {"small": 40, "large": 700}


def _draw(rng, n, domain, offset):
    if domain is None:  # the whole of int64, both ends included
        keys = rng.randint(I64.min, I64.max, n, dtype=np.int64)
        if n >= 2:
            keys[:2] = I64.min, I64.max
        return keys
    return rng.randint(0, domain, n).astype(np.int64) + offset


def _random_keys(rng, max_len=40, domain=8, offset=0, shape="unsorted", like=None):
    """Keys of one join side.  ``like``: take half the keys from another
    side's values, so that wide domains still produce matches."""
    n = int(rng.randint(0, max_len))
    keys = _draw(rng, n, domain, offset)
    if like is not None and len(like) and n:
        borrowed = rng.random_sample(n) < 0.5
        keys[borrowed] = like[rng.randint(0, len(like), int(borrowed.sum()))]
    if shape == "sorted":
        keys = np.sort(keys)
    elif shape == "all-equal" and n:
        keys = np.full(n, keys[0])
    elif shape == "unique":
        keys = rng.permutation(np.unique(keys))
    return keys


def _naive_inner(left, right):
    """Pairs in the kernels' contract order: left-major, build order
    within a key — from a dict of lists, no sorting, no numpy."""
    rows_of = {}
    for j, value in enumerate(right.tolist()):
        rows_of.setdefault(value, []).append(j)
    return [(i, j) for i, value in enumerate(left.tolist()) for j in rows_of.get(value, [])]


def _naive_left(left, right):
    rows_of = {}
    for j, value in enumerate(right.tolist()):
        rows_of.setdefault(value, []).append(j)
    return [(i, j) for i, value in enumerate(left.tolist()) for j in rows_of.get(value, [-1])]


def _check_joins(left, right):
    lidx, ridx = inner_join_pairs(left, right)
    assert lidx.dtype == ridx.dtype == np.int64
    assert list(zip(lidx.tolist(), ridx.tolist())) == _naive_inner(left, right)
    lidx, ridx = left_join_pairs(left, right)
    assert lidx.dtype == ridx.dtype == np.int64
    assert list(zip(lidx.tolist(), ridx.tolist())) == _naive_left(left, right)
    mask = semi_join_mask(left, right)
    members = set(right.tolist())
    assert mask.dtype == bool
    assert mask.tolist() == [value in members for value in left.tolist()]


# ------------------------------------------------------------------- joins
@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("shape", BUILD_SHAPES)
@pytest.mark.parametrize("offset", OFFSETS)
@pytest.mark.parametrize("domain", DOMAINS)
def test_join_kernels_match_naive(domain, offset, shape, size, seed):
    """Inner, left and semi against the dict reference, exact order
    included, on both sides of the density rule: every key domain x
    offset x build-side shape, at a size where 10**3 keys are sparse
    (40 rows) and one where they are dense (700)."""
    rng = np.random.RandomState(seed)
    right = _random_keys(rng, SIZES[size], DOMAINS[domain], OFFSETS[offset], shape)
    left = _random_keys(rng, SIZES[size], DOMAINS[domain], OFFSETS[offset], like=right)
    _check_joins(left, right)


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


@pytest.mark.parametrize("where", ["below", "above", "both"])
@pytest.mark.parametrize("domain", ["8", "1e6"])
def test_probe_keys_outside_the_build_range(domain, where):
    """Probe keys entirely below / above [min, max] of the build side
    match nothing on either path (8: direct table, 1e6: sorted)."""
    rng = np.random.RandomState(0)
    right = _draw(rng, 30, DOMAINS[domain], 100)
    below = np.arange(100 - 25, 100, dtype=np.int64)
    above = right.max() + 1 + np.arange(25, dtype=np.int64)
    left = {"below": below, "above": above, "both": np.concatenate([above, below])}[where]
    _check_joins(left, right)
    assert len(inner_join_pairs(left, right)[0]) == 0
    # ... and beside keys that do match
    _check_joins(np.concatenate([left, right[:5]]), right)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("dtype", CASTS)
def test_join_kernels_over_dtypes(dtype, seed):
    rng = np.random.RandomState(seed)
    left = CASTS[dtype](rng.randint(0, 8, int(rng.randint(0, 40))))
    right = CASTS[dtype](rng.randint(0, 8, int(rng.randint(0, 40))))
    _check_joins(left, right)


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


def _check_group_rows(columns):
    """Against dict grouping: same tuple <=> same group, groups numbered
    in key sort order, each represented by its first row."""
    group_index, first_rows, num_groups = group_rows(columns)
    assert group_index.dtype == first_rows.dtype == np.int64
    tuples = list(zip(*[c.tolist() for c in columns]))
    reference = _reference_groups(columns)
    assert num_groups == len(reference)
    ordered = sorted(reference)
    assert group_index.tolist() == [ordered.index(t) for t in tuples]
    assert first_rows.tolist() == [reference[t][0] for t in ordered]


@pytest.mark.parametrize("seed", SEEDS)
def test_group_rows_matches_dict_grouping(seed):
    rng = np.random.RandomState(seed)
    n = int(rng.randint(1, 50))
    _check_group_rows([rng.randint(0, 5, n), rng.randint(0, 3, n)])


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("shape", BUILD_SHAPES)
@pytest.mark.parametrize("offset", OFFSETS)
@pytest.mark.parametrize("domain", DOMAINS)
def test_group_rows_over_key_domains(domain, offset, shape, size, seed):
    """One and two key columns on both sides of the offset rule (a
    column's span against its length) and of the presence-table rule
    (the code space against the row count)."""
    rng = np.random.RandomState(seed)
    keys = _random_keys(rng, SIZES[size], DOMAINS[domain], OFFSETS[offset], shape)
    if not len(keys):
        keys = np.zeros(1, dtype=np.int64)
    _check_group_rows([keys])
    _check_group_rows([rng.randint(0, 3, len(keys)), keys])
    _check_group_rows([keys, rng.randint(-2, 2, len(keys))])


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("dtype", CASTS)
def test_group_rows_over_dtypes(dtype, seed):
    rng = np.random.RandomState(seed)
    n = int(rng.randint(1, 40))
    column = CASTS[dtype](rng.randint(0, 8, n))
    _check_group_rows([column])
    _check_group_rows([column, rng.randint(0, 3, n)])
    _check_group_rows([CASTS["U3"](rng.randint(0, 8, n)), column])


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
    result, result_valid = apply_aggregate(
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
            expected = sum(masked) if masked else None
        elif fn == "avg":
            expected = sum(masked) / len(masked) if masked else None
        elif fn == "min":
            expected = min(masked) if masked else None
        elif fn == "max":
            expected = max(masked) if masked else None
        else:  # count_distinct ignores validity, like the kernel
            expected = len({values[i] for i in rows})
        if expected is None:  # no valid row: NULL over the placeholder
            assert not result_valid[g] and result[g] == 0
            continue
        assert result[g] == pytest.approx(expected)
        assert result_valid is None or result_valid[g]


def test_apply_aggregate_all_null_masks():
    """No valid row: a count is 0, every other aggregate NULL."""
    group_index = np.array([0, 0, 1], dtype=np.int64)
    values = np.array([5.0, 7.0, 9.0])
    no_valid = np.zeros(3, dtype=bool)
    count, valid = apply_aggregate(AggSpec("c", "count", object()), group_index, 2, values, no_valid)
    assert count.tolist() == [0, 0] and valid is None
    for fn in ("sum", "avg", "min", "max"):
        out, valid = apply_aggregate(AggSpec("s", fn, object()), group_index, 2, values, no_valid)
        assert valid.tolist() == [False, False] and out.tolist() == [0.0, 0.0], fn


def test_apply_aggregate_string_min_max():
    group_index = np.array([0, 1, 0, 1], dtype=np.int64)
    values = np.array(["pear", "fig", "apple", "quince"])
    low = apply_aggregate(AggSpec("m", "min", object()), group_index, 2, values)[0]
    high = apply_aggregate(AggSpec("m", "max", object()), group_index, 2, values)[0]
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
        result = apply_aggregate(spec, group_index, 0, values if fn != "count" else None)[0]
        filled = apply_aggregate(
            spec, np.zeros(1, dtype=np.int64), 1,
            np.zeros(1, dtype=dtype) if fn != "count" else None,
        )[0]
        assert len(result) == 0
        assert result.dtype == filled.dtype, fn
    # ... and a group whose every row is null (string extrema included)
    # still gets its slot: a NULL over the dtype's placeholder
    for fn in ("min", "max"):
        masked, valid = apply_aggregate(
            AggSpec("x", fn, object()), np.zeros(2, dtype=np.int64), 1,
            np.ones(2, dtype=dtype), valid=np.zeros(2, dtype=bool),
        )
        placeholder = np.zeros(1, dtype=dtype)
        assert masked.dtype == placeholder.dtype and masked.tolist() == placeholder.tolist()
        assert valid.tolist() == [False]


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
