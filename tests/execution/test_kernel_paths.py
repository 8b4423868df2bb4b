"""The two host kernels — the direct-address probe and the offset
factoriser — against the frozen sort-based kernels, bit for bit, on both
sides of their density rules; the rules' boundaries; the probed-only
sort of a repeated build side; and the two bugs fixed beside them
(composite keys past int64, integer extrema through float64).

"Bit for bit" is the point: the process backend compares its results
with the simulated backend's exactly and ``twin_mismatch(exact=True)``
compares row order, so a kernel that returns the same pairs or groups in
another order, or another integer dtype, is a regression.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.aggregate import (
    AggSpec,
    MergeSpec,
    apply_aggregate,
    distinct_per_partition,
    group_rows,
    merge_partial_aggregates,
)
from repro.execution.join_utils import inner_join_pairs, left_join_pairs, semi_join_mask
from repro.execution.relation import Relation
from repro.storage.keys import encode_join_keys, factorize, fold_keys, match_keys

from . import frozen_kernels as frozen

I64 = np.iinfo(np.int64)


def assert_same_bits(got, expected):
    if isinstance(expected, (tuple, list)):
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert_same_bits(g, e)
    elif isinstance(expected, np.ndarray):
        assert got.dtype == expected.dtype
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
    else:
        assert got == expected and type(got) is type(expected)


# --------------------------------------------------------------- strategies
#: (low, high) of a key column: always dense, dense or sparse depending
#: on the draw, never dense, and the two ends of int64
BOUNDS = [
    (-8, 8), (0, 60), (-300, 300), (10**9, 10**9 + 10**3), (0, 10**6),
    (-(10**12), 10**12), (I64.min, I64.min + 40), (I64.max - 40, I64.max),
    (I64.min, I64.max),
]
SHAPES = ["as drawn", "sorted", "all equal", "unique"]


def _shaped(values, shape):
    if shape == "sorted":
        return sorted(values)
    if shape == "all equal":
        return values[:1] * len(values)
    if shape == "unique":
        return list(dict.fromkeys(values))
    return values


@st.composite
def key_sides(draw, max_size=120):
    """(probe, build) int64 keys from one drawn domain; the probe side
    borrows from the build side so that wide domains still match."""
    low, high = draw(st.sampled_from(BOUNDS))
    keys = st.integers(low, high)
    build = _shaped(draw(st.lists(keys, max_size=max_size)), draw(st.sampled_from(SHAPES)))
    probe = draw(st.lists(st.sampled_from(build) | keys if build else keys, max_size=max_size))
    return np.array(probe, dtype=np.int64), np.array(build, dtype=np.int64)


#: how a small non-negative integer column reads in every dtype the
#: engine ranks: uint64 is what the hidden ``_bdcc_`` columns carry
CASTS = {
    "int64": lambda k: k - 4,
    "int32": lambda k: (k - 4).astype(np.int32),
    "int8": lambda k: (k * 31 - 128).astype(np.int8),
    "uint32": lambda k: k.astype(np.uint32),
    "uint64": lambda k: k.astype(np.uint64) + np.uint64(2**64 - 9),
    "bool": lambda k: k % 2 == 1,
    "U1": lambda k: np.array(list("zyxwvuAB") + [""])[k],
    "U3": lambda k: np.array(["aa", "ab", "b", "ca", "cab", "", "z", "zz", "a"])[k],
    "float64": lambda k: k * 0.5 - 1.0,
}


def _column(draw, kind, n):
    if kind in CASTS:
        codes = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
        return CASTS[kind](np.array(codes, dtype=np.int64))
    values = draw(st.lists(st.integers(*kind), min_size=n, max_size=n))
    return np.array(values, dtype=np.int64)


#: a key column is a small domain in one of the dtypes, or int64 keys
#: from one of ``BOUNDS``
column_kinds = st.sampled_from(sorted(CASTS)) | st.sampled_from(BOUNDS)


@st.composite
def columns(draw, min_size=0, max_size=100, count=None):
    """1-3 equally long key columns (``count`` fixes how many)."""
    kinds = draw(st.lists(column_kinds, min_size=count or 1, max_size=count or 3))
    n = draw(st.integers(min_size, max_size))
    return [_column(draw, kind, n) for kind in kinds]


@st.composite
def two_sided_columns(draw, max_size=60, count=None):
    """The key columns of a join: the same kinds on both sides."""
    kinds = draw(st.lists(column_kinds, min_size=count or 1, max_size=count or 3))
    n, m = draw(st.integers(0, max_size)), draw(st.integers(0, max_size))
    return [_column(draw, k, n) for k in kinds], [_column(draw, k, m) for k in kinds]


# ------------------------------------------------- bit-identical to frozen
class TestBitIdenticalToTheSortedKernels:
    @settings(max_examples=200, deadline=None)
    @given(key_sides())
    def test_join_kernels(self, sides):
        probe, build = sides
        assert_same_bits(inner_join_pairs(probe, build), frozen.inner_join_pairs(probe, build))
        assert_same_bits(left_join_pairs(probe, build), frozen.left_join_pairs(probe, build))
        assert_same_bits(semi_join_mask(probe, build), frozen.semi_join_mask(probe, build))

    @settings(max_examples=200, deadline=None)
    @given(two_sided_columns(count=1), st.booleans())
    def test_join_kernels_on_any_dtype(self, sides, widen):
        """The public kernels take the columns as they are: non-integers
        and sides whose integer widths differ take the sorted path."""
        (probe,), (build,) = sides
        if widen and build.dtype.kind in "iu" and build.dtype.itemsize < 8:
            build = build.astype(np.int64)
        assert_same_bits(inner_join_pairs(probe, build), frozen.inner_join_pairs(probe, build))
        assert_same_bits(left_join_pairs(probe, build), frozen.left_join_pairs(probe, build))
        assert_same_bits(semi_join_mask(probe, build), frozen.semi_join_mask(probe, build))

    @settings(max_examples=200, deadline=None)
    @given(two_sided_columns())
    def test_composite_join_keys(self, sides):
        """Codes are an encoding, not a result: what must not move is the
        pairs a join over them returns."""
        left, right = sides
        lkeys, rkeys = encode_join_keys(left, right)
        assert lkeys.dtype == rkeys.dtype == np.int64
        old_keys = frozen.encode_join_keys(left, right)
        assert_same_bits(inner_join_pairs(lkeys, rkeys), frozen.inner_join_pairs(*old_keys))
        assert_same_bits(left_join_pairs(lkeys, rkeys), frozen.left_join_pairs(*old_keys))
        assert_same_bits(semi_join_mask(lkeys, rkeys), frozen.semi_join_mask(*old_keys))

    @settings(max_examples=200, deadline=None)
    @given(columns(min_size=1))
    def test_group_rows(self, key_columns):
        assert_same_bits(group_rows(key_columns), frozen.group_rows(key_columns))

    @settings(max_examples=100, deadline=None)
    @given(columns(min_size=1, count=2))
    def test_count_distinct_and_partition_populations(self, cols):
        groups, values = cols
        group_index, _, num_groups = frozen.group_rows([groups])
        assert_same_bits(
            apply_aggregate(AggSpec("d", "count_distinct", object()), group_index, num_groups, values)[0],
            frozen.count_distinct(group_index, num_groups, values),
        )
        partition_ids = group_index.astype(np.uint64) << np.uint64(40)
        value_index = frozen.group_rows([values])[0]
        assert_same_bits(
            distinct_per_partition(partition_ids, value_index),
            frozen.distinct_per_partition(partition_ids, value_index),
        )

    @settings(max_examples=100, deadline=None)
    @given(columns(min_size=1, count=1))
    def test_descending_sort_codes_and_group_sizes(self, cols):
        (values,) = cols
        # Sort negates the codes and lexsorts: the permutation is the result
        assert_same_bits(
            np.lexsort((-factorize(values)[0],)), np.lexsort((frozen.descending_codes(values),))
        )
        # a sandwich join's accounting reads the largest group and the group count
        sizes = np.bincount(factorize(values)[0])
        assert_same_bits(sizes[sizes > 0], frozen.value_counts(values))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 5), st.integers(-(2**53), 2**53), st.booleans()),
                 max_size=60),
        st.sampled_from(["min", "max"]),
        st.sampled_from([np.int64, np.int32, np.uint32]),
    )
    def test_integer_extrema_below_2_53(self, rows, fn, dtype):
        """Where float64 was exact the int64 path returns the same bits,
        the all-null group's 0 and the empty input's dtype included."""
        group_index = np.array([r[0] for r in rows], dtype=np.int64)
        values = np.array([r[1] for r in rows], dtype=np.int64).astype(dtype)
        valid = np.array([r[2] for r in rows], dtype=bool)
        got = apply_aggregate(AggSpec("m", fn, object()), group_index, 6, values, valid)[0]
        assert_same_bits(got, frozen.integer_extremum(fn, group_index[valid], 6, values[valid]))


# ------------------------------------------------------------ the boundaries
def _took_direct_path(probe, build):
    """A unique build side's direct-address ``order`` is the table
    itself (one slot per key value); the sorted path's is a permutation
    of the build rows."""
    span = int(build.max()) - int(build.min()) + 1
    assert span != len(build), "pick a build side with gaps"
    return len(match_keys(probe, build)[0]) == span + 1  # + the spare slot


class TestDensityRuleBoundaries:
    @pytest.mark.parametrize("low", [0, -7, 10**9, I64.min, I64.max - 30])
    def test_span_equal_to_the_rows_is_direct_one_more_is_sorted(self, low):
        probe = np.array([3, 0, 11, 3, 5, 12, 4], dtype=np.int64) + low       # 7 rows
        build = np.array([11, 0, 5, 3], dtype=np.int64) + low                 # 4 rows, span 12
        for extra, direct in ((0, False), (1, True), (2, True)):
            # 7 + extra probe rows + 4 build rows against a span of 12
            grown = np.concatenate([probe, probe[:extra]])
            assert _took_direct_path(grown, build) is direct
            for kernel in ("inner_join_pairs", "left_join_pairs", "semi_join_mask"):
                live = globals()[kernel]
                assert_same_bits(live(grown, build), getattr(frozen, kernel)(grown, build))
            # ... and with a repeated build key (the argsort + table path)
            repeated = np.concatenate([build, build[:1]])
            shorter = grown[: len(grown) - 1]
            for kernel in ("inner_join_pairs", "left_join_pairs", "semi_join_mask"):
                live = globals()[kernel]
                assert_same_bits(live(shorter, repeated), getattr(frozen, kernel)(shorter, repeated))

    @pytest.mark.parametrize("cast", ["int64", "int32", "uint32", "uint64"])
    def test_factorize_span_equal_to_the_length_is_offset_one_more_is_ranked(self, cast):
        base = CASTS[cast](np.array([4, 0, 0, 2, 4], dtype=np.int64))   # span 5, 3 distinct
        codes, cardinality = factorize(base)                            # 5 rows: by offset
        assert codes.tolist() == [4, 0, 0, 2, 4] and cardinality == 5
        assert codes.dtype == np.int64
        codes, cardinality = factorize(base[1:])                        # 4 rows: by rank
        assert codes.tolist() == [0, 0, 1, 2] and cardinality == 3
        for column in (base, base[1:]):
            assert_same_bits(group_rows([column]), frozen.group_rows([column]))

    def test_group_rows_code_space_equal_to_the_rows_and_one_more(self):
        a = np.array([0, 1, 2, 0, 1, 2, 2], dtype=np.int64)            # cardinality 3
        b = np.array([0, 1, 0, 1, 0, 1, 0], dtype=np.int64)            # cardinality 2
        assert fold_keys([a, b])[1] == 6
        for rows in (7, 6, 5):  # code space 6 against 7, 6 and 5 rows
            cols = [a[:rows], b[:rows]]
            assert fold_keys(cols)[1] == 6
            assert_same_bits(group_rows(cols), frozen.group_rows(cols))

    def test_one_character_text_is_ranked_by_code_point(self):
        column = np.array(["b", "", "a", "b", "é", "B"], dtype="<U1")
        codes, cardinality = factorize(column)
        # "" .. "é" spans 234 code points, wider than 6 rows: ranked
        assert cardinality == 5 and codes.tolist() == [3, 0, 2, 3, 4, 1]
        flags = "RNAF" * 5  # "A" .. "R" is 18 code points, 20 rows: by offset
        dense = np.array(list(flags), dtype="<U1")
        codes, cardinality = factorize(dense)
        assert cardinality == ord("R") - ord("A") + 1
        assert codes.tolist() == [ord(c) - ord("A") for c in flags]
        assert_same_bits(group_rows([dense]), frozen.group_rows([dense]))
        assert_same_bits(group_rows([column]), frozen.group_rows([column]))


def _same_as_frozen(probe, build):
    for kernel in ("inner_join_pairs", "left_join_pairs", "semi_join_mask"):
        assert_same_bits(globals()[kernel](probe, build), getattr(frozen, kernel)(probe, build))


class TestProbedOnlySort:
    """A repeated build side on the direct path sorts only the build rows
    some probe key reaches: ``order`` is a permutation of those rows, and
    the pairs are the frozen sort's, in the frozen sort's order."""

    #: 9 rows over keys 3..9 (span 7): 3, 5 and 7 repeat; 6 and 8 are gaps
    BUILD = np.array([5, 3, 5, 9, 3, 5, 7, 7, 4], dtype=np.int64)
    LOWS = [0, -7, 10**9, I64.min, I64.max - 30]

    @pytest.mark.parametrize("low", LOWS)
    @pytest.mark.parametrize(
        "probe,reached",
        [
            ([6, 8, 6], 0),                     # gaps only: no key reached
            ([2, 10], 0),                       # min - 1 and max + 1
            ([9, 7, 3, 4, 5, 7, 9, 4], 9),      # every key
            ([5, 5], 3),                        # one key of a repeated build
            ([2, 7, 10, 3], 4),                 # both ends beside two hits
        ],
    )
    def test_sorts_only_what_is_probed(self, low, probe, reached):
        build = self.BUILD + low
        probe = np.array(probe, dtype=np.int64) + low
        order, lo, counts = match_keys(probe, build)
        assert len(order) == reached
        assert sorted(order.tolist()) == np.flatnonzero(np.isin(build, probe)).tolist()
        for i, key in enumerate(probe):
            run = order[lo[i]: lo[i] + counts[i]]
            assert run.tolist() == np.flatnonzero(build == key).tolist()
        _same_as_frozen(probe, build)

    @pytest.mark.parametrize("low", LOWS)
    def test_span_equal_to_the_rows_is_direct_one_more_is_sorted(self, low):
        build = np.array([0, 11, 0], dtype=np.int64) + low        # 3 rows, span 12
        for probe_rows, direct in ((9, True), (8, False)):        # 12 and 11 rows
            for key, reached in ((11, 1), (5, 0)):                # the max, a gap
                probe = np.full(probe_rows, key, dtype=np.int64) + low
                # the direct path sorts the reached rows, the sorted path all
                assert len(match_keys(probe, build)[0]) == (reached if direct else 3)
                _same_as_frozen(probe, build)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 30), min_size=1, max_size=60),
        st.lists(st.integers(-2, 32), max_size=60),
    )
    def test_any_repeated_build_side(self, build, probe):
        build = np.array(build + build[:1], dtype=np.int64)       # at least one repeat
        probe = np.array(probe, dtype=np.int64)
        _same_as_frozen(probe, build)


class TestNullKeysMatchNothing:
    """A key whose ``valid`` is False matches nothing, on the probe side
    and on the build side, on both paths of :func:`match_keys`."""

    PROBE_VALID = np.array([True, True, False, True])
    BUILD_VALID = np.array([True, False, True, True])

    @pytest.mark.parametrize("scale, direct", [(1, True), (1000, False)], ids=["direct", "sorted"])
    def test_inner_left_semi_anti(self, scale, direct):
        probe = np.array([1, 2, 1, 1], dtype=np.int64) * scale
        build = np.array([1, 1, 2, 4], dtype=np.int64) * scale
        kept = build[self.BUILD_VALID]
        span = int(kept.max()) - int(kept.min()) + 1
        assert (len(match_keys(probe, kept)[0]) == span + 1) == direct
        valid = (self.PROBE_VALID, self.BUILD_VALID)
        lidx, ridx = inner_join_pairs(probe, build, *valid)
        assert list(zip(lidx.tolist(), ridx.tolist())) == [(0, 0), (1, 2), (3, 0)]
        lidx, ridx = left_join_pairs(probe, build, *valid)
        assert list(zip(lidx.tolist(), ridx.tolist())) == [(0, 0), (1, 2), (2, -1), (3, 0)]
        semi = semi_join_mask(probe, build, *valid)
        assert semi.tolist() == [True, True, False, True]  # anti keeps the NULL row: ~semi


class TestNoNegativeSlot:
    """A probe key below the build side's minimum has a negative offset;
    used as an index it would wrap to the table's end and match the last
    slot's rows."""

    @pytest.mark.parametrize("low", [10, -10, I64.min + 1])
    def test_key_below_the_minimum_matches_nothing(self, low):
        build = np.arange(10, dtype=np.int64) + low
        build = np.concatenate([build, build[-1:]])          # the last slot holds two rows
        probe = np.array([low - 1, low + 10, low - 1], dtype=np.int64)
        assert _took_direct_path(np.append(probe, low), build[:-1][::2])
        _, slot, counts = match_keys(probe, build[:-1])  # unique: lo is the slot
        assert slot.tolist() == [10, 10, 10]         # the spare slot, not -1
        assert counts.tolist() == [0, 0, 0]
        assert match_keys(probe, build)[2].tolist() == [0, 0, 0]
        assert len(inner_join_pairs(probe, build)[0]) == 0
        assert left_join_pairs(probe, build)[1].tolist() == [-1, -1, -1]
        assert not semi_join_mask(probe, build).any()

    def test_keys_far_outside_do_not_wrap_into_the_table(self):
        build = np.array([I64.max - 3, I64.max - 1, I64.max], dtype=np.int64)
        probe = np.array([I64.min, I64.min + 2, 0, I64.max - 1], dtype=np.int64)
        assert inner_join_pairs(probe, build)[0].tolist() == [3]
        build = np.array([I64.min, I64.min + 2, I64.min + 3], dtype=np.int64)
        probe = np.array([I64.max, I64.max - 1, 0, I64.min + 2], dtype=np.int64)
        assert inner_join_pairs(probe, build)[1].tolist() == [1]
        big = np.array([2**64 - 1, 2**64 - 3], dtype=np.uint64)
        assert inner_join_pairs(np.array([0, 2**64 - 3, 1], dtype=np.uint64), big)[1].tolist() == [1]


# ------------------------------------------------------------- the two bugs
def _five_wide_columns():
    """65 537 distinct 5-tuples over five columns of 65 536 distinct
    values each: ``code * 65536 + c`` passes 2**64 at the fifth column
    and the first column's digit falls off the top — rows 0 and 65 536
    differ in it alone."""
    ramp = np.arange(65536, dtype=np.int64)
    first = np.append(ramp, 1)
    rest = np.append(ramp, 0)
    return [first, rest, rest.copy(), rest.copy(), rest.copy()]


class TestCompositeKeysPastInt64:
    def test_grouping_keeps_every_tuple_apart(self):
        cols = _five_wide_columns()
        group_index, first_rows, num_groups = group_rows(cols)
        assert num_groups == 65537
        assert group_index[0] != group_index[65536]
        assert sorted(first_rows.tolist()) == list(range(65537))
        # the frozen kernel is the bug: one group short
        assert frozen.group_rows(cols)[2] == 65536

    def test_a_five_column_join_matches_the_one_row_that_exists(self):
        build = _five_wide_columns()
        probe = [np.zeros(1, dtype=np.int64) for _ in build]
        lidx, ridx = inner_join_pairs(*encode_join_keys(probe, build))
        assert lidx.tolist() == [0] and ridx.tolist() == [0]
        assert len(frozen.inner_join_pairs(*frozen.encode_join_keys(probe, build))[0]) == 2

    def test_the_running_code_is_reranked_not_truncated(self):
        codes, space = fold_keys(_five_wide_columns())
        assert space <= I64.max and len(set(codes.tolist())) == 65537
        # order still follows the tuples' lexicographic order
        assert codes[0] < codes[65536] < codes[1]


class TestIntegerExtremaAreExact:
    VALUES = np.array([2**53 + 1, 2**53 + 3], dtype=np.int64)

    @pytest.mark.parametrize("fn,expected", [("max", 2**53 + 3), ("min", 2**53 + 1)])
    def test_apply_aggregate(self, fn, expected):
        got, valid = apply_aggregate(
            AggSpec("m", fn, object()), np.zeros(2, dtype=np.int64), 1, self.VALUES
        )
        assert valid is None and got.dtype == np.int64 and got.tolist() == [expected]
        # through float64 the answer was a value that is not in the input
        assert frozen.integer_extremum("max", np.zeros(2, dtype=np.int64), 1, self.VALUES).tolist() \
            == [2**53 + 4]

    @pytest.mark.parametrize("fn,expected", [("max", 2**53 + 3), ("min", 2**53 + 1)])
    def test_merge_partial_aggregates(self, fn, expected):
        partials = Relation({"m": self.VALUES})
        merged, valid = merge_partial_aggregates(
            [MergeSpec("m", fn, "m")], np.zeros(2, dtype=np.int64), 1, partials
        )["m"]
        assert valid is None and merged.dtype == np.int64 and merged.tolist() == [expected]

    def test_the_ends_of_int64_and_what_callers_pin(self):
        values = np.array([I64.max, I64.min, 5, 7], dtype=np.int64)
        group_index = np.array([0, 1, 1, 2], dtype=np.int64)
        valid = np.array([True, True, True, False])
        for fn, expected in (("max", [I64.max, 5, 0]), ("min", [I64.max, I64.min, 0])):
            got, seen = apply_aggregate(AggSpec("m", fn, object()), group_index, 3, values, valid)
            assert got.dtype == np.int64 and got.tolist() == expected   # group 2: NULL over 0
            assert seen.tolist() == [True, True, False]
            empty = apply_aggregate(
                AggSpec("m", fn, object()), np.zeros(0, dtype=np.int64), 0, values[:0]
            )[0]
            assert empty.dtype == np.int64 and len(empty) == 0
