"""Count tables and group-size statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bdcc_table import BDCCBuildConfig, build_bdcc_table
from repro.core.count_table import CountTable
from repro.core.dimension_use import DimensionUse, check_bdcc_constraints
from repro.core.histograms import choose_granularity, collect_granularity_stats
from repro.core.selection import expand_runs

from .test_bdcc_table import _mini_db, _uses


@pytest.fixture(scope="module")
def built_fact():
    db = _mini_db(n_fact=600, seed=9)
    config = BDCCBuildConfig(efficient_access_bytes=256.0, consolidate_max_fraction=None)
    return build_bdcc_table(db, "fact", _uses(db), config)


class TestCountTable:
    def test_from_sorted_keys(self):
        keys = np.array([0, 0, 1, 1, 1, 3], dtype=np.uint64)
        ct = CountTable.from_sorted_keys(keys, total_bits=2, granularity=2)
        assert list(ct.keys) == [0, 1, 3]
        assert list(ct.counts) == [2, 3, 1]
        assert list(ct.offsets) == [0, 2, 5]
        assert ct.total_rows() == 6

    def test_reduced_granularity_merges(self):
        keys = np.array([0b00, 0b01, 0b10, 0b11], dtype=np.uint64)
        ct = CountTable.from_sorted_keys(keys, total_bits=2, granularity=1)
        assert list(ct.keys) == [0, 1]
        assert list(ct.counts) == [2, 2]

    def test_empty(self):
        ct = CountTable.from_sorted_keys(np.zeros(0, dtype=np.uint64), 4, 2)
        assert ct.num_entries == 0 and ct.total_rows() == 0

    def test_bad_granularity(self):
        with pytest.raises(ValueError):
            CountTable.from_sorted_keys(np.zeros(1, dtype=np.uint64), 2, 5)

    @settings(max_examples=40)
    @given(
        st.lists(st.integers(0, 63), min_size=1, max_size=200),
        st.integers(min_value=0, max_value=6),
    )
    def test_counts_sum_to_rows(self, raw_keys, g):
        keys = np.sort(np.array(raw_keys, dtype=np.uint64))
        ct = CountTable.from_sorted_keys(keys, 6, g)
        assert ct.total_rows() == len(keys)
        assert np.all(np.diff(ct.keys.astype(np.int64)) > 0)

    @settings(max_examples=25, deadline=None)
    @given(g=st.integers(min_value=0, max_value=7))
    def test_count_table_coherent_across_granularities(self, built_fact, g):
        ct = CountTable.from_sorted_keys(built_fact.keys, built_fact.total_bits, g)
        assert ct.total_rows() == built_fact.stored_rows
        # entries at granularity g are prefixes of entries at g+1
        if g < built_fact.total_bits:
            finer = CountTable.from_sorted_keys(built_fact.keys, built_fact.total_bits, g + 1)
            coarse_from_finer = np.unique(finer.keys >> np.uint64(1))
            assert np.array_equal(np.unique(ct.keys), coarse_from_finer)
            # counts aggregate exactly
            sums = {}
            for key, count in zip(finer.keys.tolist(), finer.counts.tolist()):
                sums[key >> 1] = sums.get(key >> 1, 0) + count
            for key, count in zip(ct.keys.tolist(), ct.counts.tolist()):
                assert sums[key] == count


def _rows_per_entry_loop(ct: CountTable, entries) -> np.ndarray:
    """The per-entry ``arange`` loop the entries' rows used to be,
    kept here as the reference the vectorised kernel must equal."""
    pieces = [
        np.arange(ct.offsets[idx], ct.offsets[idx] + ct.counts[idx])
        for idx in np.sort(entries)
    ]
    if not pieces:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(pieces)


@st.composite
def _count_tables(draw):
    """A random count table — zero-count entries included — and, when
    drawn, consolidated: some originals invalid, their copies appended
    as new entries over a region behind the base rows."""
    counts = np.array(draw(st.lists(st.integers(0, 5), max_size=30)), dtype=np.int64)
    n = len(counts)
    offsets = np.cumsum(counts) - counts
    keys = np.arange(n, dtype=np.uint64)
    valid = np.ones(n, dtype=bool)
    moved = np.flatnonzero(
        np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    )
    if len(moved):
        valid[moved] = False
        moved_counts = counts[moved]
        base = int(counts.sum())
        offsets = np.concatenate([offsets, base + np.cumsum(moved_counts) - moved_counts])
        counts = np.concatenate([counts, moved_counts])
        keys = np.concatenate([keys, keys[moved]])
        valid = np.concatenate([valid, np.ones(len(moved), dtype=bool)])
    ct = CountTable(granularity=6, keys=keys, counts=counts, offsets=offsets, valid=valid)
    entries = draw(st.lists(st.integers(0, max(len(keys) - 1, 0)), unique=True, max_size=len(keys)))
    return ct, np.array(entries, dtype=np.int64)


class TestRunExpansion:
    """An entry selection's rows are one vectorised kernel; the old loop lives
    on only as this class's reference."""

    @settings(max_examples=200, deadline=None)
    @given(_count_tables())
    def test_kernel_equals_the_per_entry_loop(self, drawn):
        ct, entries = drawn  # entries arrive unsorted, possibly empty
        rows = ct.selection(entries).rows()
        assert rows.dtype == np.int64
        assert np.array_equal(rows, _rows_per_entry_loop(ct, entries))
        valid_rows = ct.selection(ct.select_entries()).rows()
        assert len(valid_rows) == ct.total_rows()
        assert len(np.unique(valid_rows)) == len(valid_rows)

    def test_empty_input_is_empty_int64(self):
        ct = CountTable.from_sorted_keys(np.array([0, 0, 1], dtype=np.uint64), 2, 2)
        for rows in (
            ct.selection(np.zeros(0, dtype=np.int64)).rows(),
            expand_runs([], []),
            expand_runs([7, 3], [0, 0]),
        ):
            assert rows.dtype == np.int64 and rows.shape == (0,)

    def test_entry_index_order_not_key_order(self):
        """A consolidated table's moved groups are its last entries, so
        their rows come last whatever their key."""
        ct = CountTable(
            granularity=2,
            keys=np.array([0, 1, 2, 0], dtype=np.uint64),
            counts=np.array([1, 2, 1, 1]),
            offsets=np.array([0, 1, 3, 4]),
            valid=np.array([False, True, True, True]),
        )
        assert ct.selection(np.array([3, 2, 1])).rows().tolist() == [1, 2, 3, 4]

    def test_runs_in_the_order_given(self):
        assert expand_runs([5, 0, 2], [2, 1, 3]).tolist() == [5, 6, 0, 2, 3, 4]

    def test_no_python_loop_over_entries(self, monkeypatch):
        """The loop cannot come back unnoticed: expanding 100 000 groups
        makes a constant number of ``np.arange`` calls."""
        n = 100_000
        ct = CountTable.from_sorted_keys(
            np.repeat(np.arange(n, dtype=np.uint64), 2), total_bits=17, granularity=17
        )
        assert ct.num_entries == n
        calls = []
        real_arange = np.arange
        monkeypatch.setattr(
            np, "arange", lambda *a, **k: calls.append(1) or real_arange(*a, **k)
        )
        rows = ct.selection(ct.select_entries()[::2]).rows()
        monkeypatch.undo()
        assert len(calls) <= 2
        assert len(rows) == n and rows[:4].tolist() == [0, 1, 4, 5]

    def test_adjacent_groups_read_as_one_run(self):
        keys = np.array([0, 0, 1, 3, 3], dtype=np.uint64)
        ct = CountTable.from_sorted_keys(keys, 2, 2)
        assert ct.selection(np.array([0, 1, 2])).runs() == [(0, 5)]
        runs = ct.selection(np.array([0, 2])).runs()
        assert runs == [(0, 2), (3, 2)]
        assert all(type(v) is int for run in runs for v in run)


def _reads_whole(ct: CountTable) -> bool:
    """Whether the valid entries select every row the entries span, in
    storage order: one run from row 0 (what lowering calls a full scan)."""
    return ct.selection(ct.select_entries()).is_whole(int(ct.counts.sum()))


class TestDenseCountTable:
    def test_fresh_and_merged_tables_are_dense(self):
        keys = np.array([0, 0, 1, 3, 3], dtype=np.uint64)
        ct = CountTable.from_sorted_keys(keys, 2, 2)
        assert _reads_whole(ct)
        merged = CountTable.merge_entries(
            2, ct.keys, ct.counts,
            added_keys=np.array([2], dtype=np.uint64), added_counts=np.array([4]),
            removed_keys=np.array([1], dtype=np.uint64), removed_counts=np.array([1]),
        )
        assert _reads_whole(merged) and merged.total_rows() == 8
        assert _reads_whole(CountTable.from_sorted_keys(np.zeros(0, dtype=np.uint64), 4, 2))

    def test_dense_entries_are_the_identity_selection(self):
        keys = np.sort(np.random.default_rng(3).integers(0, 64, 500).astype(np.uint64))
        ct = CountTable.from_sorted_keys(keys, 6, 4)
        assert _reads_whole(ct)
        assert ct.selection(ct.select_entries()).runs() == [(0, 500)]
        assert np.array_equal(ct.selection(ct.select_entries()).rows(), np.arange(500))

    def test_invalid_gapped_or_shifted_tables_are_not(self):
        def table(counts, offsets, valid=None):
            n = len(counts)
            return CountTable(
                2, np.arange(n, dtype=np.uint64), np.array(counts), np.array(offsets),
                np.ones(n, dtype=bool) if valid is None else np.array(valid),
            )

        assert _reads_whole(table([2, 3], [0, 2]))
        assert not _reads_whole(table([2, 3], [0, 2], valid=[True, False]))
        assert not _reads_whole(table([2, 3], [0, 3]))      # a gap
        assert not _reads_whole(table([2, 3], [1, 3]))      # does not start at row 0
        assert not _reads_whole(table([2, 3], [3, 0]))      # tiles, but out of storage order

    def test_consolidated_build_is_not_dense(self):
        db = _mini_db(n_fact=512, seed=2, heavy=450)  # one heavy bin, many tiny groups
        bdcc = build_bdcc_table(
            db, "fact", _uses(db),
            BDCCBuildConfig(efficient_access_bytes=512.0, consolidate_max_fraction=0.5),
        )
        ct = bdcc.count_table
        assert not ct.valid.all(), "the fixture must actually consolidate"
        assert not _reads_whole(ct)
        rows = ct.selection(ct.select_entries()).rows()
        assert np.array_equal(np.sort(bdcc.row_source[rows]), np.arange(512))


class TestGranularityStats:
    def test_num_groups_monotone(self):
        keys = np.sort(np.random.default_rng(0).integers(0, 256, 500).astype(np.uint64))
        stats = collect_granularity_stats(keys, 8)
        assert stats.num_groups[0] == 1
        for g in range(8):
            assert stats.num_groups[g] <= stats.num_groups[g + 1]

    def test_correlation_shows_missing_groups(self):
        # two perfectly correlated 2-bit dimensions interleaved: only 4 of
        # 16 groups exist ("puff pastry")
        bins = np.repeat(np.arange(4, dtype=np.uint64), 50)
        keys = np.zeros(len(bins), dtype=np.uint64)
        for j, (src, dst_hi, dst_lo) in enumerate([(1, 3, 1), (0, 2, 0)]):
            pass
        # key = b1 b1' b0 b0' with identical dims
        keys = ((bins >> 1) << 3) | ((bins >> 1) << 2) | ((bins & 1) << 1) | (bins & 1)
        stats = collect_granularity_stats(np.sort(keys), 4)
        assert stats.num_groups[4] == 4
        assert stats.missing_group_fraction(4) == pytest.approx(0.75)

    def test_correlated_dims_get_higher_granularity(self):
        """The adaptation the paper describes: missing groups -> larger
        actual groups -> a higher count-table granularity is chosen."""
        rng = np.random.default_rng(1)
        independent = np.sort(rng.integers(0, 16, 4096).astype(np.uint64))
        bins = rng.integers(0, 4, 4096).astype(np.uint64)
        correlated = np.sort(((bins >> 1) << 3) | ((bins >> 1) << 2) | ((bins & 1) << 1) | (bins & 1))
        s_ind = collect_granularity_stats(independent, 4)
        s_cor = collect_granularity_stats(correlated, 4)
        width, ar = 8.0, 2048.0
        assert choose_granularity(s_cor, width, ar) >= choose_granularity(s_ind, width, ar)

    def test_choose_granularity_validates(self):
        stats = collect_granularity_stats(np.zeros(4, dtype=np.uint64), 2)
        with pytest.raises(ValueError):
            choose_granularity(stats, 0.0, 1024)
        with pytest.raises(ValueError):
            choose_granularity(stats, 8.0, 0.0)


class TestDimensionUseConstraints:
    def test_overlap_rejected(self, ):
        db = _mini_db()
        uses = _uses(db)
        uses[0].mask = 0b1100000
        uses[1].mask = 0b0111111  # overlaps bit 5
        with pytest.raises(ValueError):
            check_bdcc_constraints(uses, 7)

    def test_gap_rejected(self):
        db = _mini_db()
        uses = _uses(db)
        uses[0].mask = 0b1100000
        uses[1].mask = 0b0001111  # bit 4 unset
        with pytest.raises(ValueError):
            check_bdcc_constraints(uses, 7)

    def test_too_many_bits_rejected(self):
        db = _mini_db()
        uses = _uses(db)[:1]
        uses[0].mask = 0b1111  # 4 bits but D_DIM has 3
        with pytest.raises(ValueError):
            check_bdcc_constraints(uses, 4)
