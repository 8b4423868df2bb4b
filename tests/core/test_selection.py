"""``Selection``: a scan's rows as a run list, held to a row-level
reference on every constructor and operation.

The reference is the rows themselves: ``_rows_to_runs`` is the
converter every scan ran before selections were run lists, and each
operation is checked against what numpy does to the expanded rows.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.selection import Selection, expand_runs
from repro.storage.minmax import MinMaxIndex

from .test_count_table_and_stats import _count_tables, _rows_per_entry_loop


def _rows_to_runs(rows: np.ndarray):
    """Sorted row indices -> (start, length) runs."""
    if len(rows) == 0:
        return []
    breaks = np.flatnonzero(np.diff(rows) != 1)
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks, [len(rows) - 1]])
    first = rows[starts]
    return list(zip(first.tolist(), (rows[ends] - first + 1).tolist()))


def _masks(max_size=200):
    """Row masks: empty, full, alternating (every run one row) or random."""
    sizes = st.integers(0, max_size)
    return st.one_of(
        sizes.map(lambda n: np.zeros(n, dtype=bool)),
        sizes.map(lambda n: np.ones(n, dtype=bool)),
        st.tuples(sizes, st.integers(0, 1)).map(
            lambda t: (np.arange(t[0]) % 2 == t[1])
        ),
        st.lists(st.booleans(), max_size=max_size).map(lambda v: np.array(v, dtype=bool)),
    )


def _check(selection: Selection, rows: np.ndarray) -> None:
    """``selection`` selects exactly ``rows``, in that order, as the
    maximal runs the reference diffs them into."""
    assert selection.starts.dtype == selection.lengths.dtype == np.int64
    assert selection.runs() == _rows_to_runs(rows)
    assert all(type(v) is int for run in selection.runs() for v in run)
    assert np.array_equal(selection.rows(), rows) and selection.rows().dtype == np.int64
    assert len(selection) == len(rows)


@st.composite
def _selections(draw):
    """A selection over a table, from a random mask: ``(selection, n)``."""
    mask = draw(_masks())
    return Selection.from_mask(mask), len(mask)


class TestConstructors:
    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 6)), max_size=20))
    def test_runs_merge_exactly_where_the_rows_continue(self, pairs):
        """Runs in any order, empty ones included: the rows they expand
        to, run by run, and the reference's runs over those rows."""
        starts = [s for s, _ in pairs]
        lengths = [n for _, n in pairs]
        rows = expand_runs(starts, lengths)
        _check(Selection(starts, lengths), rows)

    @settings(max_examples=200, deadline=None)
    @given(_count_tables())
    def test_count_table_entries(self, drawn):
        ct, entries = drawn  # dense or consolidated, any subset, zero counts
        _check(ct.selection(entries), _rows_per_entry_loop(ct, entries))

    @given(_masks())
    def test_stored_row_mask(self, mask):
        _check(Selection.from_mask(mask), np.flatnonzero(mask))

    @given(st.integers(0, 300), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_zone_map_blocks(self, n, block_rows, seed):
        """``n % block_rows != 0`` and zero blocks (``n == 0``) included."""
        num_blocks = -(-n // block_rows)
        keep = np.random.default_rng(seed).random(num_blocks) < 0.5
        expected = np.flatnonzero(keep[np.arange(n) // block_rows])
        _check(Selection.from_blocks(keep, block_rows, n), expected)

    @pytest.mark.parametrize("num_rows", [0, 1, 17])
    def test_whole_table_is_one_run(self, num_rows):
        whole = Selection.whole(num_rows)
        _check(whole, np.arange(num_rows))
        assert whole.is_whole(num_rows)
        assert not whole.is_whole(num_rows + 1)

    def test_a_run_elsewhere_is_not_whole(self):
        assert not Selection([1], [4]).is_whole(4)
        assert not Selection([2, 0], [2, 2]).is_whole(4)  # all rows, out of order
        assert not Selection([0, 3], [2, 1]).is_whole(3)


@pytest.mark.parametrize("num_rows,block_rows", [(1000, 100), (1037, 100), (5, 16), (0, 16)])
def test_zone_map_selection_is_each_rows_block_verdict(num_rows, block_rows):
    values = np.sort(np.random.default_rng(num_rows).integers(0, 1000, num_rows))
    index = MinMaxIndex.build(values, block_rows)
    assert index.num_blocks == -(-num_rows // block_rows)
    keep_blocks = index.blocks_overlapping(200, 400)
    expected = np.flatnonzero(keep_blocks[np.arange(num_rows) // block_rows])
    _check(index.select(200, 400, num_rows), expected)


class TestOperations:
    @settings(max_examples=200, deadline=None)
    @given(_count_tables(), _masks(), st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_intersect(self, drawn, deleted, block_rows, seed):
        """Entries ∩ live rows ∩ zone-map blocks — the scan's own chain —
        against the row-level filter ``rows[mask[rows]]`` it replaced."""
        ct, entries = drawn
        n = int((ct.offsets + ct.counts).max(initial=0))
        live = np.ones(n, dtype=bool)
        live[: min(len(deleted), n)] &= ~deleted[:n]
        keep = np.random.default_rng(seed).random(-(-n // block_rows)) < 0.7
        zones = np.repeat(keep, block_rows)[:n]

        selection = ct.selection(entries)
        rows = selection.rows()
        got = selection.intersect(Selection.from_mask(live))
        _check(got, rows[live[rows]])
        got = got.intersect(Selection.from_blocks(keep, block_rows, n))
        _check(got, rows[(live & zones)[rows]])

    @given(_selections(), _selections())
    def test_intersect_is_symmetric_in_rows(self, a, b):
        (x, _), (y, _) = a, b
        expected = np.intersect1d(x.rows(), y.rows())
        _check(x.intersect(y), expected)
        _check(y.intersect(x), expected)

    @settings(max_examples=200)
    @given(_selections(), st.data())
    def test_slice_cuts_mid_run(self, drawn, data):
        selection, _ = drawn
        total = len(selection)
        a = data.draw(st.integers(0, total))
        b = data.draw(st.integers(a, total))
        _check(selection.slice(a, b), selection.rows()[a:b])

    def test_a_slice_inside_one_run(self):
        expected = np.array([13, 14, 15, 16, 17, 18, 19, 30, 31])
        _check(Selection([10, 30], [10, 5]).slice(3, 12), expected)

    @given(_selections(), st.data())
    def test_subset(self, drawn, data):
        selection, _ = drawn
        keep = np.array(
            data.draw(st.lists(st.booleans(), min_size=len(selection), max_size=len(selection))),
            dtype=bool,
        )
        _check(selection.subset(keep), selection.rows()[keep])

    @settings(max_examples=200, deadline=None)
    @given(_selections(), st.lists(st.integers(0, 210), max_size=30))
    def test_pieces_cut_at_every_edge(self, drawn, raw_edges):
        """Pieces tile the selected rows in order; a piece's bucket is
        each of its rows' ``searchsorted`` — so a bucket change between
        neighbouring rows is always a piece boundary.  Repeated edges
        (zero-count entries) included."""
        selection, _ = drawn
        edges = np.sort(np.array(raw_edges, dtype=np.int64))
        starts, lengths, bucket = selection.pieces(edges)
        assert (lengths > 0).all()
        rows = selection.rows()
        assert np.array_equal(expand_runs(starts, lengths), rows)
        assert np.array_equal(
            np.repeat(bucket, lengths), np.searchsorted(edges, rows, side="right")
        )
        # one piece per maximal stretch of consecutive rows in one bucket
        row_bucket = np.searchsorted(edges, rows, side="right")
        breaks = np.count_nonzero((np.diff(rows) != 1) | (np.diff(row_bucket) != 0))
        assert len(starts) == (breaks + 1 if len(rows) else 0)

    @settings(max_examples=300, deadline=None)
    @given(_selections(), st.data())
    def test_pieces_at_edges_on_and_inside_runs(self, drawn, data):
        """Edges where binning the runs can slip — none at all, repeated,
        on a run's first row, one past its last, inside it (the run
        straddles them) and beyond the table at either end: each piece
        is one bucket ``searchsorted(edges, row, "right")`` of its rows
        and lies within ``[edges[bucket-1], edges[bucket])``."""
        selection, n = drawn
        ends = selection.starts + selection.lengths
        middles = selection.starts + selection.lengths // 2
        points = np.concatenate([selection.starts, ends, middles, [-3, n + 3]])
        edges = np.sort(np.array(
            data.draw(st.lists(st.sampled_from(points.tolist()), max_size=12)),
            dtype=np.int64,
        ))
        starts, lengths, bucket = selection.pieces(edges)
        rows = selection.rows()
        assert (lengths > 0).all()
        assert np.array_equal(expand_runs(starts, lengths), rows)
        assert np.array_equal(
            np.repeat(bucket, lengths), np.searchsorted(edges, rows, side="right")
        )
        inner = bucket > 0
        assert (starts[inner] >= edges[bucket[inner] - 1]).all()
        inner = bucket < len(edges)
        assert (starts[inner] + lengths[inner] <= edges[bucket[inner]]).all()

    @settings(max_examples=200, deadline=None)
    @given(_count_tables(), _masks())
    def test_group_values_per_piece_equal_the_per_row_lookup(self, drawn, deleted):
        """The scan's group columns: one value per piece, repeated over
        its rows, against a per-row ``searchsorted`` into the valid
        entries' offsets."""
        ct, _ = drawn
        entries = ct.select_entries()
        n = int((ct.offsets + ct.counts).max(initial=0))
        live = np.ones(n, dtype=bool)
        live[: min(len(deleted), n)] &= ~deleted[:n]
        selection = ct.selection(entries).intersect(Selection.from_mask(live))
        values = np.arange(ct.num_entries, dtype=np.uint64) * np.uint64(7)

        valid = np.flatnonzero(ct.valid)
        _, lengths, bucket = selection.pieces(ct.offsets[valid])
        per_piece = np.repeat(values[valid[bucket - 1]], lengths)
        rows = selection.rows()
        per_row = values[valid[np.searchsorted(ct.offsets[valid], rows, side="right") - 1]]
        assert per_piece.dtype == per_row.dtype
        assert per_piece.tobytes() == per_row.tobytes()


class TestIndexer:
    def test_at_most_one_run_is_a_view(self):
        column = np.arange(100, dtype=np.int64) * 3
        for selection in (Selection.whole(100), Selection([20], [30]), Selection([], [])):
            index = selection.indexer()
            assert isinstance(index, slice)
            taken = column[index]
            assert np.array_equal(taken, column[selection.rows()])
            assert len(taken) == 0 or np.shares_memory(taken, column)

    def test_more_runs_expand_once(self):
        selection = Selection([0, 10], [2, 3])
        index = selection.indexer()
        assert np.array_equal(index, [0, 1, 10, 11, 12])

    def test_pickles_small(self):
        """A run list is what a fragment payload carries, not its rows."""
        selection = Selection.whole(10_000_000).slice(12_345, 5_000_000)
        assert len(pickle.dumps(selection)) < 1024
        again = pickle.loads(pickle.dumps(selection))
        assert again.runs() == selection.runs() == [(12_345, 5_000_000 - 12_345)]
