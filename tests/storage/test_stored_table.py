"""StoredTable layout arithmetic and IO accounting."""

import numpy as np
import pytest

from repro.catalog import DATE, FLOAT64, INT32, INT64, Schema, string_type
from repro.core.selection import Selection
from repro.storage.pages import PageModel
from repro.storage.stored_table import StoredTable


def _table(n=1000, page=1024):
    schema = Schema()
    schema.add_table("t", [("a", INT32), ("s", string_type(16))])
    definition = schema.table("t")
    return StoredTable(
        name="t",
        definition=definition,
        columns={
            "a": np.arange(n, dtype=np.int32),
            "s": np.full(n, "x" * 8),
        },
        page_model=PageModel(page),
    )


class TestLayout:
    def test_column_bytes_and_pages(self):
        t = _table()
        assert t.column_bytes("a") == 4000.0
        assert t.column_pages("a") == 4  # ceil(4000/1024)
        assert t.column_bytes("s") == 16_000.0

    def test_total_bytes_subset(self):
        t = _table()
        assert t.total_bytes(["a"]) == 4000.0
        assert t.total_bytes() == 20_000.0

    def test_logical_rows_without_bdcc(self):
        t = _table()
        assert t.logical_rows == t.stored_rows == 1000


class TestIO:
    def test_full_scan_one_run_per_column(self):
        t = _table()
        sizes = t.io_run_bytes(Selection.whole(t.stored_rows), ["a", "s"])
        assert len(sizes) == 2
        assert sizes[0] == 4 * 1024  # 4 pages of 'a'
        assert sizes[1] == 16 * 1024

    def test_scattered_runs_cost_more_accesses(self):
        t = _table()
        contiguous = t.io_run_bytes(Selection([0], [512]), ["a"])
        scattered = t.io_run_bytes(Selection([0, 700], [256, 256]), ["a"])
        assert len(scattered) > len(contiguous)
        assert sum(scattered) >= sum(contiguous)

    def test_adjacent_runs_merge_to_one_access(self):
        t = _table()
        sizes = t.io_run_bytes(Selection([0, 256], [256, 256]), ["a"])
        assert len(sizes) == 1

    def test_empty_runs(self):
        t = _table()
        assert t.io_run_bytes(Selection([], []), ["a"]) == []

    @pytest.mark.parametrize(
        "selection",
        [Selection.whole(1000), Selection([0, 700], [256, 256]),
         Selection([3, 40, 41 * 7, 990], [5, 200, 13, 10]), Selection([], [])],
    )
    def test_mixed_widths_read_each_columns_own_pages(self, selection):
        """Page runs are computed once per stored width; the list is
        still one run list per column, in column order."""
        schema = Schema()
        widths = [("i", INT32), ("l", INT64), ("d", DATE), ("s", string_type(16)),
                  ("f", FLOAT64), ("j", INT32)]
        schema.add_table("m", widths)
        t = StoredTable(
            name="m",
            definition=schema.table("m"),
            columns={name: np.zeros(1000, dtype=np.int64) for name, _ in widths},
            page_model=PageModel(1024),
        )
        columns = ["i", "l", "d", "s", "f", "j", "i"]
        expected = []
        for column in columns:
            pages = t.page_model.pages_for_runs(selection, t.stored_bytes_per_value(column))
            expected.extend((pages.lengths * t.page_model.page_bytes).tolist())
        assert t.io_run_bytes(selection, columns) == expected
        assert len({t.stored_bytes_per_value(c) for c in columns}) == 3


class TestMinMaxIntegration:
    def test_block_rows_follow_column_width(self):
        t = _table()
        assert t.minmax_for("a").block_rows == 1024 // 4
        # built lazily and cached
        assert t.minmax_for("a") is t.minmax_for("a")

    def test_prunes_sorted_column(self):
        t = _table()
        index = t.minmax_for("a")
        keep = index.blocks_overlapping(0, 99)
        assert np.count_nonzero(keep) == 1
