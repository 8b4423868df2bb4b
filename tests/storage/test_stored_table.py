"""StoredTable layout arithmetic and IO accounting."""

import numpy as np
import pytest

from repro.catalog import INT32, Schema, string_type
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
