"""Storage substrate: pages, zone maps, disk model, database container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import INT32, Schema, string_type
from repro.core.selection import Selection
from repro.storage.database import Database, lookup_rows
from repro.storage.io_model import PAPER_SSD, DiskModel
from repro.storage.minmax import MinMaxIndex
from repro.storage.pages import PageModel


def _pages_for_row_runs(runs, rpp):
    """Row runs -> page runs, one run at a time: the loop every scan's
    IO was charged through before page runs were computed per selection."""
    page_runs = []
    for start_row, num_rows in runs:
        if num_rows <= 0:
            continue
        first = start_row // rpp
        last = (start_row + num_rows - 1) // rpp
        if page_runs:
            prev_first, prev_len = page_runs[-1]
            prev_last = prev_first + prev_len - 1
            # merge forward-adjacent or overlapping runs (a shared
            # boundary page is read once)
            if prev_first <= first <= prev_last + 1:
                new_last = max(prev_last, last)
                page_runs[-1] = (prev_first, new_last - prev_first + 1)
                continue
        page_runs.append((first, last - first + 1))
    return page_runs


class TestPageModel:
    def test_column_pages(self):
        pm = PageModel(1024)
        assert pm.column_pages(0, 4.0) == 0
        assert pm.column_pages(1, 4.0) == 1
        assert pm.column_pages(256, 4.0) == 1
        assert pm.column_pages(257, 4.0) == 2

    def test_rows_per_page(self):
        assert PageModel(1024).rows_per_page(4.0) == 256

    def test_row_runs_to_page_runs_merging(self):
        pm = PageModel(1024)  # 256 rows/page at 4B
        runs = pm.pages_for_runs(Selection([0, 100], [100, 200]), 4.0).runs()
        assert runs == [(0, 2)]  # contiguous rows share pages

    def test_scattered_runs(self):
        pm = PageModel(1024)
        runs = pm.pages_for_runs(Selection([0, 1000], [10, 10]), 4.0).runs()
        assert runs == [(0, 1), (3, 1)]

    def test_shared_boundary_page_is_read_once(self):
        pm = PageModel(1024)
        runs = pm.pages_for_runs(Selection([0, 250, 300, 600], [10, 10, 5, 1]), 4.0).runs()
        assert runs == [(0, 3)]  # pages 0-1, then 1 again, then 2 adjacent

    @settings(deadline=None)
    @given(
        st.lists(st.booleans(), max_size=400).map(lambda v: np.array(v, dtype=bool)),
        st.integers(1, 64),
    )
    def test_page_runs_equal_the_per_run_loop(self, mask, width):
        """The per-run loop the page runs were computed by is the
        reference, for any ascending selection and column width."""
        pm = PageModel(256)
        selection = Selection.from_mask(mask)
        expected = _pages_for_row_runs(selection.runs(), pm.rows_per_page(float(width)))
        assert pm.pages_for_runs(selection, float(width)).runs() == expected


class TestDiskModel:
    def test_efficient_access_size_inverse(self):
        disk = DiskModel(sequential_bandwidth=1e9, access_latency=8.192e-6)
        ar = disk.efficient_access_size(0.8)
        assert ar == pytest.approx(32 * 1024, rel=1e-6)
        assert disk.efficiency(ar) == pytest.approx(0.8)

    def test_paper_device(self):
        assert PAPER_SSD.efficient_access_size(0.8) == pytest.approx(32 * 1024)

    def test_time_for_runs(self):
        disk = DiskModel(1e9, 1e-5)
        t = disk.time_for_runs([1e6, 1e6])
        assert t == pytest.approx(2e-5 + 2e-3)

    def test_sequential_beats_scattered(self):
        disk = DiskModel(1e9, 1e-5)
        assert disk.time_for_runs([4e6]) < disk.time_for_runs([1e6] * 4)

    def test_efficiency_monotone(self):
        disk = DiskModel(1e9, 1e-5)
        sizes = [1e3, 1e4, 1e5, 1e6]
        effs = [disk.efficiency(s) for s in sizes]
        assert effs == sorted(effs)

    def test_bad_target(self):
        with pytest.raises(ValueError):
            PAPER_SSD.efficient_access_size(1.5)


class TestMinMax:
    def test_build_and_prune(self):
        values = np.arange(1000)
        idx = MinMaxIndex.build(values, block_rows=100)
        assert idx.num_blocks == 10
        keep = idx.blocks_overlapping(250, 349)
        assert list(np.flatnonzero(keep)) == [2, 3]

    def test_open_bounds(self):
        idx = MinMaxIndex.build(np.arange(100), 10)
        assert np.all(idx.blocks_overlapping(None, None))
        assert np.count_nonzero(idx.blocks_overlapping(95, None)) == 1

    def test_random_order_prunes_nothing(self):
        rng = np.random.default_rng(0)
        values = rng.permutation(10_000)
        idx = MinMaxIndex.build(values, 100)
        # a 10% range still touches ~every block when data is shuffled
        assert np.mean(idx.blocks_overlapping(0, 999)) > 0.95

    def test_clustered_order_prunes(self):
        values = np.sort(np.random.default_rng(0).integers(0, 10_000, 10_000))
        idx = MinMaxIndex.build(values, 100)
        assert np.mean(idx.blocks_overlapping(0, 999)) < 0.15

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=300))
    def test_never_loses_rows(self, values):
        arr = np.array(values)
        idx = MinMaxIndex.build(arr, 16)
        lo, hi = -10, 10
        keep_blocks = idx.blocks_overlapping(lo, hi)
        qualifying = np.flatnonzero((arr >= lo) & (arr <= hi))
        for row in qualifying:
            assert keep_blocks[row // 16]

    @settings(deadline=None)
    @given(
        st.integers(0, 300),
        st.integers(1, 64),
        st.sampled_from([np.int32, np.int64, np.float32, np.float64]),
        st.integers(0, 2**32 - 1),
    )
    def test_build_equals_the_per_block_loop(self, n, block_rows, dtype, seed):
        """``build`` is one ``reduceat`` per bound; the per-block loop it
        replaced is the reference, bit for bit (``n % block_rows != 0``
        and zero rows included)."""
        rng = np.random.default_rng(seed)
        values = (rng.standard_normal(n) * 1e6).astype(dtype)
        idx = MinMaxIndex.build(values, block_rows)
        num_blocks = -(-n // block_rows)
        chunks = [values[b * block_rows:(b + 1) * block_rows] for b in range(num_blocks)]
        mins = np.array([c.min() for c in chunks], dtype=dtype)
        maxs = np.array([c.max() for c in chunks], dtype=dtype)
        assert idx.mins.dtype == idx.maxs.dtype == values.dtype
        assert idx.mins.tobytes() == mins.tobytes()
        assert idx.maxs.tobytes() == maxs.tobytes()


def _column(values, kind):
    if kind == "str":
        return np.array([f"k{v}" for v in values], dtype=str)
    return np.array(values, dtype=kind)


@st.composite
def _lookup_cases(draw):
    """A unique key of one or two columns and probe tuples against it.
    Keys are dense (step 1: the direct-address probe) or sparse (step
    1000: the sorted probe), may be negative or empty; probes mix hits
    with values outside the key range.  Integer columns are int32 or
    int64 on either side; a string column is a string on both."""
    width = draw(st.integers(1, 2))
    step = draw(st.sampled_from([1, 1000]))
    value = st.integers(-20, 20).map(lambda v: v * step)
    keys = draw(st.lists(st.tuples(*[value] * width), unique=True, max_size=30))
    outside = st.tuples(*[st.integers(-10**6, 10**6)] * width)
    probe = st.one_of(st.sampled_from(keys), outside) if keys else outside
    probes = draw(st.lists(probe, max_size=40))
    kinds = draw(st.lists(st.sampled_from(["int32", "int64", "str"]), min_size=width, max_size=width))
    probe_kinds = [
        kind if kind == "str" else draw(st.sampled_from(["int32", "int64"])) for kind in kinds
    ]
    return keys, probes, kinds, probe_kinds


class TestDatabase:
    def _db(self):
        schema = Schema()
        schema.add_table("p", [("id", INT32), ("v", INT32)], primary_key=["id"])
        schema.add_table("c", [("cid", INT32), ("pid", INT32)], primary_key=["cid"])
        schema.add_foreign_key("FK", "c", ["pid"], "p")
        db = Database(schema)
        db.add_table_data("p", {"id": np.array([10, 20, 30]), "v": np.array([1, 2, 3])})
        db.add_table_data("c", {"cid": np.arange(4), "pid": np.array([20, 10, 30, 20])})
        return db

    def test_lookup_rows(self):
        keys = [np.array([10, 20, 30])]
        probes = [np.array([30, 10, 99])]
        assert list(lookup_rows(keys, probes)) == [2, 0, -1]

    def test_lookup_multicol(self):
        keys = [np.array([1, 1, 2]), np.array([10, 20, 10])]
        probes = [np.array([1, 2, 2]), np.array([20, 10, 99])]
        assert list(lookup_rows(keys, probes)) == [1, 2, -1]

    @pytest.mark.parametrize("width", [1, 2])
    def test_lookup_on_an_empty_key_side_finds_nothing(self, width):
        keys = [np.zeros(0, dtype=np.int32)] * width
        probes = [np.array([30, 10, 99], dtype=np.int32)] * width
        rows = lookup_rows(keys, probes)
        assert rows.tolist() == [-1, -1, -1] and rows.dtype == np.int64

    def test_dangling_path_into_an_empty_parent_is_named(self):
        db = self._db()
        db.add_table_data("p", {"id": np.zeros(0, dtype=np.int32), "v": np.zeros(0, dtype=np.int32)})
        with pytest.raises(ValueError, match="dangling foreign key"):
            db.resolve_path_values("c", ("FK",), ["v"])

    @given(case=_lookup_cases())
    @settings(deadline=None, max_examples=200)
    def test_lookup_rows_matches_a_dict(self, case):
        keys, probes, kinds, probe_kinds = case
        oracle = {key: row for row, key in enumerate(keys)}
        expected = [oracle.get(probe, -1) for probe in probes]
        key_columns = [_column([k[i] for k in keys], kind) for i, kind in enumerate(kinds)]
        probe_columns = [
            _column([p[i] for p in probes], kind) for i, kind in enumerate(probe_kinds)
        ]
        rows = lookup_rows(key_columns, probe_columns)
        assert rows.dtype == np.int64
        assert rows.tolist() == expected

    def test_follow_foreign_key(self):
        db = self._db()
        assert list(db.follow_foreign_key("FK")) == [1, 0, 2, 1]

    def test_parent_rows_are_kept_per_child_and_parent_version(self):
        db = self._db()
        walks = {}
        first = db.parent_rows("FK", walks)
        assert first.tolist() == [1, 0, 2, 1] and db.parent_rows("FK", walks) is first
        db.append_table_rows("c", {"cid": np.array([4]), "pid": np.array([30])})
        assert db.parent_rows("FK", walks).tolist() == [1, 0, 2, 1, 2]
        db.delete_table_rows("p", np.array([True, False, False]))
        assert db.parent_rows("FK", walks).tolist() == [0, -1, 1, 0, 1]
        assert len(walks) == 3 and first.tolist() == [1, 0, 2, 1]

    def test_resolve_path_values(self):
        db = self._db()
        (vals,) = db.resolve_path_values("c", ("FK",), ["v"])
        assert list(vals) == [2, 1, 3, 2]

    def test_resolve_local(self):
        db = self._db()
        (vals,) = db.resolve_path_values("p", (), ["v"])
        assert list(vals) == [1, 2, 3]

    def test_missing_columns_rejected(self):
        db = self._db()
        with pytest.raises(ValueError):
            db.add_table_data("p", {"id": np.array([1])})

    def test_ragged_rejected(self):
        db = self._db()
        with pytest.raises(ValueError):
            db.add_table_data("p", {"id": np.array([1]), "v": np.array([1, 2])})

    def test_wrong_path_start_rejected(self):
        db = self._db()
        with pytest.raises(ValueError):
            db.resolve_path_values("p", ("FK",), ["v"])


def _package_imports(module):
    """The ``repro`` subpackages a module imports, from its source."""
    import ast
    import importlib

    source = importlib.import_module(module).__file__
    with open(source, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    package = module.rsplit(".", 1)[0]
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.rsplit(".", node.level - 1)[0]
                name = ".".join(filter(None, [base, node.module]))
            else:
                name = node.module or ""
            if name.startswith("repro."):
                found.add(name.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("repro."))
    return found


class TestLayering:
    """Storage sits below the operators: the key kernels the foreign-key
    lookup and every join share live here, not in ``execution``."""

    def test_key_kernels_are_pure_numpy(self):
        assert _package_imports("repro.storage.keys") == set()

    @pytest.mark.parametrize(
        "module",
        ["repro.storage.database", "repro.storage.stored_table", "repro.storage.pages",
         "repro.storage.minmax", "repro.storage.io_model"],
    )
    def test_storage_imports_no_higher_layer(self, module):
        assert _package_imports(module) <= {"catalog", "core", "storage"}
