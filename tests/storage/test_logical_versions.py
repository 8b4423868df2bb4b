"""The logical write path against an eager-copy model.

A logical table is a base, appended runs and one deletion bitmap per
piece; its merged rows must be exactly what copying the whole table on
every write gives — the same values, dtypes, row order and row count —
while the base arrays stay the same objects from version to version, a
version hands out one column mapping, and an abandoned stage changes
nothing published.  A fold copies no column: the folded base gathers a
column when it is first read, its dtypes and the next append read none,
and a run whose rows were all deleted is released.  An index that reads
every row in order is no index: such a table hands out its pieces' own
arrays.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import tpch
from repro.catalog import FLOAT64, INT64, Schema, string_type
from repro.storage.database import Database, IndexedColumns, TablePiece, TableVersion

COLUMNS = ("k", "x", "s")


def _schema() -> Schema:
    schema = Schema()
    schema.add_table("t", [("k", INT64), ("x", FLOAT64), ("s", string_type(6))], primary_key=["k"])
    return schema


def _batch(seed: int, n: int, wide: bool, cast: bool) -> dict:
    rng = np.random.default_rng(seed)
    width = 6 if wide else 3
    return {
        "k": rng.integers(0, 1000, n).astype(np.int32 if cast else np.int64),
        "x": rng.random(n).astype(np.float32 if cast else np.float64),
        "s": np.array(["".join("ab"[b] for b in row) for row in rng.integers(0, 2, (n, width))]
                      if n else [], dtype=f"<U{width}"),
    }


class Model:
    """The table as every write used to leave it: whole copies."""

    def __init__(self, columns):
        self.columns = {name: values.copy() for name, values in columns.items()}

    def append(self, rows):
        if len(rows["k"]) == 0:
            return  # an empty batch changes nothing, not even a dtype
        for name, base in self.columns.items():
            extra = np.asarray(rows[name])
            if base.dtype.kind in "iuf" and extra.dtype != base.dtype:
                extra = extra.astype(base.dtype)
            self.columns[name] = np.concatenate([base, extra])

    def delete(self, mask):
        self.columns = {name: values[~mask] for name, values in self.columns.items()}


def _mask(seed: int, share: float, n: int) -> np.ndarray:
    return np.random.default_rng(seed).random(n) < share


def _apply(db: Database, model: Model, op) -> None:
    kind = op[0]
    if kind == "append":
        _, seed, n, wide, cast = op
        rows = _batch(seed, n, wide, cast)
        n_old, n_new = db.append_table_rows("t", rows)
        assert (n_old, n_new) == (len(model.columns["k"]), n)
        model.append(rows)
    elif kind == "delete":
        _, seed, share = op
        mask = _mask(seed, share, db.num_rows("t"))
        assert db.delete_table_rows("t", mask) == int(mask.sum())
        model.delete(mask)
    else:
        db.fold("t")


def _assert_matches(db: Database, model: Model) -> None:
    data = db.table_data("t")
    assert data is db.table_data("t")
    assert list(data) == list(COLUMNS)
    assert db.num_rows("t") == len(model.columns["k"])
    for name, expected in model.columns.items():
        got = data[name]
        assert got.dtype == expected.dtype, name
        assert np.array_equal(got, expected), name
        assert db.column("t", name) is got


writes = st.one_of(
    st.tuples(st.just("append"), st.integers(0, 99), st.integers(0, 12), st.booleans(), st.booleans()),
    st.tuples(st.just("delete"), st.integers(0, 99), st.sampled_from([0.0, 0.2, 0.7, 1.0])),
    st.tuples(st.just("fold")),
)
steps = st.one_of(
    writes,
    st.tuples(st.just("stage"), st.lists(writes, min_size=1, max_size=4), st.booleans()),
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.lists(steps, min_size=1, max_size=10))
def test_the_merged_rows_are_the_eager_copies(sequence):
    db = Database(_schema())
    db.add_table_data("t", _batch(1000, 20, wide=False, cast=False))
    model = Model(db.table_data("t"))
    for step in sequence:
        before = db.version("t")
        data = db.table_data("t")
        if step[0] != "stage":
            _apply(db, model, step)
            ops = [step]
        else:
            _, ops, publish = step
            staged = db.stage()
            published = Model(model.columns)
            for op in ops:
                _apply(staged, model, op)
            if publish:
                db.publish(staged)
            else:
                # abandoned: the published version, its rows and its
                # mapping are untouched
                assert db.version("t") is before and db.table_data("t") is data
                model = published
        after = db.version("t")
        _assert_matches(db, model)
        if after is not before:
            assert db.table_data("t") is not data
        if not any(op[0] == "fold" for op in ops):
            # appends and deletes share the base arrays
            assert after.base is before.base
            for name in COLUMNS:
                assert after.base.columns[name] is before.base.columns[name]
        if after.is_flat:
            for name in COLUMNS:
                assert db.column("t", name) is after.base.columns[name]


def test_a_write_copies_its_batch_and_bitmaps_only():
    db = Database(_schema())
    db.add_table_data("t", _batch(1, 1000, wide=False, cast=False))
    staged = db.stage()
    rows = _batch(2, 10, wide=True, cast=True)
    staged.append_table_rows("t", rows)
    # the batch cast to the table's dtypes, plus its bitmap
    batch = 10 * (8 + 8 + 4 * 6) + 10
    assert staged.copied_bytes == batch
    staged.delete_table_rows("t", np.arange(1010) % 2 == 0)  # hits both pieces
    assert staged.copied_bytes == batch + 1000 + 10
    assert db.copied_bytes == 0
    assert db.fold("t") == 0  # the published version is flat
    db.publish(staged)
    # a fold copies no column: the int64 index of the live rows, plus
    # the new bitmap
    assert db.fold("t") == 505 * 8 + 505


def _folded(db: Database, table: str) -> dict:
    """Fold ``table``; returns its merged columns from before the fold."""
    merged = {name: values.copy() for name, values in db.table_data(table).items()}
    db.fold(table)
    return merged


@pytest.mark.parametrize("seed", [7, 11])
def test_a_folded_tpch_table_gathers_on_first_read(seed):
    db = tpch.generate(scale_factor=0.002, seed=seed)
    rng = np.random.default_rng(seed)
    for table in ("orders", "lineitem"):
        data = db.table_data(table)
        n = db.num_rows(table)
        # a run of some rows again, then the base's and the run's first rows deleted
        db.append_table_rows(table, {name: values[:n // 10] for name, values in data.items()})
        mask = rng.random(db.num_rows(table)) < 0.2
        mask[0] = mask[n] = True
        db.delete_table_rows(table, mask)
        merged = _folded(db, table)
        version = db.version(table)
        assert version.is_flat and version.base.columns.gathered == ()
        # dtypes and the next append gather nothing
        assert {name: version.dtype(name) for name in merged} == {
            name: values.dtype for name, values in merged.items()
        }
        data = db.table_data(table)
        db.append_table_rows(table, {name: merged[name][:3] for name in merged})
        assert version.base.columns.gathered == ()
        for name, expected in merged.items():
            got = data[name]
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), name
        assert version.base.columns.gathered == tuple(merged)


def test_a_fold_releases_a_run_whose_rows_were_all_deleted():
    db = Database(_schema())
    db.add_table_data("t", _batch(1, 50, wide=False, cast=False))
    db.append_table_rows("t", _batch(2, 10, wide=True, cast=False))
    db.append_table_rows("t", _batch(3, 10, wide=False, cast=False))
    gone = weakref.ref(db.version("t").runs[0].columns["k"])
    kept = db.version("t").runs[1].columns["k"]
    db.delete_table_rows("t", (np.arange(70) >= 50) & (np.arange(70) < 60))
    merged = _folded(db, "t")
    gc.collect()
    assert gone() is None
    # the released run's wider strings still set the folded dtype
    assert db.version("t").dtype("s") == merged["s"].dtype == np.dtype("<U6")
    assert np.array_equal(db.column("t", "k"), merged["k"])
    assert np.array_equal(db.column("t", "k")[50:], kept)


def _same_columns(a, b) -> None:
    assert list(a) == list(b) and a.rows == b.rows
    for name in a:
        assert a.dtype(name) == b.dtype(name), name
        assert a[name].dtype == b[name].dtype and a[name].tobytes() == b[name].tobytes(), name


def test_an_index_that_reads_every_row_in_order_is_no_index():
    source = _batch(1, 40, wide=False, cast=False)
    run = _batch(2, 6, wide=True, cast=False)
    whole, ranged = IndexedColumns(source), IndexedColumns(source, np.arange(40))
    _same_columns(ranged, whole)
    assert ranged.index_bytes == 0 and ranged.gathered == ()
    for name in COLUMNS:
        assert ranged[name] is source[name]
    # then the rows of a run: the two pieces concatenated, no index
    composed = ranged.compose(None, [(run, None)])
    _same_columns(composed, whole.compose(None, [(run, None)]))
    assert composed.index_bytes == 0
    assert ranged.compose(np.arange(40), [(run, np.arange(6))]).index_bytes == 0
    # a fold with no deletes of a base laid out with that index
    base = TableVersion.of(IndexedColumns(source, np.arange(40)))
    version = TableVersion(base.base, (TablePiece(run),), base.deleted + (np.zeros(6, dtype=bool),))
    folded = IndexedColumns(version)
    _same_columns(folded, IndexedColumns(TableVersion(
        TablePiece(source), (TablePiece(run),), version.deleted,
    )))
    assert folded.index_bytes == 0
    # a reordering, a repeat or a gap keeps its index
    for rows in (np.arange(40)[::-1], np.r_[0, np.arange(39)], np.r_[np.arange(20), np.arange(21, 40), 39]):
        assert IndexedColumns(source, rows).index_bytes == rows.nbytes


def test_the_arrays_a_table_holds_are_read_only():
    columns = _batch(1, 20, wide=False, cast=False)
    db = Database(_schema())
    db.add_table_data("t", columns)
    db.append_table_rows("t", _batch(2, 5, wide=False, cast=False))
    db.delete_table_rows("t", np.arange(25) % 3 == 0)
    db.fold("t")
    pieces = [columns] + [piece.columns for piece in db.version("t").pieces]
    for piece in pieces:
        for name in COLUMNS:
            with pytest.raises(ValueError, match="read-only"):
                piece[name][:1] = piece[name][1:2]
