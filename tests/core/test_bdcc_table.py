"""Algorithm 1: the self-tuned BDCC table builder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import INT32, Schema, string_type
from repro.core.bdcc_table import BDCCBuildConfig, build_bdcc_table
from repro.core.bits import gather_use_bits, ones, truncate_mask
from repro.core.dimension import Dimension
from repro.core.dimension_use import DimensionUse
from repro.storage.database import Database


def _mini_db(n_fact=256, seed=0, heavy=0):
    """fact -> dim over FK_F_D; dim has 8 distinct keys.  The first
    ``heavy`` fact rows reference key 0 (one heavy bin)."""
    rng = np.random.default_rng(seed)
    schema = Schema()
    schema.add_table("dim", [("d_key", INT32), ("d_val", INT32)], primary_key=["d_key"])
    schema.add_table(
        "fact",
        [("f_id", INT32), ("f_dkey", INT32), ("f_local", INT32), ("f_pad", string_type(64))],
        primary_key=["f_id"],
    )
    schema.add_foreign_key("FK_F_D", "fact", ["f_dkey"], "dim")
    f_dkey = rng.integers(0, 8, n_fact).astype(np.int32)
    f_dkey[:heavy] = 0
    db = Database(schema)
    db.add_table_data("dim", {
        "d_key": np.arange(8, dtype=np.int32),
        "d_val": np.arange(8, dtype=np.int32) * 10,
    })
    db.add_table_data("fact", {
        "f_id": np.arange(n_fact, dtype=np.int32),
        "f_dkey": f_dkey,
        "f_local": rng.integers(0, 16, n_fact).astype(np.int32),
        "f_pad": np.full(n_fact, "x" * 32),
    })
    return db


def _uses(db):
    d_dim = Dimension.create("D_DIM", "dim", ["d_key"], [db.column("dim", "d_key")])
    d_loc = Dimension.create("D_LOC", "fact", ["f_local"], [db.column("fact", "f_local")])
    return [DimensionUse(d_dim, ("FK_F_D",)), DimensionUse(d_loc, ())]


@pytest.fixture()
def mini_db():
    return _mini_db()


class TestBuild:
    def test_keys_sorted_and_total_bits(self, mini_db):
        bdcc = build_bdcc_table(mini_db, "fact", _uses(mini_db))
        assert bdcc.total_bits == 3 + 4
        assert np.all(np.diff(bdcc.keys.astype(np.int64)) >= 0)

    def test_count_table_accounts_every_row(self, mini_db):
        bdcc = build_bdcc_table(mini_db, "fact", _uses(mini_db))
        assert bdcc.count_table.total_rows() == mini_db.num_rows("fact")

    def test_keys_match_dimension_bins(self, mini_db):
        bdcc = build_bdcc_table(
            mini_db, "fact", _uses(mini_db),
            BDCCBuildConfig(consolidate_max_fraction=None),
        )
        use = bdcc.uses[0]
        stored_dkey = mini_db.column("fact", "f_dkey")[bdcc.row_source]
        expected = use.dimension.bin_of_values([stored_dkey])
        extracted = gather_use_bits(bdcc.keys, use.mask)
        assert np.array_equal(extracted, expected)

    def test_densest_column_detected(self, mini_db):
        bdcc = build_bdcc_table(mini_db, "fact", _uses(mini_db))
        assert bdcc.densest_column == "f_pad"

    def test_major_minor_layout(self, mini_db):
        bdcc = build_bdcc_table(
            mini_db, "fact", _uses(mini_db), BDCCBuildConfig(interleave="major_minor")
        )
        assert bdcc.uses[0].mask == 0b1110000
        assert bdcc.uses[1].mask == 0b0001111

    def test_requires_uses(self, mini_db):
        with pytest.raises(ValueError):
            build_bdcc_table(mini_db, "fact", [])


class TestGranularitySelection:
    def test_small_table_keeps_full_granularity(self, mini_db):
        # entire fact table is far below A_R/2 -> fallback to full B
        bdcc = build_bdcc_table(
            mini_db, "fact", _uses(mini_db),
            BDCCBuildConfig(efficient_access_bytes=1024 * 1024),
        )
        assert bdcc.granularity == bdcc.total_bits

    def test_ar_reduces_granularity(self, mini_db):
        coarse = build_bdcc_table(
            mini_db, "fact", _uses(mini_db),
            BDCCBuildConfig(efficient_access_bytes=512.0, consolidate_max_fraction=None),
        )
        fine = build_bdcc_table(
            mini_db, "fact", _uses(mini_db),
            BDCCBuildConfig(efficient_access_bytes=64.0, consolidate_max_fraction=None),
        )
        assert coarse.granularity < fine.granularity <= coarse.total_bits

    def test_effective_uses_truncated(self, mini_db):
        bdcc = build_bdcc_table(
            mini_db, "fact", _uses(mini_db),
            BDCCBuildConfig(efficient_access_bytes=512.0),
        )
        b = bdcc.granularity
        for index, use in enumerate(bdcc.uses):
            assert bdcc.effective_bits(index) == ones(truncate_mask(use.mask, bdcc.total_bits, b))
        assert sum(map(bdcc.effective_bits, range(len(bdcc.uses)))) == b

    def test_zone_of_is_the_count_table_entry(self, mini_db):
        bdcc = build_bdcc_table(
            mini_db, "fact", _uses(mini_db),
            BDCCBuildConfig(efficient_access_bytes=512.0, consolidate_max_fraction=None),
        )
        ct = bdcc.count_table
        assert bdcc.granularity < bdcc.total_bits
        assert np.array_equal(
            bdcc.zone_of(bdcc.keys), np.repeat(ct.keys, ct.counts)
        )


class TestConsolidation:
    def test_small_groups_copied_and_invalidated(self):
        # skew: one huge group, several tiny ones
        db = _mini_db(n_fact=512, seed=3, heavy=450)  # heavy bin
        bdcc = build_bdcc_table(
            db, "fact", _uses(db),
            BDCCBuildConfig(efficient_access_bytes=2048.0, consolidate_max_fraction=0.5),
        )
        ct = bdcc.count_table
        if not np.all(ct.valid):
            # rows are duplicated in storage, once per copy
            assert bdcc.stored_rows > bdcc.logical_rows
            # but valid entries see each logical row exactly once
            assert ct.total_rows() == bdcc.logical_rows
            # consolidated copies are contiguous at the end
            invalid = np.flatnonzero(~ct.valid)
            copied = int(ct.counts[invalid].sum())
            assert bdcc.stored_rows - bdcc.logical_rows == copied

    def test_disabled_consolidation_keeps_storage_exact(self, mini_db):
        bdcc = build_bdcc_table(
            mini_db, "fact", _uses(mini_db),
            BDCCBuildConfig(consolidate_max_fraction=None),
        )
        assert bdcc.stored_rows == bdcc.logical_rows
        assert np.all(bdcc.count_table.valid)


class TestEntriesMatching:
    def test_restriction_prunes_groups(self, mini_db):
        bdcc = build_bdcc_table(
            mini_db, "fact", _uses(mini_db),
            BDCCBuildConfig(efficient_access_bytes=256.0, consolidate_max_fraction=None),
        )
        all_entries = bdcc.count_table.select_entries()
        allowed = np.array([0, 1], dtype=np.uint64)  # first two dim bins
        entries = bdcc.entries_matching([(0, allowed, bdcc.uses[0].dimension.bits)])
        assert 0 < len(entries) < len(all_entries)
        # every selected row really has dkey in the allowed bins
        rows = bdcc.count_table.selection(entries).rows()
        dkeys = mini_db.column("fact", "f_dkey")[bdcc.row_source[rows]]
        bins = bdcc.uses[0].dimension.bin_of_values([dkeys])
        assert set(np.unique(bins).tolist()) <= {0, 1}

    @settings(max_examples=30, deadline=None)
    @given(allowed=st.sets(st.integers(0, 7), min_size=1, max_size=8))
    def test_superset_guarantee(self, fact_table, allowed):
        """Pruning must never lose qualifying rows, whichever bins a
        restriction allows."""
        db, bdcc = fact_table
        allowed = np.array(sorted(allowed), dtype=np.uint64)
        entries = bdcc.entries_matching([(0, allowed, bdcc.uses[0].dimension.bits)])
        rows = bdcc.count_table.selection(entries).rows()
        selected_ids = set(db.column("fact", "f_id")[bdcc.row_source[rows]].tolist())
        dkeys = db.column("fact", "f_dkey")
        bins = bdcc.uses[0].dimension.bin_of_values([dkeys])
        qualifying = set(db.column("fact", "f_id")[np.isin(bins, allowed)].tolist())
        assert qualifying <= selected_ids


@pytest.fixture(scope="module")
def fact_table():
    db = _mini_db()
    return db, build_bdcc_table(
        db, "fact", _uses(db), BDCCBuildConfig(efficient_access_bytes=256.0)
    )
