"""One write path, one storage order.

The paper's maintainability-under-updates claims on the path production
runs (``UpdateSession.commit`` → delta runs → ``compact_table``):
compaction equals a full rebuild with the existing dimensions, group
identities survive, bins stay consistent, out-of-domain values clamp,
consolidated duplicates never leak.  Plus the property the shared
``StoredTable.storage_order`` buys: a merged read before compaction and
the table after it are the same rows in the same order, and the
differential oracle's second reference watches that path.
"""

import numpy as np
import pytest

from repro import tpch
from repro.core.bdcc_table import BDCCBuildConfig, build_bdcc_table
from repro.core.bits import gather_use_bits
from repro.core.count_table import CountTable
from repro.execution.expressions import col
from repro.planner.executor import Executor
from repro.planner.logical import scan
from repro.tpch.environment import make_environment
from repro.tpch.harness import build_schemes
from repro.updates import CompactionPolicy, UpdateSession
from repro.updates.compaction import compact_table
from repro.workload.differential import ablation_variants, run_differential

from .conftest import sample_lineitem_insert, sample_orders_insert

NO_COMPACTION = CompactionPolicy(max_delta_fraction=None)
ALWAYS_COMPACT = CompactionPolicy(max_delta_fraction=0.0001, min_delta_rows=1)
CONSOLIDATED_SF = 0.003


def _insert_orders_and_lineitems(db, pdbs, policy, seed=11, orders=40):
    rng = np.random.default_rng(seed)
    session = UpdateSession(*pdbs.values(), policy=policy)
    rows = sample_orders_insert(db, rng, orders)
    session.insert_rows("orders", rows)
    session.insert_rows("lineitem", sample_lineitem_insert(db, rng, rows["o_orderkey"]))
    return session


def _consolidated():
    """(db, env, {"bdcc": pdb}) with *consolidated* LINEITEM/ORDERS —
    the build no TPC-H scale factor reaches on its own."""
    db = tpch.generate(scale_factor=CONSOLIDATED_SF, seed=7)
    env = make_environment(CONSOLIDATED_SF)
    config = env.advisor_config(
        build=BDCCBuildConfig(efficient_access_bytes=1024.0, consolidate_max_fraction=0.5)
    )
    pdbs = build_schemes(db, env, include=["bdcc"], advisor_config=config)
    assert pdbs["bdcc"].table("lineitem").stored_rows > db.num_rows("lineitem")
    return db, env, pdbs


class TestCompactionEqualsRebuild:
    """An insert commit folded by compaction is the table Algorithm 1
    would build over the grown database with the *existing* uses."""

    @pytest.fixture()
    def grown(self, fresh):
        """(db, bdcc pdb, count tables before, fresh builds after) around
        one insert commit that compacts ORDERS and LINEITEM."""
        db, env, pdbs = fresh
        pdb = pdbs["bdcc"]
        before = {t: pdb.table(t).bdcc.count_table for t in ("orders", "lineitem")}
        result = _insert_orders_and_lineitems(db, pdbs, ALWAYS_COMPACT).commit()
        assert result.compacted_tables("bdcc") == ["lineitem", "orders"]
        rebuilt = {
            t: build_bdcc_table(db, t, pdb.table(t).bdcc.uses, env.advisor_config().build)
            for t in before
        }
        return db, pdb, before, rebuilt

    def test_keys_and_rows_equal_a_fresh_build(self, grown):
        db, pdb, _, rebuilt = grown
        for table, fresh_build in rebuilt.items():
            stored = pdb.table(table)
            bdcc = stored.bdcc
            assert [u.mask for u in fresh_build.uses] == [u.mask for u in bdcc.uses]
            assert np.array_equal(bdcc.keys, fresh_build.keys), table
            assert bdcc.logical_rows == stored.stored_rows == db.num_rows(table)
            # not just the same keys: the same row under every key
            for name, values in db.table_data(table).items():
                assert np.array_equal(
                    stored.columns[name], values[fresh_build.row_source]
                ), (table, name)
            # the incrementally merged count table is the re-aggregation
            again = CountTable.from_sorted_keys(
                fresh_build.keys, bdcc.total_bits, bdcc.granularity
            )
            for attr in ("keys", "counts", "offsets", "valid"):
                assert np.array_equal(
                    getattr(bdcc.count_table, attr), getattr(again, attr)
                ), (table, attr)

    def test_group_identities_survive_with_counts_no_smaller(self, grown):
        _, pdb, before, _ = grown
        for table, old in before.items():
            ct = pdb.table(table).bdcc.count_table
            new = dict(zip(ct.keys.tolist(), ct.counts.tolist()))
            grew = 0
            for key, count in zip(old.keys[old.valid].tolist(), old.counts[old.valid].tolist()):
                assert new.get(key, 0) >= count, (table, key)
                grew += new[key] > count
            assert grew > 0, table

    def test_use_bits_equal_the_bins_of_the_stored_values(self, grown):
        db, pdb, _, rebuilt = grown
        for table, fresh_build in rebuilt.items():
            bdcc = pdb.table(table).bdcc
            for use in bdcc.uses:
                # stored row i is db row row_source[i] (checked column by
                # column above), so that is where its dimension values live
                values = db.resolve_path_values(
                    table, use.path, use.dimension.key, rows=fresh_build.row_source
                )
                assert np.array_equal(
                    gather_use_bits(bdcc.keys, use.mask),
                    use.dimension.bin_of_values(values),
                ), (table, use.dimension.name)


class TestCompactionEdgeCases:
    def test_out_of_domain_insert_clamps(self, fresh):
        """Values beyond a dimension's domain land in its last bin — no
        renumbering, order preserved (the paper's update story)."""
        db, _, pdbs = fresh
        stored = pdbs["bdcc"].table("orders")
        top_zone = stored.bdcc.count_table.keys.max()
        rows = sample_orders_insert(db, np.random.default_rng(3), 16)
        rows["o_orderdate"] = rows["o_orderdate"] + 50_000  # unseen dates
        session = UpdateSession(pdbs["bdcc"], policy=ALWAYS_COMPACT)
        session.insert_rows("orders", rows)
        assert session.commit().compacted_tables() == ["orders"]
        stored = pdbs["bdcc"].table("orders")  # the compacted version
        keys = stored.bdcc.keys
        assert np.all(keys[1:] >= keys[:-1])
        assert stored.bdcc.count_table.keys.max() <= top_zone
        assert stored.bdcc.count_table.total_rows() == db.num_rows("orders")
        assert stored.stored_rows == db.num_rows("orders")

    def test_compacting_a_consolidated_table_keeps_each_row_once(self):
        """Compaction rebuilds from logical rows: the consolidated
        duplicates of the old storage never leak into the new one."""
        db, _, pdbs = _consolidated()
        _insert_orders_and_lineitems(db, pdbs, ALWAYS_COMPACT, orders=8).commit()
        for table, key in (("orders", ("o_orderkey",)), ("lineitem", ("l_orderkey", "l_linenumber"))):
            stored = pdbs["bdcc"].table(table)
            assert stored.stored_rows == stored.logical_rows == db.num_rows(table)
            assert stored.bdcc.count_table.valid.all()
            got = sorted(zip(*(stored.columns[c].tolist() for c in key)))
            want = sorted(zip(*(db.column(table, c).tolist() for c in key)))
            assert got == want, table


class TestOneStorageOrder:
    @pytest.fixture(params=["plain", "pk", "bdcc", "consolidated"])
    def written(self, request):
        """One scheme after a mixed commit (inserts into two tables and
        a delete that hits base rows and the new run) left uncompacted."""
        if request.param == "consolidated":
            db, env, pdbs = _consolidated()
            pdb = pdbs["bdcc"]
        else:
            db, env, pdbs = request.getfixturevalue("fresh")
            pdb = pdbs[request.param]
        session = _insert_orders_and_lineitems(db, {"one": pdb}, NO_COMPACTION)
        session.delete_where("lineitem", col("l_quantity").ge(47.0))
        result = session.commit()
        assert result.deleted["lineitem"] > 0 and not result.compacted_tables()
        return env, pdb

    def test_merged_read_is_the_compacted_storage(self, written):
        """Bit for bit and in order — the read before compaction and the
        table after it order rows through the same function."""
        env, pdb = written
        executor = Executor(pdb, disk=env.disk, costs=env.cost_model)
        for table in ("orders", "lineitem"):
            stored = pdb.table(table)
            assert stored.has_delta
            merged = executor.execute(scan(table)).relation
            stored, _, _ = compact_table(stored, env.disk, env.cost_model)
            assert not stored.has_delta
            for name, values in stored.columns.items():
                read = merged.column(name)
                assert read.dtype == values.dtype, (table, name)
                assert np.array_equal(read, values), (table, name)

    def test_built_tables_are_in_their_own_storage_order(self, physical_dbs):
        for scheme, pdb in physical_dbs.items():
            for table, stored in pdb.stored.items():
                keys = stored.bdcc.keys if stored.bdcc is not None else None
                order = stored.storage_order(keys, stored.columns)
                if scheme == "plain" or not (stored.bdcc or stored.sort_columns):
                    assert order is None, (scheme, table)
                else:
                    assert np.array_equal(order, np.arange(stored.stored_rows)), (
                        scheme, table,
                    )


class TestRebuildReferenceWatchesTheLivePath:
    def _sweep(self, fresh, **kwargs):
        _, env, pdbs = fresh
        return run_differential(
            pdbs, seed=0, num_queries=2, update_rounds=2,
            variants=ablation_variants(full=False),
            disk=env.disk, costs=env.cost_model, policy=ALWAYS_COMPACT, **kwargs,
        )

    def test_compacted_tables_are_held_to_the_full_rebuild(self, fresh):
        report = self._sweep(fresh)
        assert report.ok, report.render()
        assert report.compactions > 0
        assert report.rebuild_checks > 0
        assert report.to_dict()["rebuild_checks"] == report.rebuild_checks
        assert f"{report.rebuild_checks} held to the full rebuild" in report.render()

    def test_a_corrupt_count_fails_the_sweep(self, fresh, monkeypatch):
        merge_entries = CountTable.merge_entries.__func__

        def off_by_one(cls, *args, **kwargs):
            table = merge_entries(cls, *args, **kwargs)
            table.counts[0] += 1
            return table

        monkeypatch.setattr(CountTable, "merge_entries", classmethod(off_by_one))
        report = self._sweep(fresh, fail_fast=True)
        assert not report.ok
        divergence = report.divergences[0]
        assert divergence.variant == "compaction-rebuild-reference"
        assert divergence.scheme == "bdcc"
        assert "count table counts differ" in divergence.detail
        assert "FAIL" in report.render()
