"""Delta-store correctness: base ∪ delta − deleted == the logical db."""

import numpy as np
import pytest

from repro.core.count_table import CountTable
from repro.errors import CommitAborted
from repro.execution.expressions import col
from repro.execution.aggregate import AggSpec
from repro.planner.executor import ExecutionOptions, Executor
from repro.planner.logical import scan
from repro.storage.minmax import MinMaxIndex
from repro.updates import CompactionPolicy, UpdateSession
from repro.workload.differential import normalized_rows
from repro.workload.updates import UpdateGenerator

from .conftest import sample_lineitem_insert, sample_orders_insert

NO_COMPACTION = CompactionPolicy(max_delta_fraction=None)


def _table_multiset(pdb, env, table):
    """The engine's view of a whole table, as a canonical row multiset."""
    result = Executor(pdb, disk=env.disk, costs=env.cost_model).execute(scan(table))
    names = sorted(result.relation.column_names)
    return normalized_rows(result.relation.columns, names), names


def _db_multiset(db, table, names):
    return normalized_rows(db.table_data(table), names)


def _commit_mixed(db, pdbs, policy=NO_COMPACTION):
    rng = np.random.default_rng(11)
    session = UpdateSession(*pdbs.values(), policy=policy)
    orders = sample_orders_insert(db, rng, 40)
    session.insert_rows("orders", orders)
    session.insert_rows(
        "lineitem", sample_lineitem_insert(db, rng, orders["o_orderkey"])
    )
    session.delete_where("lineitem", col("l_quantity").ge(47.0))
    return session.commit()


class TestMergeOnRead:
    def test_every_scheme_equals_the_logical_database(self, fresh):
        db, env, pdbs = fresh
        result = _commit_mixed(db, pdbs)
        assert result.inserted == {"orders": 40, "lineitem": 120}
        assert result.deleted["lineitem"] > 0
        for table in ("orders", "lineitem"):
            for name, pdb in pdbs.items():
                got, names = _table_multiset(pdb, env, table)
                assert got == _db_multiset(db, table, names), (name, table)

    def test_pk_scan_stays_sorted_and_merge_joins_survive(self, fresh):
        db, env, pdbs = fresh
        _commit_mixed(db, pdbs)
        executor = Executor(pdbs["pk"], disk=env.disk, costs=env.cost_model)
        result = executor.execute(scan("orders"))
        keys = result.relation.column("o_orderkey")
        assert np.all(np.diff(keys) >= 0), "merged PK stream must stay key-sorted"
        # the merge join over the PK order must still be planned
        plan = scan("orders").join(scan("lineitem"), on=[("o_orderkey", "l_orderkey")])
        pplan = executor.lower(plan)
        assert any(op.kind == "MergeJoin" for op in pplan.operators())

    def test_bdcc_sandwich_strategies_survive_deltas(self, fresh):
        db, env, pdbs = fresh
        _commit_mixed(db, pdbs)
        executor = Executor(pdbs["bdcc"], disk=env.disk, costs=env.cost_model)
        plan = (
            scan("orders")
            .join(scan("lineitem"), on=[("o_orderkey", "l_orderkey")])
            .groupby(("o_orderpriority",), [AggSpec("s", "sum", col("l_extendedprice"))])
        )
        pplan = executor.lower(plan)
        assert any(op.kind == "DeltaMergeScan" for op in pplan.operators())
        assert any(op.kind == "SandwichJoin" for op in pplan.operators())
        result = executor.execute(plan)
        assert result.metrics.delta_rows_scanned > 0

    def test_deletes_alone_mask_base_rows(self, fresh):
        db, env, pdbs = fresh
        session = UpdateSession(*pdbs.values(), policy=NO_COMPACTION)
        session.delete_where("lineitem", col("l_discount").ge(0.08))
        result = session.commit()
        assert result.inserted == {}
        assert result.deleted["lineitem"] > 0
        for name, pdb in pdbs.items():
            got, names = _table_multiset(pdb, env, "lineitem")
            assert got == _db_multiset(db, "lineitem", names), name

    def test_deletes_only_pk_scan_keeps_its_merge_charges(self, fresh):
        """A PK table whose only change is deleted base rows merges no
        delta row, yet its scan is still a delta merge and still reads
        the undemanded sort columns over every selected base row.  The
        charges are pinned: moving them must be a deliberate change."""
        _, env, pdbs = fresh
        session = UpdateSession(pdbs["pk"], policy=NO_COMPACTION)
        session.delete_where("lineitem", col("l_discount").ge(0.08))
        session.commit()
        plan = scan("lineitem", predicate=col("l_quantity").lt(24.0)).groupby(
            (), [AggSpec("revenue", "sum", col("l_extendedprice"))]
        )
        executor = Executor(pdbs["pk"], disk=env.disk, costs=env.cost_model)
        scan_op = executor.lower(plan).root.input
        assert scan_op.delta_selected == ()
        assert "+0/0 delta rows (0 runs" in scan_op.rationale
        result = executor.execute(plan)
        [actuals] = [a for a in result.metrics.operators.values() if a.kind.endswith("Scan")]
        assert actuals.kind == "DeltaMergeScan"
        assert result.metrics.delta_rows_scanned == 0
        assert (actuals.io_bytes, actuals.io_accesses, actuals.cpu_seconds) == (
            299528.0, 4, 6.153e-05,
        )

    def test_out_of_domain_inserts_clamp_into_existing_zones(self, fresh):
        db, env, pdbs = fresh
        rng = np.random.default_rng(3)
        rows = sample_orders_insert(db, rng, 16)
        span = rows["o_orderdate"].max() - rows["o_orderdate"].min()
        rows["o_orderdate"] = rows["o_orderdate"] + span + 5000  # unseen dates
        session = UpdateSession(pdbs["bdcc"], policy=NO_COMPACTION)
        session.insert_rows("orders", rows)
        session.commit()
        stored = pdbs["bdcc"].table("orders")
        run = stored.delta.runs[-1]
        assert np.all(np.diff(run.keys.astype(np.int64)) >= 0)
        # zone tags land inside the existing count-table key domain
        shift = np.uint64(stored.bdcc.total_bits - stored.bdcc.granularity)
        assert (run.keys >> shift).max() <= stored.bdcc.count_table.keys.max()
        got, names = _table_multiset(pdbs["bdcc"], env, "orders")
        assert got == _db_multiset(db, "orders", names)


class TestRandomizedBatches:
    @pytest.mark.fast
    def test_seeded_rounds_stay_equal_to_reference(self, fresh):
        """base ∪ delta − deleted equals the naive reference bit-for-bit
        after seeded random update batches, under every scheme."""
        db, env, pdbs = fresh
        generator = UpdateGenerator(db)
        session = UpdateSession(*pdbs.values(), policy=NO_COMPACTION)
        touched = set()
        for round_index in range(4):
            batch = generator.generate(seed=5, index=round_index)
            for table, rows in batch.inserts:
                session.insert_rows(table, rows)
                touched.add(table)
            for table, predicate in batch.deletes:
                session.delete_where(table, predicate)
                touched.add(table)
            session.commit()
            for table in sorted(touched):
                for name, pdb in pdbs.items():
                    got, names = _table_multiset(pdb, env, table)
                    assert got == _db_multiset(db, table, names), (
                        round_index, name, table,
                    )


class TestCompaction:
    def test_threshold_folds_deltas_and_preserves_results(self, fresh):
        db, env, pdbs = fresh
        policy = CompactionPolicy(max_delta_fraction=0.01, min_delta_rows=1)
        before = {}
        for name, pdb in pdbs.items():
            ex = Executor(pdb, disk=env.disk, costs=env.cost_model)
            before[name] = ex.execute(scan("lineitem")).metrics.total_seconds
        result = _commit_mixed(db, pdbs, policy=policy)
        assert result.compacted_tables() == ["lineitem", "orders"]
        metrics = result.scheme_metrics["bdcc"]
        assert metrics.compaction_seconds > 0.0
        for table in ("orders", "lineitem"):
            for name, pdb in pdbs.items():
                stored = pdb.table(table)
                # compaction is observable: delta rows drop to zero, the
                # epoch moved past the commit's own bump
                assert stored.delta.live_delta_rows == 0
                assert not stored.delta.is_dirty
                assert stored.epoch == 2  # commit bump + compaction bump
                got, names = _table_multiset(pdb, env, table)
                assert got == _db_multiset(db, table, names), (name, table)

    def test_compacted_bdcc_count_table_matches_full_rebuild(self, fresh):
        db, env, pdbs = fresh
        policy = CompactionPolicy(max_delta_fraction=0.01, min_delta_rows=1)
        _commit_mixed(db, pdbs, policy=policy)
        bdcc = pdbs["bdcc"].table("lineitem").bdcc
        rebuilt = CountTable.from_sorted_keys(
            bdcc.keys, bdcc.total_bits, bdcc.granularity
        )
        assert np.array_equal(bdcc.count_table.keys, rebuilt.keys)
        assert np.array_equal(bdcc.count_table.counts, rebuilt.counts)
        assert np.array_equal(bdcc.count_table.offsets, rebuilt.offsets)
        assert bdcc.count_table.valid.all()
        assert bdcc.logical_rows == db.num_rows("lineitem")

    def test_zone_maps_rebuild_over_the_new_storage(self, fresh):
        db, env, pdbs = fresh
        stored = pdbs["plain"].table("lineitem")
        held = stored.minmax_for("l_quantity")
        policy = CompactionPolicy(max_delta_fraction=0.01, min_delta_rows=1)
        _commit_mixed(db, pdbs, policy=policy)
        # the held version is unchanged, zone maps included ...
        assert stored.minmax_for("l_quantity") is held
        # ... and the compacted one derives its own over its own storage
        compacted = pdbs["plain"].table("lineitem")
        assert compacted is not stored
        index = compacted.minmax_for("l_quantity")
        assert index is not held and compacted.minmax_for("l_quantity") is index
        rebuilt = MinMaxIndex.build(compacted.columns["l_quantity"], held.block_rows)
        assert index.block_rows == rebuilt.block_rows
        np.testing.assert_array_equal(index.mins, rebuilt.mins)
        np.testing.assert_array_equal(index.maxs, rebuilt.maxs)

    def test_a_plan_lowered_before_a_commit_reads_its_own_version(self, fresh):
        """A lowered plan holds the table versions it was lowered over:
        run after a compacting commit, it still reads its version's
        zone maps and delta selection, and returns what it returned
        before the commit."""
        db, env, pdbs = fresh
        pdb = pdbs["pk"]
        _commit_mixed(db, pdbs)  # a dirty LINEITEM: one run, deleted rows
        keys = db.table_data("lineitem")["l_orderkey"]
        plan = scan("lineitem", predicate=col("l_orderkey").le(int(np.median(keys))))
        executor = Executor(pdb, disk=env.disk, costs=env.cost_model)
        pplan = executor.lower(plan)
        (op,) = [op for op in pplan.operators() if op.kind == "DeltaMergeScan"]
        held = op.stored
        assert [c for c, _, _ in op.minmax_ranges] == ["l_orderkey"]
        index = held.minmax_for("l_orderkey")
        delta_selected = op.delta_selected
        assert len(delta_selected) == len(held.delta.runs) == 1
        before = executor.run(pplan)

        policy = CompactionPolicy(max_delta_fraction=0.0001, min_delta_rows=1)
        _commit_mixed(db, pdbs, policy=policy)
        current = pdb.table("lineitem")
        assert current is not held and not current.has_delta
        assert current.minmax_for("l_orderkey") is not index
        assert op.stored is held and held.minmax_for("l_orderkey") is index
        assert op.delta_selected is delta_selected and len(held.delta.runs) == 1
        after = Executor(pdb, disk=env.disk, costs=env.cost_model).run(pplan)
        names = sorted(before.relation.column_names)
        assert normalized_rows(after.relation.columns, names) == normalized_rows(
            before.relation.columns, names
        )
        assert after.metrics.total_seconds == before.metrics.total_seconds


class TestSessionValidation:
    def test_sessions_reject_mismatched_databases(self, fresh):
        import repro.tpch as tpch

        from .conftest import UPDATE_SF

        _, _, pdbs = fresh
        other = tpch.generate(scale_factor=UPDATE_SF, seed=99)
        from repro.tpch.harness import build_schemes

        other_pdbs = build_schemes(other, include=("plain",))
        with pytest.raises(ValueError):
            UpdateSession(pdbs["plain"], other_pdbs["plain"])

    def test_invalid_batches_rejected_before_anything_applies(self, fresh):
        """Commits are all or nothing: a bad batch aborts the whole
        commit without touching the logical db, the delta stores or the
        epochs — even when an earlier batch was valid."""
        db, _, pdbs = fresh
        rng = np.random.default_rng(0)
        session = UpdateSession(*pdbs.values())
        orders_before = db.num_rows("orders")
        session.insert_rows("orders", sample_orders_insert(db, rng, 5))
        session.insert_rows("region", {"r_regionkey": np.array([9])})  # incomplete
        with pytest.raises(CommitAborted) as aborted:
            session.commit()
        assert isinstance(aborted.value.__cause__, ValueError)
        assert "insert missing columns" in str(aborted.value.__cause__)
        assert db.num_rows("orders") == orders_before
        for pdb in pdbs.values():
            assert pdb.epoch == 0
            assert not pdb.table("orders").has_delta

    def test_delete_predicates_validated_against_the_schema(self, fresh):
        _, _, pdbs = fresh
        session = UpdateSession(pdbs["plain"])
        session.delete_where("orders", col("no_such_column").ge(1))
        with pytest.raises(CommitAborted) as aborted:
            session.commit()
        assert isinstance(aborted.value.__cause__, ValueError)
        assert "unknown columns" in str(aborted.value.__cause__)

    def test_empty_commit_is_a_noop(self, fresh):
        _, _, pdbs = fresh
        session = UpdateSession(*pdbs.values())
        result = session.commit()
        assert result.is_empty
        assert all(epoch == 0 for epoch in result.epochs.values())

    def test_delete_matching_nothing_keeps_epochs_and_caches(self, fresh):
        """A predicate that removes zero rows must not mark anything,
        bump any epoch, or invalidate cached plans."""
        _, env, pdbs = fresh
        executor = Executor(pdbs["bdcc"], disk=env.disk, costs=env.cost_model)
        plan = scan("lineitem")
        baseline = executor.lower(plan)
        session = UpdateSession(*pdbs.values())
        session.delete_where("lineitem", col("l_quantity").ge(1e9))
        result = session.commit()
        assert result.deleted == {}
        assert result.is_empty
        for pdb in pdbs.values():
            assert pdb.epoch == 0
            assert not pdb.table("lineitem").has_delta
        assert executor.lower(plan) is baseline
