"""TPC-H refresh streams: RF1/RF2 end to end, plus the CLI mode."""

import numpy as np
import pytest

from repro.observe.registry import REGISTRY
from repro.tpch.cli import main
from repro.tpch.refresh import (
    generate_rf1,
    refresh_pair_size,
    rf2_order_keys,
    run_refresh_suite,
    stage_rf2,
)
from repro.updates import CompactionPolicy, UpdateSession


class TestRefreshFunctions:
    def test_rf1_rows_satisfy_the_schema_and_keys_are_fresh(self, fresh):
        db, _, _ = fresh
        rng = np.random.default_rng(1)
        orders_rows, lineitem_rows = generate_rf1(db, rng, 12)
        assert set(orders_rows) == set(db.schema.table("orders").column_names)
        assert set(lineitem_rows) == set(db.schema.table("lineitem").column_names)
        assert orders_rows["o_orderkey"].min() > db.table_data("orders")["o_orderkey"].max()
        assert set(lineitem_rows["l_orderkey"]) <= set(orders_rows["o_orderkey"])
        # the composite (partkey, suppkey) FK holds
        ps = db.table_data("partsupp")
        pairs = set(zip(ps["ps_partkey"].tolist(), ps["ps_suppkey"].tolist()))
        new_pairs = set(
            zip(lineitem_rows["l_partkey"].tolist(), lineitem_rows["l_suppkey"].tolist())
        )
        assert new_pairs <= pairs

    def test_pair_size_scales_with_sf(self):
        assert refresh_pair_size(1.0) == 1500
        assert refresh_pair_size(0.001) == 8  # floored for simulator scales

    def test_rf2_samples_existing_keys_without_replacement(self, fresh):
        db, _, _ = fresh
        keys = rf2_order_keys(db, np.random.default_rng(2), 10)
        assert len(keys) == len(set(keys.tolist())) == 10
        assert set(keys.tolist()) <= set(db.table_data("orders")["o_orderkey"].tolist())


def test_a_refresh_pair_copies_its_batch_and_bitmaps_not_the_tables(fresh):
    db, _, pdbs = fresh
    rng = np.random.default_rng(4)
    session = UpdateSession(*pdbs.values(), policy=CompactionPolicy(max_delta_fraction=None))
    batches = dict(zip(("orders", "lineitem"), generate_rf1(db, rng, 12)))
    for table, rows in batches.items():
        session.insert_rows(table, rows)
    stage_rf2(session, db, rng, 12)
    copied = REGISTRY.get("updates.logical_bytes_copied")
    session.commit()
    copied = REGISTRY.get("updates.logical_bytes_copied") - copied

    batch = sum(v.nbytes for rows in batches.values() for v in rows.values())
    # at most one bitmap per piece of each touched table: its base and
    # the run this commit appended
    bitmaps = sum(len(deleted) for t in batches for deleted in db.version(t).deleted)
    assert batch <= copied <= batch + bitmaps


class TestRefreshSuite:
    def test_two_pairs_report_per_scheme_cost_and_stay_consistent(self, fresh):
        db, env, pdbs = fresh
        orders_before = db.num_rows("orders")
        result = run_refresh_suite(pdbs, env, pairs=2, seed=3)
        assert result.rows_inserted > 0 and result.rows_deleted > 0
        assert {m.scheme for m in result.measurements} == set(pdbs)
        for m in result.measurements:
            assert m.rf1_seconds > 0.0
            assert m.rf2_seconds > 0.0
            assert set(m.query_seconds) == {"Q01", "Q06"}
            assert all(v > 0.0 for v in m.query_seconds.values())
        # each pair inserts and deletes the same number of orders, so the
        # order count is back where it started
        assert db.num_rows("orders") == orders_before
        text = result.render()
        assert "RF1 ms" in text and "RF2 ms" in text
        assert "refreshes/s" in text

    def test_queries_agree_across_schemes_after_refreshes(self, fresh):
        db, env, pdbs = fresh
        run_refresh_suite(pdbs, env, pairs=1, seed=5)
        from repro.planner.executor import Executor
        from repro.tpch.queries import QUERIES
        from repro.tpch.runner import QueryRunner

        rows = {}
        for name, pdb in pdbs.items():
            runner = QueryRunner(
                Executor(pdb, disk=env.disk, costs=env.cost_model)
            )
            result = QUERIES["Q01"](runner)
            rows[name] = [
                tuple(round(v, 4) if isinstance(v, float) else v for v in row)
                for row in result.rows
            ]
        assert rows["plain"] == rows["pk"] == rows["bdcc"]


class TestRefreshCli:
    def test_cli_refresh_mode_prints_the_table(self, capsys):
        code = main(["--refresh", "2", "--sf", "0.002", "--seed", "11"])
        captured = capsys.readouterr()
        assert code == 0
        assert "TPC-H refresh streams" in captured.out
        assert "RF1 ms" in captured.out
        assert "refreshes/s" in captured.out
