"""The update-aware differential sweep (heavy; own CI job via -m updates).

Seeded random insert/delete batches are committed between generated
queries; every query must agree with the SQL reference under all three
schemes × the full ablation grid × workers 1/2/4 (parallel bit-for-bit
against serial), after every commit.  Every BDCC table a commit
compacts is additionally held to the full count-table rebuild.
"""

import pytest

from repro.tpch.environment import make_environment
from repro.tpch.harness import build_schemes
from repro.updates import CompactionPolicy
from repro.workload.differential import ablation_variants, run_differential
from repro import tpch

pytestmark = pytest.mark.updates


def _fresh(sf=0.004, seed=7):
    db = tpch.generate(scale_factor=sf, seed=seed)
    env = make_environment(sf)
    return db, env, build_schemes(db, env)


class TestUpdateDifferential:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_full_grid_stays_divergence_free(self, seed):
        _, env, pdbs = _fresh()
        report = run_differential(
            pdbs,
            seed=seed,
            num_queries=20,
            update_rounds=5,
            disk=env.disk,
            costs=env.cost_model,
            policy=CompactionPolicy(max_delta_fraction=None),
        )
        assert report.ok, report.render()
        assert report.commits == 5
        assert report.rows_inserted > 0
        assert report.strategies.get("DeltaMergeScan", 0) > 0

    def test_aggressive_compaction_changes_nothing(self):
        """With compaction firing on every commit the results must still
        match the reference — and plans go back to plain scans."""
        _, env, pdbs = _fresh()
        report = run_differential(
            pdbs,
            seed=2,
            num_queries=12,
            update_rounds=4,
            disk=env.disk,
            costs=env.cost_model,
            policy=CompactionPolicy(max_delta_fraction=0.0001, min_delta_rows=1),
        )
        assert report.ok, report.render()
        assert report.compactions > 0

    def test_default_variant_only_smoke_with_workers(self):
        _, env, pdbs = _fresh(sf=0.002)
        from repro.workload.differential import worker_count_variants

        variants = ablation_variants(full=False)
        variants.update(worker_count_variants([2, 4]))
        report = run_differential(
            pdbs,
            seed=3,
            num_queries=9,
            update_rounds=3,
            variants=variants,
            disk=env.disk,
            costs=env.cost_model,
        )
        assert report.ok, report.render()
