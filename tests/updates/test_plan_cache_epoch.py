"""Regression: plan caches are keyed on the update epoch.

A cached lowering (and fragment plan) must be invalidated by a commit —
which changes what a scan has to read — but *not* by a plain read, which
would defeat the cache.
"""

import numpy as np

from repro.execution.operators import PhysicalScan
from repro.planner.executor import ExecutionOptions, Executor
from repro.planner.logical import scan
from repro.updates import CompactionPolicy, UpdateSession

from .conftest import sample_orders_insert

NO_COMPACTION = CompactionPolicy(max_delta_fraction=None)


def _commit_some_orders(db, pdbs, seed=0):
    rng = np.random.default_rng(seed)
    session = UpdateSession(*pdbs.values(), policy=NO_COMPACTION)
    session.insert_rows("orders", sample_orders_insert(db, rng, 12))
    return session.commit()


class TestPlanCacheEpoch:
    def test_reads_hit_commits_invalidate(self, fresh):
        db, env, pdbs = fresh
        executor = Executor(pdbs["bdcc"], disk=env.disk, costs=env.cost_model)
        plan = scan("orders")
        baseline = executor.lower(plan)
        executor.execute(plan)  # a read must not bust the cache
        assert executor.lower(plan) is baseline
        assert isinstance(baseline.root, PhysicalScan)
        assert baseline.root.delta_selected is None

        _commit_some_orders(db, pdbs)
        refreshed = executor.lower(plan)
        assert refreshed is not baseline, "commit must invalidate the cached plan"
        assert refreshed.root.delta_selected is not None
        # the re-lowered plan is cached again until the next commit
        assert executor.lower(plan) is refreshed
        _commit_some_orders(db, pdbs, seed=1)
        assert executor.lower(plan) is not refreshed

    def test_fresh_plan_sees_the_committed_rows(self, fresh):
        db, env, pdbs = fresh
        executor = Executor(pdbs["plain"], disk=env.disk, costs=env.cost_model)
        plan = scan("orders")
        before = executor.execute(plan).relation.num_rows
        _commit_some_orders(db, pdbs)
        after = executor.execute(plan).relation.num_rows
        assert after == before + 12

    def test_fragment_cache_keys_on_the_epoch_too(self, fresh):
        db, env, pdbs = fresh
        executor = Executor(
            pdbs["bdcc"], disk=env.disk, costs=env.cost_model,
            options=ExecutionOptions(workers=4, min_partition_rows=64),
        )
        plan = scan("lineitem")
        pplan = executor.lower(plan)
        parallel = executor.parallel_plan(pplan)
        assert executor.parallel_plan(pplan) is parallel
        _commit_some_orders(db, pdbs)
        new_pplan = executor.lower(plan)
        assert new_pplan is not pplan
        assert executor.parallel_plan(new_pplan) is not parallel

    def test_every_scheme_epoch_advances_once_per_commit(self, fresh):
        db, _, pdbs = fresh
        epochs = {name: pdb.epoch for name, pdb in pdbs.items()}
        result = _commit_some_orders(db, pdbs)
        for name, pdb in pdbs.items():
            assert pdb.epoch == epochs[name] + 1
            assert result.epochs[name] == pdb.epoch
