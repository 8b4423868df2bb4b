"""Snapshot-isolation property tests (``serving``-marked sweep).

Seeded rounds where refresh commits and background compactions
interleave arbitrarily with in-flight queries across Plain/PK/BDCC:
every served query's result must be bit-identical to running it alone
against the pinned epoch snapshot, and (round two) consistent with the
SQL reference — the update-differential oracle's machinery
reused end to end."""

import pytest

from repro.planner.executor import ExecutionOptions
from repro.serving import run_serving_differential
from repro.tpch.environment import make_environment
from repro.updates.compaction import CompactionPolicy
from repro.workload.differential import run_differential

from .conftest import SERVING_SF, fresh_schemes

pytestmark = pytest.mark.serving

ENV = make_environment(SERVING_SF)


def _assert_clean(report):
    detail = "\n".join(d.render() for d in report.divergences)
    assert report.ok, f"serving divergences:\n{detail}"
    assert report.queries_checked > 0
    assert report.commits_replayed > 0


class TestSnapshotIsolation:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("policy", ["fifo", "round-robin", "shortest"])
    def test_refresh_interleaving_never_leaks_into_readers(self, seed, policy):
        """Across all three schemes, commits landing between a query's
        submission and admission (and compactions after them) never
        change what the query reads."""
        report = run_serving_differential(
            fresh_schemes,
            seed=seed,
            num_streams=3,
            queries_per_stream=3,
            refresh_rounds=3,
            policy=policy,
            options=ExecutionOptions(workers=4),
            max_concurrent=2,
            disk=ENV.disk,
            costs=ENV.cost_model,
        )
        _assert_clean(report)
        assert report.queries_checked == 3 * 3 * 3  # streams x queries x schemes

    def test_reference_oracle_agrees_with_served_results(self):
        """Every served result additionally matches the SQL reference
        evaluated at the pinned state — closing the loop with the
        update-differential's comparison machinery."""
        report = run_serving_differential(
            fresh_schemes,
            seed=5,
            num_streams=2,
            queries_per_stream=3,
            refresh_rounds=2,
            policy="round-robin",
            options=ExecutionOptions(workers=4),
            disk=ENV.disk,
            costs=ENV.cost_model,
            check_reference=True,
        )
        _assert_clean(report)
        assert report.reference_checks == report.queries_checked

    def test_eager_compaction_interleaves_harmlessly(self):
        """An aggressive compaction policy (fold on every commit) keeps
        background work on the timeline without perturbing any reader:
        the differential still closes and compaction seconds appear."""
        policy = CompactionPolicy(max_delta_fraction=0.0)

        def build():
            return fresh_schemes()

        # route the eager policy through the engine by serving directly
        from repro.serving import ServingEngine
        from repro.serving.streams import (
            GeneratedQueryStream,
            GeneratedRefreshStream,
        )

        pdb = build()["bdcc"]
        with ServingEngine(
            pdb,
            disk=ENV.disk,
            costs=ENV.cost_model,
            options=ExecutionOptions(workers=4),
            policy="fifo",
            compaction_policy=policy,
        ) as engine:
            report = engine.serve(
                [GeneratedQueryStream("s0", pdb.database, 3, 4)],
                [GeneratedRefreshStream("rf", pdb.database, 9, 4)],
            )
        assert len(report.commits) == 4
        assert any(c.compaction_seconds > 0 for c in report.commits)
        compactions = [s for s in report.timeline if s.kind == "compaction"]
        assert compactions, "eager compaction never hit the timeline"
        # compaction blocks nothing: the refresh stream still committed
        # all rounds and every query finished
        assert len(report.queries) == 4

    def test_update_differential_oracle_baseline(self):
        """The reused oracle itself stays green over the same schemes —
        anchoring the serving results to the update subsystem's own
        correctness sweep."""
        report = run_differential(
            fresh_schemes(),
            seed=4,
            num_queries=4,
            update_rounds=2,
            variants={"default": ExecutionOptions()},
            disk=ENV.disk,
            costs=ENV.cost_model,
        )
        assert report.ok, report.render()
