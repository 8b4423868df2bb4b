"""Concurrent-stream differential stress (``serving``-marked).

N streams through the serving layer must produce, per stream, exactly
the results of serial execution — bit-identical where the plan
contracts promise order, multiset-identical where they allow
reordering/re-aggregation — on both the simulated and the real-process
backends, across worker counts and admission policies."""

import pytest

from repro.planner.executor import ExecutionOptions
from repro.serving import run_serving_differential
from repro.tpch.environment import make_environment

from .conftest import SERVING_SF, fresh_schemes

pytestmark = pytest.mark.serving

ENV = make_environment(SERVING_SF)


def _run(*, workers, backend="simulated", policy="fifo", seed=0,
         num_streams=3, queries_per_stream=4, refresh_rounds=0,
         max_concurrent=None, schemes=None):
    return run_serving_differential(
        fresh_schemes,
        seed=seed,
        num_streams=num_streams,
        queries_per_stream=queries_per_stream,
        refresh_rounds=refresh_rounds,
        policy=policy,
        options=ExecutionOptions(workers=workers, backend=backend),
        max_concurrent=max_concurrent,
        disk=ENV.disk,
        costs=ENV.cost_model,
        schemes=schemes,
    )


class TestSimulatedBackend:
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("policy", ["fifo", "round-robin", "shortest"])
    def test_streams_match_serial_across_policies(self, workers, policy):
        report = _run(workers=workers, policy=policy, max_concurrent=2)
        assert report.ok, "\n".join(d.render() for d in report.divergences)
        assert report.queries_checked == 3 * 4 * 3  # streams x queries x schemes

    def test_single_worker_degenerates_to_serial(self):
        """workers=1 forces serial plans through the same admission
        machinery; the differential must still close."""
        report = _run(workers=1, num_streams=2, queries_per_stream=3)
        assert report.ok, "\n".join(d.render() for d in report.divergences)

    def test_oversubscribed_admission_queue(self):
        """More streams than multiprogramming slots: heavy queueing,
        same results."""
        report = _run(
            workers=2, num_streams=5, queries_per_stream=2,
            max_concurrent=1, schemes=["bdcc"],
        )
        assert report.ok, "\n".join(d.render() for d in report.divergences)
        assert report.queries_checked == 5 * 2


class TestProcessBackend:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_streams_match_serial_on_real_processes(self, workers):
        """The real-process backend computes fragments in worker
        processes forked over the stored tables; the serving layer must
        still hand every stream exactly its serial results."""
        report = _run(
            workers=workers, backend="process",
            num_streams=2, queries_per_stream=3, schemes=["bdcc"],
        )
        assert report.ok, "\n".join(d.render() for d in report.divergences)
        assert report.queries_checked == 2 * 3

    def test_with_concurrent_refresh_commits(self):
        report = _run(
            workers=2, backend="process", policy="round-robin",
            num_streams=2, queries_per_stream=2, refresh_rounds=2,
            schemes=["bdcc"],
        )
        assert report.ok, "\n".join(d.render() for d in report.divergences)
        assert report.commits_replayed == 2
