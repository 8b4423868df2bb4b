"""Admission-queue determinism and per-stream metrics accounting.

Fast, unmarked (tier-1): runs the serving engine over a tiny TPC-H
build with generated streams.  Heavier cross-scheme sweeps live in the
``serving``-marked modules."""

import json
import weakref

import pytest

from repro.observe import latency_stats
from repro.observe.registry import REGISTRY
from repro.planner.executor import ExecutionOptions
from repro.serving import (
    EpochSnapshot,
    ServingEngine,
    serving_trace,
)
from repro.serving.streams import GeneratedQueryStream, GeneratedRefreshStream

from .conftest import fresh_schemes

_EPS = 1e-9


def _serve(pdb, *, policy="fifo", workers=4, max_concurrent=None,
           streams=3, queries=3, refresh_rounds=2, seed=11):
    query_streams = [
        GeneratedQueryStream(f"s{i}", pdb.database, seed + 101 * i, queries)
        for i in range(streams)
    ]
    refresh = []
    if refresh_rounds:
        refresh.append(
            GeneratedRefreshStream("rf", pdb.database, seed - 1, refresh_rounds)
        )
    with ServingEngine(
        pdb,
        options=ExecutionOptions(workers=workers),
        policy=policy,
        max_concurrent=max_concurrent,
    ) as engine:
        return engine.serve(query_streams, refresh)


class TestDeterminism:
    @pytest.mark.parametrize("policy", ["fifo", "round-robin", "shortest"])
    def test_same_seed_same_policy_identical_runs(self, policy):
        """Two engines over identical fresh builds produce the same
        interleaving, instants, and charged seconds — fingerprint
        equality pins every event the report records."""
        first = _serve(fresh_schemes(["bdcc"])["bdcc"], policy=policy,
                       max_concurrent=2)
        second = _serve(fresh_schemes(["bdcc"])["bdcc"], policy=policy,
                        max_concurrent=2)
        assert first.fingerprint() == second.fingerprint()
        assert first.events == second.events

    def test_event_log_covers_every_query_and_commit(self, bdcc_pdb):
        report = _serve(bdcc_pdb)
        generates = [e for e in report.events if e["kind"] == "generate"]
        executes = [e for e in report.events if e["kind"] == "execute"]
        commits = [e for e in report.events if e["kind"] == "commit"]
        assert len(generates) == len(executes) == len(report.queries) == 9
        assert len(commits) == len(report.commits) == 2
        # instants never decrease along the log
        seconds = [e["seconds"] for e in report.events]
        assert seconds == sorted(seconds)


class TestAccounting:
    def test_latency_decomposes_and_bounds_hold(self, bdcc_pdb):
        report = _serve(bdcc_pdb, max_concurrent=2)
        assert report.queries
        for record in report.queries:
            assert record.submit_seconds <= record.admit_seconds
            assert record.admit_seconds <= record.finish_seconds
            assert record.latency_seconds == pytest.approx(
                record.queue_seconds + record.service_seconds
            )
            assert record.finish_seconds <= report.makespan_seconds + _EPS

    def test_stream_latencies_sum_consistently_with_makespan(self, bdcc_pdb):
        report = _serve(bdcc_pdb, max_concurrent=2)
        stats = report.stream_stats()
        assert sum(s["queries"] for s in stats.values()) == len(report.queries)
        for s in stats.values():
            assert 0.0 < s["p50_latency_seconds"] <= s["p95_latency_seconds"]
            assert s["p95_latency_seconds"] <= s["max_latency_seconds"]
            assert s["max_latency_seconds"] <= report.makespan_seconds + _EPS
            assert s["qps"] > 0.0

    def test_stream_stats_are_the_shared_latency_aggregate(self, bdcc_pdb):
        """One aggregator: a stream's entry is ``latency_stats`` of its
        latencies (and the mean of its queue delays), and ``to_dict``
        reports exactly these entries."""
        report = _serve(bdcc_pdb, max_concurrent=2)
        stats = report.stream_stats()
        assert list(stats) == sorted({r.stream for r in report.queries})
        for name, entry in stats.items():
            mine = [r for r in report.queries if r.stream == name]
            latency = latency_stats([r.latency_seconds for r in mine])
            assert entry["queries"] == latency["count"] == len(mine)
            assert {
                key: entry[f"{key}_latency_seconds"]
                for key in ("mean", "p50", "p95", "max")
            } == {key: latency[key] for key in ("mean", "p50", "p95", "max")}
            assert entry["mean_queue_seconds"] == latency_stats(
                [r.queue_seconds for r in mine]
            )["mean"]
        assert report.to_dict()["streams"] == stats

    def test_worker_busy_time_bounded_by_pool_capacity(self, bdcc_pdb):
        report = _serve(bdcc_pdb, workers=2)
        busy = report.worker_busy_seconds
        assert 0.0 < busy <= 2 * report.makespan_seconds + _EPS
        assert 0.0 < report.utilization <= 1.0 + _EPS
        # the timeline's slots are exactly the busy intervals
        assert busy == pytest.approx(
            sum(s.end_seconds - s.start_seconds for s in report.timeline)
        )

    def test_charged_seconds_appear_on_the_timeline(self, bdcc_pdb):
        """Each work slot is at least as long as its charged io+cpu
        (disk-stream contention can only stretch the io phase)."""
        report = _serve(bdcc_pdb)
        for slot in report.timeline:
            charged = slot.io_seconds + slot.cpu_seconds
            assert slot.end_seconds - slot.start_seconds >= charged - _EPS

    def test_in_flight_queries_hold_no_fragment_result(self, bdcc_pdb):
        """Between admission and finish a query keeps its fragments'
        metrics, never their results (the merge reads only metrics):
        whenever a query finishes, every relation any fragment has
        produced so far — its own and those of the queries still in
        flight — is already gone, so a round's host memory does not
        depend on how long the simulated clock keeps queries in flight."""
        streams = [
            GeneratedQueryStream(f"s{i}", bdcc_pdb.database, 11 + 101 * i, 3)
            for i in range(3)
        ]
        with ServingEngine(
            bdcc_pdb, options=ExecutionOptions(workers=4), keep_results=False
        ) as engine:
            backend = engine.executor.backend()
            run_stage = backend.execute_fragments
            produced, alive_at_finish = [], []

            def execute_fragments(plan, disk, costs):
                results, metrics = run_stage(plan, disk, costs)
                produced.extend(weakref.ref(r) for r in results.values())
                return results, metrics

            backend.execute_fragments = execute_fragments
            report = engine.serve(
                streams,
                observer=lambda record: alive_at_finish.append(
                    sum(ref() is not None for ref in produced)
                ),
            )
        assert len(produced) >= len(report.queries) == len(alive_at_finish) == 9
        assert max(r.fragment_count for r in report.queries) > 1
        assert alive_at_finish == [0] * 9

    def test_registry_counters_track_the_run(self, bdcc_pdb):
        before_submitted = REGISTRY.get("serving.submitted")
        before_completed = REGISTRY.get("serving.completed")
        report = _serve(bdcc_pdb)
        assert REGISTRY.get("serving.submitted") - before_submitted == len(
            report.queries
        )
        assert REGISTRY.get("serving.completed") - before_completed == len(
            report.queries
        )


class TestSnapshots:
    def test_pinned_epochs_monotone_in_admission_order(self, bdcc_pdb):
        report = _serve(bdcc_pdb, max_concurrent=2)
        ordered = sorted(report.queries, key=lambda r: r.admit_seconds)
        epochs = [r.snapshot.epoch for r in ordered]
        assert epochs == sorted(epochs)
        # with 2 commits the database epoch moved at least twice
        assert report.commits
        final = EpochSnapshot.pin(bdcc_pdb)
        assert final.epoch >= max(epochs)

    def test_snapshot_round_trips_as_dict(self, bdcc_pdb):
        snapshot = EpochSnapshot.pin(bdcc_pdb)
        assert snapshot.scheme == "bdcc"
        assert set(snapshot.as_dict()) == set(bdcc_pdb.stored)
        assert snapshot.matches(bdcc_pdb)
        assert snapshot.divergence(bdcc_pdb) == []


class TestOutputs:
    def test_report_to_dict_is_json_serializable(self, bdcc_pdb):
        report = _serve(bdcc_pdb)
        document = json.loads(json.dumps(report.to_dict(), sort_keys=True))
        assert document["queries"] == 9
        assert document["commits"] == 2
        assert document["queries_per_second"] > 0
        assert set(document["streams"]) == {"s0", "s1", "s2"}

    def test_serving_trace_writes_valid_trace_events(self, bdcc_pdb, tmp_path):
        report = _serve(bdcc_pdb)
        path = tmp_path / "serving_trace.json"
        serving_trace(report).write(str(path))
        trace = json.loads(path.read_text())
        names = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e.get("ph") == "M" and e.get("name") == "process_name"
        }
        assert "serving workers (bdcc)" in names
        assert "streams (bdcc)" in names

    def test_render_mentions_every_stream(self, bdcc_pdb):
        text = _serve(bdcc_pdb).render()
        for name in ("s0", "s1", "s2"):
            assert name in text
        assert "refresh:" in text


class TestValidation:
    def test_duplicate_stream_names_rejected(self, bdcc_pdb):
        streams = [
            GeneratedQueryStream("dup", bdcc_pdb.database, 1, 1),
            GeneratedQueryStream("dup", bdcc_pdb.database, 2, 1),
        ]
        with ServingEngine(bdcc_pdb) as engine:
            with pytest.raises(ValueError, match="unique"):
                engine.serve(streams)

    def test_max_concurrent_must_be_positive(self, bdcc_pdb):
        with pytest.raises(ValueError, match="max_concurrent"):
            ServingEngine(bdcc_pdb, max_concurrent=0)
