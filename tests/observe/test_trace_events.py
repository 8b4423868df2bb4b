"""Chrome trace-event export: lanes, slices, flows, and the validator
that gates the CI ``observe`` job."""

import json

import pytest

from repro.observe import TraceBuilder, validate_trace, validate_trace_events
from repro.planner.executor import ExecutionOptions
from repro.tpch.queries import QUERIES
from repro.tpch.runner import run_query


def _metrics(pdb, environment, qname, workers=4):
    _, metrics = run_query(
        pdb, QUERIES[qname], disk=environment.disk,
        costs=environment.cost_model,
        options=ExecutionOptions(workers=workers, min_partition_rows=256),
    )
    return metrics


class TestTraceBuilder:
    def test_parallel_execution_renders_lanes_and_slices(self, bdcc_db, environment):
        metrics = _metrics(bdcc_db, environment, "Q01")
        assert metrics.workers > 1 and len(metrics.fragments) > 1
        builder = TraceBuilder()
        builder.add_execution("Q01/bdcc", metrics)
        events = builder.events
        assert validate_trace_events(events) == []

        processes = [e for e in events if e["ph"] == "M" and e["name"] == "process_name"]
        assert [p["args"]["name"] for p in processes] == ["simulated"]

        query_slices = [e for e in events if e["ph"] == "X" and e.get("cat") == "query"]
        assert len(query_slices) == 1 and query_slices[0]["tid"] == 0

        fragment_slices = [
            e for e in events if e["ph"] == "X" and e.get("cat") == "fragment"
        ]
        assert len(fragment_slices) == len(metrics.fragments)
        by_index = {f.index: f for f in metrics.fragments}
        for e in fragment_slices:
            # slice names are "<label> f<index> [<role>]"
            index = int(e["name"].rsplit(" f", 1)[1].split(" ")[0])
            assert e["tid"] == max(by_index[index].worker, 0) + 1

    def test_flows_match_depends_on_edges(self, bdcc_db, environment):
        metrics = _metrics(bdcc_db, environment, "Q01")
        edges = sum(len(f.depends_on) for f in metrics.fragments)
        assert edges > 0
        builder = TraceBuilder()
        builder.add_execution("Q01", metrics)
        starts = [e for e in builder.events if e["ph"] == "s"]
        finishes = [e for e in builder.events if e["ph"] == "f"]
        assert len(starts) == edges and len(finishes) == edges
        # arrows never point backwards in time
        by_id = {e["id"]: e for e in starts}
        for finish in finishes:
            assert finish["ts"] >= by_id[finish["id"]]["ts"]

    def test_io_subslices_report_contention_stretch(self, bdcc_db, environment):
        metrics = _metrics(bdcc_db, environment, "Q01")
        builder = TraceBuilder()
        builder.add_execution("Q01", metrics)
        io_slices = [e for e in builder.events if e.get("cat") == "io"]
        with_io = [
            f for f in metrics.fragments if f.io_end_seconds > f.start_seconds
        ]
        assert len(io_slices) == len(with_io)
        for e in io_slices:
            assert e["args"]["stretch_seconds"] >= 0.0

    def test_multiple_executions_get_shifted_windows(self, bdcc_db, environment):
        metrics = _metrics(bdcc_db, environment, "Q06")
        builder = TraceBuilder()
        builder.add_execution("first", metrics)
        builder.add_execution("second", metrics)
        query_slices = [
            e for e in builder.events if e["ph"] == "X" and e.get("cat") == "query"
        ]
        first, second = query_slices
        assert second["ts"] >= first["ts"] + first["dur"]
        assert validate_trace_events(builder.events) == []

    def test_write_produces_a_valid_document(self, bdcc_db, environment, tmp_path):
        metrics = _metrics(bdcc_db, environment, "Q06")
        builder = TraceBuilder()
        builder.add_execution("Q06", metrics)
        path = tmp_path / "trace.json"
        builder.write(str(path))
        document = json.loads(path.read_text())
        assert validate_trace(document) == []
        assert document["displayTimeUnit"] == "ms"

    def test_a_non_finite_value_never_reaches_disk(self, tmp_path):
        builder = TraceBuilder()
        pid = builder.process("p")
        builder.slice(pid, 1, "x", "query", 0.0, float("inf"))
        with pytest.raises(ValueError):
            builder.write(str(tmp_path / "trace.json"))
        assert list(tmp_path.iterdir()) == []


class TestValidator:
    def test_rejects_non_list_and_malformed_events(self):
        assert validate_trace_events({"not": "a list"}) != []
        assert validate_trace_events(["not an object"]) != []
        assert validate_trace({"no": "traceEvents"}) != []

    def test_rejects_missing_keys_and_unknown_phases(self):
        errors = validate_trace_events([{"ph": "X", "name": "x", "pid": 1}])
        assert errors == [
            "traceEvents[0].tid: missing",
            "traceEvents[0].ts: missing",
            "traceEvents[0].dur: missing",
        ]
        errors = validate_trace_events(
            [{"ph": "B", "name": "x", "pid": 1, "tid": 0, "ts": 0}]
        )
        assert errors == ["traceEvents[0]: unknown ph 'B'"]

    @pytest.mark.parametrize("ts", ["0", None, True, float("nan"), [0]])
    def test_a_non_number_timestamp_is_a_problem_not_a_crash(self, ts):
        # the input the validator exists to reject: it used to raise
        # TypeError comparing it with 0
        for event in (
            {"ph": "X", "name": "a", "pid": 1, "tid": 1, "ts": ts, "dur": 1},
            {"ph": "s", "name": "a", "pid": 1, "tid": 1, "ts": ts, "id": 1},
        ):
            (error,) = validate_trace_events([event])
            assert error.startswith("traceEvents[0].ts: expected a ")

    def test_any_json_flow_id_pairs_up(self):
        # ``id`` is only required to be present; an unhashable one must
        # still match its partner
        start = {"ph": "s", "name": "e", "id": [1, {}], "pid": 1, "tid": 1, "ts": 1.0}
        finish = dict(start, ph="f", ts=2.0)
        assert validate_trace_events([start, finish]) == []
        assert any(
            "without a start" in e
            for e in validate_trace_events([dict(finish, id=[2])])
        )

    def test_rejects_negative_geometry(self):
        errors = validate_trace_events(
            [{"ph": "X", "name": "x", "pid": 1, "tid": 0, "ts": -1.0, "dur": 2.0}]
        )
        assert any("negative" in e for e in errors)

    def test_rejects_unmatched_and_time_reversed_flows(self):
        start = {"ph": "s", "name": "e", "cat": "x", "id": 1, "pid": 1, "tid": 1, "ts": 5.0}
        finish = {"ph": "f", "name": "e", "cat": "x", "id": 1, "pid": 1, "tid": 2, "ts": 1.0}
        assert any(
            "without a finish" in e for e in validate_trace_events([start])
        )
        assert any(
            "without a start" in e for e in validate_trace_events([finish])
        )
        assert any(
            "arrives before" in e for e in validate_trace_events([start, finish])
        )
