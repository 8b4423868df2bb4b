"""Query-log records: building from real executions, JSONL round-trips,
and the validator's rejection of malformed records."""

import dataclasses
import json

import pytest

from repro.execution.metrics import FragmentActuals, OperatorActuals
from repro.observe import (
    SCHEMA_VERSION,
    QueryLog,
    build_record,
    latency_stats,
    percentile,
    plan_fingerprint,
    read_records,
    record_errors,
    summarize_records,
    validate_record,
)
from repro.observe.query_log import RECORD_SPEC
from repro.planner.executor import ExecutionOptions, Executor
from repro.tpch.queries import QUERIES
from repro.tpch.runner import QueryRunner


def _record(pdb, environment, qname, workers=1, backend="simulated"):
    options = ExecutionOptions(
        workers=workers, min_partition_rows=256, backend=backend
    )
    executor = Executor(
        pdb, disk=environment.disk, costs=environment.cost_model, options=options
    )
    try:
        runner = QueryRunner(executor)
        result = QUERIES[qname](runner)
        return build_record(
            f"{qname}/{pdb.scheme_name}", runner.metrics, pdb=pdb,
            options=options, plans=runner.physical_plans,
            relation=result.relation,
        )
    finally:
        executor.close()


class TestBuildRecord:
    def test_real_execution_produces_a_valid_record(self, bdcc_db, environment):
        record = _record(bdcc_db, environment, "Q06")
        assert record_errors(record) == []
        assert record["schema_version"] == SCHEMA_VERSION
        assert record["label"] == "Q06/bdcc"
        assert record["scheme"] == "bdcc"
        assert record["plan_fingerprint"]
        assert record["simulated"]["total_seconds"] > 0.0
        assert record["operators"] and record["fragments"]
        assert record["result"]["rows"] == 1
        assert "counters" in record["registry"]

    def test_parallel_record_carries_the_timeline(self, bdcc_db, environment):
        record = _record(bdcc_db, environment, "Q01", workers=4)
        assert record_errors(record) == []
        assert record["workers"] == 4
        assert len(record["fragments"]) > 1
        assert any(f["depends_on"] for f in record["fragments"])

    def test_multi_stage_query_round_trips(self, bdcc_db, environment):
        # Q15 decorrelates into a scalar pre-query plus the main plan
        record = _record(bdcc_db, environment, "Q15")
        assert record_errors(record) == []

    @pytest.mark.parametrize("backend", ["simulated", "process"])
    def test_every_operator_entry_carries_host_seconds(
        self, bdcc_db, environment, backend
    ):
        record = _record(bdcc_db, environment, "Q06", workers=2, backend=backend)
        assert record_errors(record) == []
        assert record["backend"] == backend
        assert all(entry["host_seconds"] > 0.0 for entry in record["operators"])


class TestRecordShape:
    """The entries are derived from the dataclasses that own the fields;
    these literals are what keeps a derived shape from drifting
    unnoticed (a new field is a deliberate edit here, and none in
    ``query_log.py``)."""

    def test_key_sets_are_pinned(self, bdcc_db, environment):
        record = _record(bdcc_db, environment, "Q01", workers=4)
        assert sorted(record) == [
            "backend", "counters", "epoch", "fragments", "label", "measured",
            "memory", "operators", "options", "plan_fingerprint",
            "registry", "registry_delta", "result", "schema_version",
            "scheme", "simulated", "table_epochs", "workers",
        ]
        assert sorted(key.rstrip("?") for key in RECORD_SPEC) == sorted(record)
        assert list(record["simulated"]) == [
            "io_seconds", "cpu_seconds", "total_seconds", "makespan_seconds",
            "wall_seconds", "io_bytes", "io_accesses", "rows_scanned",
            "delta_rows_scanned", "rows_produced", "compaction_seconds",
        ]
        assert list(record["operators"][0]) == [
            "kind", "description", "rows_in", "rows_out", "io_bytes",
            "io_accesses", "io_seconds", "cpu_seconds", "reserved_bytes",
            "host_seconds", "executions",
        ]
        assert list(record["fragments"][0]) == [
            "index", "role", "description", "worker", "depends_on",
            "ready_seconds", "start_seconds", "io_end_seconds", "end_seconds",
            "io_seconds", "cpu_seconds", "rows_out", "output_bytes",
            "peak_memory_bytes", "measured_seconds", "measured_start_seconds",
            "measured_end_seconds",
        ]

    def test_entries_follow_the_dataclasses(self, bdcc_db, environment):
        record = _record(bdcc_db, environment, "Q01", workers=4)
        for entries, owner in (
            (record["operators"], OperatorActuals),
            (record["fragments"], FragmentActuals),
        ):
            names = [f.name for f in dataclasses.fields(owner)]
            assert all(list(entry) == names for entry in entries)

    def test_entries_are_plain_json_of_the_declared_type(
        self, bdcc_db, environment
    ):
        record = _record(bdcc_db, environment, "Q01", workers=4)
        fragment = record["fragments"][-1]
        assert type(fragment["index"]) is int
        assert type(fragment["output_bytes"]) is float
        assert type(fragment["depends_on"]) is list
        assert type(record["simulated"]["io_accesses"]) is int
        assert type(record["simulated"]["wall_seconds"]) is float
        assert json.loads(json.dumps(record, allow_nan=False)) == record


class TestFingerprint:
    def test_stable_across_relowering(self, bdcc_db, environment):
        a = _record(bdcc_db, environment, "Q06")
        b = _record(bdcc_db, environment, "Q06")
        assert a["plan_fingerprint"] == b["plan_fingerprint"]

    def test_distinct_queries_differ(self, bdcc_db, environment):
        a = _record(bdcc_db, environment, "Q06")
        b = _record(bdcc_db, environment, "Q01")
        assert a["plan_fingerprint"] != b["plan_fingerprint"]

    def test_fingerprint_is_a_short_hex_digest(self, bdcc_db, environment):
        executor = Executor(
            bdcc_db, disk=environment.disk, costs=environment.cost_model
        )
        runner = QueryRunner(executor)
        QUERIES["Q06"](runner)
        digest = plan_fingerprint(runner.physical_plans)
        assert len(digest) == 16
        int(digest, 16)  # hex


class TestValidator:
    def test_tampered_records_are_rejected(self, bdcc_db, environment):
        record = _record(bdcc_db, environment, "Q06")

        missing = dict(record)
        del missing["label"]
        assert any("label" in e for e in record_errors(missing))

        wrong_type = dict(record)
        wrong_type["workers"] = "four"
        assert any("workers" in e for e in record_errors(wrong_type))

        unknown = dict(record)
        unknown["surprise"] = 1
        assert any("unknown field" in e for e in record_errors(unknown))

        stale = dict(record)
        stale["schema_version"] = SCHEMA_VERSION + 1
        assert any("schema_version" in e for e in record_errors(stale))

        reversed_fragment = dict(record)
        fragments = [dict(f) for f in record["fragments"]]
        fragments[0]["end_seconds"] = fragments[0]["start_seconds"] - 1.0
        reversed_fragment["fragments"] = fragments
        assert any(
            "end_seconds before start_seconds" in e
            for e in record_errors(reversed_fragment)
        )

    def test_validate_record_raises(self):
        with pytest.raises(ValueError):
            validate_record({"schema_version": SCHEMA_VERSION})

    def test_v2_requires_registry_delta(self, bdcc_db, environment):
        record = _record(bdcc_db, environment, "Q06")
        assert record["schema_version"] == SCHEMA_VERSION == 4
        assert "registry_delta" in record
        stripped = dict(record)
        del stripped["registry_delta"]
        assert any("registry_delta" in e for e in record_errors(stripped))

    def test_v3_has_no_free_text_notes(self, bdcc_db, environment):
        record = dict(_record(bdcc_db, environment, "Q13"))
        assert "notes" not in record
        record["notes"] = ["scan orders: pushdown 25/25 groups"]
        assert any("notes" in e for e in record_errors(record))

    def test_v4_operators_carry_host_seconds(self, bdcc_db, environment):
        """A v3 record — no ``host_seconds`` on its operators, its old
        version number — is refused."""
        record = json.loads(json.dumps(_record(bdcc_db, environment, "Q06")))
        for entry in record["operators"]:
            del entry["host_seconds"]
        record["schema_version"] = 3
        errors = record_errors(record)
        assert any(e.startswith("schema_version") for e in errors)
        assert "operators[0].host_seconds: missing" in errors

    def test_only_the_current_schema_version_is_accepted(
        self, bdcc_db, environment
    ):
        record = dict(_record(bdcc_db, environment, "Q06"))
        for version in (1, SCHEMA_VERSION + 1, True, float(SCHEMA_VERSION), "2"):
            record["schema_version"] = version
            assert any(e.startswith("schema_version") for e in record_errors(record))

    @pytest.mark.parametrize(
        "steps, value, where",
        [
            (("workers",), True, "workers"),
            (("workers",), 2.0, "workers"),
            (("epoch",), False, "epoch"),
            (("simulated", "io_seconds"), float("nan"), "simulated.io_seconds"),
            (("simulated", "total_seconds"), float("inf"), "simulated.total_seconds"),
            (("memory", "peak_bytes"), float("-inf"), "memory.peak_bytes"),
            (("counters", "x"), float("nan"), "counters[x]"),
            (("registry_delta", "counters", "plan_cache.hits"), True,
             "registry_delta.counters[plan_cache.hits]"),
            (("table_epochs", "orders"), 1.5, "table_epochs[orders]"),
            (("operators", 0, "rows_out"), "many", "operators[0].rows_out"),
            (("fragments", 0, "depends_on"), [0, "one"],
             "fragments[0].depends_on[1]"),
            (("operators", 0, "host_seconds"), float("nan"),
             "operators[0].host_seconds"),
        ],
    )
    def test_one_idea_of_a_number(
        self, bdcc_db, environment, steps, value, where
    ):
        """A bool is not a number and neither is NaN or an infinity,
        wherever the record holds one; the problem names the field."""
        record = json.loads(json.dumps(_record(bdcc_db, environment, "Q06")))
        holder = record
        for step in steps[:-1]:
            holder = holder[step]
        holder[steps[-1]] = value
        (error,) = record_errors(record)
        assert error.startswith(where + ": expected a ")

    def test_malformed_registry_delta_is_rejected(self, bdcc_db, environment):
        record = dict(_record(bdcc_db, environment, "Q06"))
        record["registry_delta"] = {"counters": {"plan_cache.hits": "three"}}
        assert any("registry_delta" in e for e in record_errors(record))


class TestSummarize:
    def test_per_label_and_overall_view(self, bdcc_db, environment):
        records = [
            _record(bdcc_db, environment, "Q06"),
            _record(bdcc_db, environment, "Q06"),
            _record(bdcc_db, environment, "Q01", workers=4),
        ]
        summary = summarize_records(records)
        assert set(summary) == {"queries", "operators", "overall"}
        q06 = summary["queries"]["Q06/bdcc"]
        assert q06["records"] == 2
        assert q06["p50_simulated_seconds"] > 0.0
        assert q06["p95_simulated_seconds"] >= q06["p50_simulated_seconds"]
        overall = summary["overall"]
        assert overall["records"] == 3
        assert overall["queries"] == 2
        # rates come from the per-record deltas summed over the log
        hits = sum(
            r["registry_delta"]["counters"].get("plan_cache.hits", 0.0)
            for r in records
        )
        misses = sum(
            r["registry_delta"]["counters"].get("plan_cache.misses", 0.0)
            for r in records
        )
        assert overall["plan_cache_hit_rate"] == hits / (hits + misses)
        # per operator kind: the host clock beside the simulated one,
        # each the sum of that kind's entries over the log
        entries = [e for r in records for e in r["operators"]]
        assert set(summary["operators"]) == {e["kind"] for e in entries}
        scans = [e for e in entries if e["kind"] == "Scan"]
        assert summary["operators"]["Scan"] == {
            "executions": sum(e["executions"] for e in scans),
            "host_seconds": sum(e["host_seconds"] for e in scans),
            "simulated_seconds": sum(e["io_seconds"] + e["cpu_seconds"] for e in scans),
        }

    def test_empty_log(self):
        summary = summarize_records([])
        assert summary["queries"] == summary["operators"] == {}
        assert summary["overall"]["records"] == 0


@pytest.mark.parametrize(
    "values, fraction, expected",
    [
        ([], 0.95, 0.0),                                  # empty: no IndexError
        ([7.0], 0.50, 7.0),                               # one element
        ([7.0], 0.95, 7.0),
        ([float(v) for v in range(20, 0, -1)], 0.50, 10.0),  # n*f integral: 10th
        ([float(v) for v in range(20, 0, -1)], 0.95, 19.0),
        ([3.0, 1.0, 2.0], 0.50, 2.0),                     # n*f = 1.5 -> 2nd
        ([3.0, 1.0, 2.0, 4.0], 0.95, 4.0),                # n*f = 3.8 -> 4th
    ],
)
def test_percentile_is_nearest_rank(values, fraction, expected):
    assert percentile(values, fraction) == expected


def test_latency_stats():
    # the one latency aggregate of the repo: the query-log summary, the
    # serving report and the serving benchmark share it
    assert latency_stats([]) == {
        "count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0
    }
    assert latency_stats([3.0, 1.0, 2.0, 6.0]) == {
        "count": 4, "mean": 3.0, "p50": 2.0, "p95": 6.0, "max": 6.0
    }


class TestQueryLog:
    def test_jsonl_round_trip(self, bdcc_db, environment, tmp_path):
        path = tmp_path / "log.jsonl"
        original = _record(bdcc_db, environment, "Q06")
        with QueryLog(str(path)) as log:
            log.write(original)
            assert log.written == 1
        (loaded,) = read_records(str(path))
        assert loaded == original
        assert record_errors(loaded) == []

    def test_invalid_records_never_reach_disk(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with QueryLog(str(path)) as log:
            with pytest.raises(ValueError):
                log.write({"not": "a record"})
            assert log.written == 0
        assert read_records(str(path)) == []

    def test_a_non_finite_value_is_an_error_at_the_producer(
        self, bdcc_db, environment, tmp_path
    ):
        # ``options`` is free-form, so the schema does not reach into it:
        # the writer refuses the NaN instead of putting a non-JSON token
        # on disk
        path = tmp_path / "log.jsonl"
        record = dict(_record(bdcc_db, environment, "Q06"))
        record["options"] = {"threshold": float("nan")}
        assert record_errors(record) == []
        with QueryLog(str(path)) as log:
            with pytest.raises(ValueError):
                log.write(record)
        assert path.read_text() == ""

    def test_half_written_last_line_names_the_line(
        self, bdcc_db, environment, tmp_path
    ):
        path = tmp_path / "log.jsonl"
        with QueryLog(str(path)) as log:
            log.write(_record(bdcc_db, environment, "Q06"))
        text = path.read_text()
        path.write_text(text + text[: len(text) // 2])
        with pytest.raises(ValueError, match="line 2: not JSON"):
            read_records(str(path))

    def test_appends_across_reopens(self, bdcc_db, environment, tmp_path):
        path = tmp_path / "log.jsonl"
        record = _record(bdcc_db, environment, "Q06")
        for _ in range(2):
            with QueryLog(str(path)) as log:
                log.write(record)
        assert len(read_records(str(path))) == 2
