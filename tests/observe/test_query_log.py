"""Query-log records: building from real executions, JSONL round-trips,
and the validator's rejection of malformed records."""

import pytest

from repro.observe import (
    SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    QueryLog,
    build_record,
    percentile,
    plan_fingerprint,
    read_records,
    record_errors,
    summarize_records,
    validate_record,
)
from repro.planner.executor import ExecutionOptions, Executor
from repro.tpch.queries import QUERIES
from repro.tpch.runner import QueryRunner


def _record(pdb, environment, qname, workers=1, profile=False):
    options = ExecutionOptions(
        workers=workers, min_partition_rows=256, profile=profile
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
        assert record["schema_version"] == 2
        assert "registry_delta" in record
        stripped = dict(record)
        del stripped["registry_delta"]
        assert any("registry_delta" in e for e in record_errors(stripped))

    def test_v1_record_is_accepted_without_delta(self, bdcc_db, environment):
        record = dict(_record(bdcc_db, environment, "Q06"))
        del record["registry_delta"]
        record["schema_version"] = 1
        assert 1 in SUPPORTED_SCHEMA_VERSIONS
        assert record_errors(record) == []

    def test_malformed_registry_delta_is_rejected(self, bdcc_db, environment):
        record = dict(_record(bdcc_db, environment, "Q06"))
        record["registry_delta"] = {"counters": {"plan_cache.hits": "three"}}
        assert any("registry_delta" in e for e in record_errors(record))

    def test_fragment_profile_entries_are_validated(
        self, bdcc_db, environment
    ):
        record = _record(bdcc_db, environment, "Q01", workers=4, profile=True)
        assert record_errors(record) == []
        assert any(f.get("profile") for f in record["fragments"])

        tampered = dict(record)
        fragments = [dict(f) for f in record["fragments"]]
        profiled = next(i for i, f in enumerate(fragments) if f.get("profile"))
        entries = [dict(e) for e in fragments[profiled]["profile"]]
        entries[0]["calls"] = "many"
        fragments[profiled]["profile"] = entries
        tampered["fragments"] = fragments
        assert any("profile" in e for e in record_errors(tampered))


class TestSummarize:
    def test_per_label_and_overall_view(self, bdcc_db, environment):
        records = [
            _record(bdcc_db, environment, "Q06"),
            _record(bdcc_db, environment, "Q06"),
            _record(bdcc_db, environment, "Q01", workers=4),
        ]
        summary = summarize_records(records)
        assert set(summary) == {"queries", "overall"}
        q06 = summary["queries"]["Q06/bdcc"]
        assert q06["records"] == 2
        assert q06["p50_simulated_seconds"] > 0.0
        assert q06["p95_simulated_seconds"] >= q06["p50_simulated_seconds"]
        overall = summary["overall"]
        assert overall["records"] == 3
        assert overall["queries"] == 2
        # v2 records carry deltas, so rates come from the summed deltas
        assert overall["cache_source"] == "registry_delta"

    def test_v1_log_falls_back_to_cumulative(self, bdcc_db, environment):
        record = dict(_record(bdcc_db, environment, "Q06"))
        del record["registry_delta"]
        record["schema_version"] = 1
        summary = summarize_records([record])
        assert summary["overall"]["cache_source"] == "cumulative (v1 log)"

    def test_empty_log(self):
        summary = summarize_records([])
        assert summary["queries"] == {}
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
    # the one percentile of the repo: the query-log summary and the
    # serving metrics share it
    from repro.serving import metrics as serving_metrics

    assert percentile(values, fraction) == expected
    assert serving_metrics.percentile is percentile


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

    def test_appends_across_reopens(self, bdcc_db, environment, tmp_path):
        path = tmp_path / "log.jsonl"
        record = _record(bdcc_db, environment, "Q06")
        for _ in range(2):
            with QueryLog(str(path)) as log:
                log.write(record)
        assert len(read_records(str(path))) == 2
