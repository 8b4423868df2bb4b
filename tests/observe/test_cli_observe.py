"""The CLIs' observability surfaces: ``--trace``, ``--query-log`` and
``--json`` on ``repro.tpch`` and ``repro.workload``,
numeric query id normalization, and the ``repro.observe`` subcommands
(validate / summary / regress)."""

import json

import pytest

from repro.observe import read_records, record_errors, validate_trace
from repro.observe.__main__ import main as observe_main
from repro.observe.history import append_record, current_git_sha
from repro.tpch.cli import main as tpch_main
from repro.tpch.cli import normalize_query_id
from repro.workload.__main__ import main as workload_main

SMALL = ["--sf", "0.002", "--schemes", "bdcc"]


class TestNormalizeQueryId:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("1", "Q01"),
            ("06", "Q06"),
            ("19", "Q19"),
            ("q3", "Q03"),
            ("Q21", "Q21"),
            (" q01 ", "Q01"),
            ("nonsense", "NONSENSE"),
        ],
    )
    def test_tokens(self, token, expected):
        assert normalize_query_id(token) == expected

    def test_unknown_query_is_an_error(self, capsys):
        assert tpch_main(SMALL + ["--queries", "99"]) == 2


class TestTpchCli:
    def test_trace_and_query_log_files_validate(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        log = tmp_path / "log.jsonl"
        code = tpch_main(
            SMALL
            + ["--queries", "1,6", "--workers", "2",
               "--trace", str(trace), "--query-log", str(log)]
        )
        assert code == 0
        document = json.loads(trace.read_text())
        assert validate_trace(document) == []
        records = read_records(str(log))
        assert [r["label"] for r in records] == ["Q01/bdcc", "Q06/bdcc"]
        for record in records:
            assert record_errors(record) == []
            assert record["workers"] == 2
            assert record["backend"] == "simulated"

    def test_json_mode_prints_the_suite_document(self, capsys):
        code = tpch_main(SMALL + ["--queries", "6", "--json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kind"] == "tpch_suite"
        assert document["queries"] == ["Q06"]
        assert document["schemes"] == ["bdcc"]
        (record,) = document["records"]
        assert record_errors(record) == []
        assert record["label"] == "Q06/bdcc"

    def test_explain_mode_feeds_the_sink_too(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        code = tpch_main(
            SMALL + ["--queries", "6", "--explain", "--query-log", str(log)]
        )
        assert code == 0
        (record,) = read_records(str(log))
        assert record_errors(record) == []


class TestNoProfileFlag:
    """Every operator carries its host seconds, so there is no opt-in
    profiler to switch on: ``--profile`` is an unknown argument."""

    @pytest.mark.parametrize("main", [tpch_main, workload_main])
    def test_profile_is_unrecognised(self, main, capsys):
        with pytest.raises(SystemExit) as raised:
            main(SMALL + ["--queries", "1", "--profile"])
        assert raised.value.code == 2
        assert "unrecognized arguments: --profile" in capsys.readouterr().err


class TestObserveCli:
    def _write_log(self, tmp_path):
        log = tmp_path / "log.jsonl"
        assert tpch_main(
            SMALL + ["--queries", "6", "--query-log", str(log)]
        ) == 0
        return log

    def test_validate_subcommand(self, tmp_path, capsys):
        log = self._write_log(tmp_path)
        capsys.readouterr()
        assert observe_main(["validate", str(log)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"not": "a record"}\n')
        assert observe_main(["validate", str(bad)]) == 1

    @pytest.mark.parametrize(
        "event, where",
        [
            ({"ph": "X", "name": "a", "pid": 1, "tid": 1, "ts": "0", "dur": 1},
             "traceEvents[0].ts"),
            ({"ph": "X", "name": "a", "pid": 1, "tid": 1, "ts": None, "dur": 1},
             "traceEvents[0].ts"),
            ("not an object", "traceEvents[0]"),
        ],
    )
    def test_validate_names_a_bad_trace_event_instead_of_crashing(
        self, tmp_path, capsys, event, where
    ):
        bad = tmp_path / "t.json"
        bad.write_text(json.dumps({"traceEvents": [event]}))
        assert observe_main(["validate", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out and f"- {where}: expected" in out

    def test_validate_names_the_half_written_line(self, tmp_path, capsys):
        log = self._write_log(tmp_path)
        text = log.read_text()
        log.write_text(text + text[: len(text) // 2])
        capsys.readouterr()
        assert observe_main(["validate", str(log)]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out and "line 2: not JSON" in out
        assert observe_main(["summary", str(log)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{log}: INVALID" in captured.err
        assert "line 2: not JSON" in captured.err

    def test_validate_rejects_non_numbers(self, tmp_path, capsys):
        record = read_records(str(self._write_log(tmp_path)))[0]
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            json.dumps(dict(record, workers=True)) + "\n"
            + json.dumps(dict(record, simulated=dict(
                record["simulated"], io_seconds=float("nan")
            ))) + "\n"
        )
        capsys.readouterr()
        assert observe_main(["validate", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "line 1: workers: expected a non-negative integer, got bool" in out
        assert "line 2: simulated.io_seconds: expected a finite number, got nan" in out

    def test_validate_rejects_a_nan_ledger_metric(self, tmp_path, capsys):
        append_record("demo", {"q.seconds": 1.0}, directory=tmp_path)
        path = tmp_path / "BENCH_demo.json"
        path.write_text(path.read_text().replace('"q.seconds": 1.0', '"q.seconds": NaN'))
        assert observe_main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "records[0].metrics[q.seconds]: expected a finite number" in out

    def test_summary_refuses_a_log_it_cannot_trust(self, tmp_path, capsys):
        # used to die with KeyError: 'simulated'
        log = self._write_log(tmp_path)
        log.write_text(log.read_text() + '{"label": "a"}\n')
        capsys.readouterr()
        assert observe_main(["summary", str(log)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""       # nothing aggregated
        assert f"{log}: INVALID" in captured.err
        assert "- line 2: simulated: missing" in captured.err

    def test_validate_accepts_ledger_documents(self, tmp_path, capsys):
        append_record("demo", {"q.seconds": 1.0}, directory=tmp_path)
        assert observe_main(
            ["validate", str(tmp_path / "BENCH_demo.json")]
        ) == 0

    def test_summary_refuses_an_empty_log(self, tmp_path, capsys):
        # the rule validate applies: a log with no record proves nothing
        log = tmp_path / "empty.jsonl"
        log.write_text("")
        assert observe_main(["validate", str(log)]) == 1
        capsys.readouterr()
        for flags in ([], ["--json"]):
            assert observe_main(["summary", *flags, str(log)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"{log}: INVALID" in captured.err
            assert "- no records" in captured.err

    def test_summary_subcommand(self, tmp_path, capsys):
        log = self._write_log(tmp_path)
        capsys.readouterr()
        assert observe_main(["summary", str(log)]) == 0
        out = capsys.readouterr().out
        assert "Q06/bdcc" in out
        # host seconds against simulated seconds, per operator kind
        assert "host/sim" in out
        assert any(line.split()[:1] == ["Scan"] for line in out.splitlines())

    def test_summary_json(self, tmp_path, capsys):
        log = self._write_log(tmp_path)
        capsys.readouterr()
        assert observe_main(["summary", "--json", str(log)]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["overall"]["records"] == 1
        scan = document["operators"]["Scan"]
        assert scan["host_seconds"] > 0.0 and scan["simulated_seconds"] > 0.0

    def _fresh_ledger(self, tmp_path, values, metric="q.seconds"):
        """Records the CLI will judge: produced at this checkout's HEAD."""
        for value in values:
            append_record("demo", {metric: value}, directory=tmp_path,
                          git_sha=current_git_sha())

    def test_regress_green_directory(self, tmp_path, capsys):
        self._fresh_ledger(tmp_path, (1.0, 1.2, 1.2))
        assert observe_main(["regress", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "regression check: ok" in out and "1 ledger(s) judged" in out

    def test_regress_fails_and_names_the_moved_metric(self, tmp_path, capsys):
        self._fresh_ledger(
            tmp_path, (1.73, 1.73 * (1 + 1e-6)), metric="ratios.plain_over_bdcc"
        )
        assert observe_main(["regress", "--dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "ratios.plain_over_bdcc" in out

    def test_regress_skips_ledgers_not_rerun_at_head(self, tmp_path, capsys):
        for value in (1.0, 9.0):
            append_record("demo", {"q.seconds": value}, directory=tmp_path,
                          git_sha="0" * 40)
        path = str(tmp_path / "BENCH_demo.json")
        assert observe_main(["regress", path]) == 0
        out = capsys.readouterr().out
        assert "skipped: not re-run at HEAD" in out
        assert "0 ledger(s) judged" in out and "1 skipped" in out

    def test_regress_empty_directory_is_not_an_error(self, tmp_path, capsys):
        assert observe_main(["regress", "--dir", str(tmp_path)]) == 0
        assert "no BENCH_*.json ledgers found" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag", [["--window", "2"], ["--rel-tolerance", "0.5"]]
    )
    def test_regress_has_no_tunables(self, tmp_path, flag):
        with pytest.raises(SystemExit) as raised:
            observe_main(["regress", *flag, "--dir", str(tmp_path)])
        assert raised.value.code == 2

    def test_a_subcommand_is_required(self, tmp_path):
        # bare FILE arguments no longer validate
        with pytest.raises(SystemExit) as raised:
            observe_main([str(self._write_log(tmp_path))])
        assert raised.value.code == 2


class TestWorkloadCli:
    def test_json_mode_with_trace_and_log(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        log = tmp_path / "log.jsonl"
        code = workload_main(
            ["--queries", "2", "--variants", "default", "--sf", "0.002",
             "--json", "--trace", str(trace), "--query-log", str(log)]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kind"] == "workload_differential"
        assert document["report"]["ok"] is True
        for record in document["records"]:
            assert record_errors(record) == []
        assert validate_trace(json.loads(trace.read_text())) == []
        for record in read_records(str(log)):
            assert record_errors(record) == []


class TestServingModesFeedTheSink:
    """``--streams N`` hands served queries to the same sink as every
    other mode, in both CLIs."""

    def test_workload_streams_honours_trace_log_and_json(
        self, tmp_path, capsys
    ):
        trace = tmp_path / "trace.json"
        log = tmp_path / "log.jsonl"
        code = workload_main(
            SMALL
            + ["--streams", "2", "--queries", "4", "--updates", "1",
               "--workers", "2", "--json",
               "--trace", str(trace), "--query-log", str(log)]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kind"] == "serving_differential"
        assert document["report"]["ok"] is True
        records = read_records(str(log))
        assert len(records) == 4 and document["records"] == records
        for record in records:
            assert record_errors(record) == []
            assert record["scheme"] == "bdcc"
            assert record["options"]["workers"] == 2
            assert all(e["host_seconds"] > 0.0 for e in record["operators"])
        trace_document = json.loads(trace.read_text())
        assert validate_trace(trace_document) == []
        assert _process_names(trace_document) == {
            "serving workers (bdcc)", "streams (bdcc)",
        }

    def test_tpch_streams_draws_on_the_sinks_builder(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        log = tmp_path / "log.jsonl"
        code = tpch_main(
            SMALL
            + ["--streams", "2", "--queries", "1,6", "--workers", "2",
               "--trace", str(trace), "--query-log", str(log)]
        )
        assert code == 0
        records = read_records(str(log))
        assert sorted(r["label"] for r in records) == [
            "Q01/bdcc/s00", "Q01/bdcc/s01", "Q06/bdcc/s00", "Q06/bdcc/s01",
        ]
        trace_document = json.loads(trace.read_text())
        assert validate_trace(trace_document) == []
        assert _process_names(trace_document) == {
            "serving workers (bdcc)", "streams (bdcc)",
        }


def _process_names(trace_document):
    return {
        event["args"]["name"]
        for event in trace_document["traceEvents"]
        if event.get("ph") == "M" and event.get("name") == "process_name"
    }


class TestModesWithoutExecutionsRejectSinkFlags:
    """The design report and the refresh-cost report hand nothing to the
    sink; its flags are refused (argparse exit 2), not silently dropped
    — and no empty query-log file is left behind."""

    @pytest.mark.parametrize("mode", [["--design"], ["--refresh", "1"]])
    @pytest.mark.parametrize(
        "flag", [["--query-log", "FILE"], ["--trace", "FILE"], ["--json"]],
    )
    def test_rejected(self, mode, flag, tmp_path, capsys):
        target = tmp_path / "artifact"
        flag = [str(target) if token == "FILE" else token for token in flag]
        with pytest.raises(SystemExit) as exit_info:
            tpch_main(SMALL + mode + flag)
        assert exit_info.value.code == 2
        assert not target.exists()

    def test_refresh_with_streams_still_observes(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        code = tpch_main(
            SMALL
            + ["--streams", "1", "--refresh", "1", "--queries", "6",
               "--query-log", str(log)]
        )
        assert code == 0
        assert len(read_records(str(log))) == 1
