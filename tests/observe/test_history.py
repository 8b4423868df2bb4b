"""The benchmark history ledger: append/read round-trips, corrupted
record rejection (by the reader) and refusal (by the append), and
metric flattening."""

import json
import subprocess

import pytest

from repro.observe import history
from repro.observe.history import (
    LEDGER_SCHEMA_VERSION,
    Ledger,
    append_record,
    build_ledger_record,
    flatten_metrics,
    ledger_path,
    ledger_paths,
    ledger_record_errors,
    read_ledger,
)


class TestFlattenMetrics:
    def test_nested_dicts_become_dotted_names(self):
        flat = flatten_metrics(
            {"queries": {"Q01": {"seconds": 1.5, "rows": 3}}, "total": 2}
        )
        assert flat == {
            "queries.Q01.seconds": 1.5,
            "queries.Q01.rows": 3.0,
            "total": 2.0,
        }

    def test_lists_flatten_with_index_segments(self):
        assert flatten_metrics({"sweep": [{"bits": 4}, {"bits": 8}]}) == {
            "sweep.0.bits": 4.0,
            "sweep.1.bits": 8.0,
        }

    def test_bools_become_gateable_zero_one(self):
        assert flatten_metrics({"ok": True, "failed": False}) == {
            "ok": 1.0,
            "failed": 0.0,
        }

    def test_strings_nulls_and_non_finite_are_dropped(self):
        flat = flatten_metrics(
            {"kind": "bench", "none": None, "inf": float("inf"),
             "nan": float("nan"), "kept": 1.0}
        )
        assert flat == {"kept": 1.0}


class TestLedgerRoundTrip:
    def test_append_then_read(self, tmp_path):
        record = append_record(
            "demo", {"q.seconds": 1.5}, meta={"sf": 0.02}, directory=tmp_path
        )
        ledger = read_ledger(ledger_path("demo", tmp_path))
        assert ledger.name == "demo"
        assert ledger.errors == []
        assert ledger.records == [record]
        assert record["ledger_schema_version"] == LEDGER_SCHEMA_VERSION
        assert record["bench"] == "demo"
        assert record["meta"] == {"sf": 0.02}
        assert record["git_sha"] and record["timestamp_utc"].endswith("Z")
        assert record["host"]["cpu_count"] >= 1

    def test_records_accumulate_in_append_order(self, tmp_path):
        for value in (1.0, 2.0, 3.0):
            append_record("demo", {"metric": value}, directory=tmp_path)
        ledger = read_ledger(ledger_path("demo", tmp_path))
        assert [r["metrics"]["metric"] for r in ledger.records] == [1.0, 2.0, 3.0]

    def test_missing_file_is_an_empty_ledger(self, tmp_path):
        ledger = read_ledger(tmp_path / "BENCH_never.json")
        assert ledger.records == [] and ledger.errors == []

    def test_ledger_paths_finds_every_ledger(self, tmp_path):
        append_record("beta", {"x": 1.0}, directory=tmp_path)
        append_record("alpha", {"x": 1.0}, directory=tmp_path)
        names = [p.name for p in ledger_paths(tmp_path)]
        assert names == ["BENCH_alpha.json", "BENCH_beta.json"]

    def test_commit_is_read_from_the_directory_not_the_cwd(self, tmp_path):
        def git(*args):
            return subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                cwd=tmp_path, check=True, capture_output=True, text=True,
            ).stdout.strip()

        git("init", "-q")
        git("commit", "-q", "--allow-empty", "-m", "one")
        record = append_record("demo", {"x": 1.0}, directory=tmp_path)
        assert record["git_sha"] == git("rev-parse", "HEAD")
        assert record["git_sha"] != history.current_git_sha()

    def test_env_override_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "elsewhere"))
        append_record("demo", {"x": 1.0})
        assert (tmp_path / "elsewhere" / "BENCH_demo.json").exists()


class TestCorruption:
    def test_corrupted_records_are_rejected_individually(self, tmp_path):
        append_record("demo", {"good": 1.0}, directory=tmp_path)
        path = ledger_path("demo", tmp_path)
        document = json.loads(path.read_text())
        document["records"].append({"bogus": True})
        document["records"].append(
            build_ledger_record("demo", {"also_good": 2.0})
        )
        path.write_text(json.dumps(document))
        ledger = read_ledger(path)
        assert len(ledger.records) == 2  # both valid records survive
        assert any("records[1]" in e for e in ledger.errors)

    def test_unreadable_document_reports_not_raises(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text("{not json")
        ledger = read_ledger(path)
        assert ledger.records == []
        assert any("unreadable" in e for e in ledger.errors)

    @pytest.mark.parametrize(
        "document, problem",
        [
            ([1, 2, 3], "expected an object"),
            ({"bench": "bad", "ledger_schema_version": 1}, "records: missing"),
            ({"bench": "bad", "ledger_schema_version": 1, "records": {}}, "records: expected list"),
            ({"bench": "bad", "ledger_schema_version": 99, "records": []}, "ledger_schema_version"),
            ({"ledger_schema_version": 1, "records": []}, "bench: missing"),
        ],
    )
    def test_wrong_document_shape_is_reported(self, tmp_path, document, problem):
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps(document))
        ledger = read_ledger(path)
        assert ledger.records == []
        assert any(problem in e for e in ledger.errors), ledger.errors

    def test_build_record_refuses_invalid_metrics(self):
        with pytest.raises(ValueError):
            build_ledger_record("demo", {"name": "not-a-number"})
        with pytest.raises(ValueError):
            build_ledger_record("demo", {"name": float("nan")})

    @pytest.mark.parametrize(
        "mutation,fragment",
        [
            (lambda r: r.pop("git_sha"), "git_sha"),
            (lambda r: r.update(metrics="nope"), "metrics"),
            (lambda r: r.update(ledger_schema_version=99), "ledger_schema_version"),
            (lambda r: r["metrics"].update(bad="x"), "metrics[bad]"),
            (lambda r: r["metrics"].update(bad=True), "metrics[bad]"),
            # regress could never find a NaN ``same``
            (lambda r: r["metrics"].update(bad=float("nan")), "metrics[bad]"),
            (lambda r: r["metrics"].update(bad=float("inf")), "metrics[bad]"),
        ],
    )
    def test_record_errors_name_the_problem(self, mutation, fragment):
        record = build_ledger_record("demo", {"x": 1.0})
        mutation(record)
        assert any(fragment in e for e in ledger_record_errors(record))


class TestAppendRefusesCorruption:
    """An append never rewrites a ledger it could not fully read: the
    file stays byte-for-byte as found and the error names it."""

    def _refused(self, path, text):
        path.write_text(text)
        with pytest.raises(ValueError) as raised:
            append_record("demo", {"x": 2.0}, directory=path.parent)
        assert path.read_text() == text
        assert [p.name for p in path.parent.iterdir()] == [path.name]
        return str(raised.value)

    def test_truncated_json(self, tmp_path):
        append_record("demo", {"x": 1.0}, directory=tmp_path)
        path = ledger_path("demo", tmp_path)
        message = self._refused(path, path.read_text()[:-40])
        assert str(path) in message and "unreadable" in message

    def test_wrong_document_shape(self, tmp_path):
        path = ledger_path("demo", tmp_path)
        message = self._refused(path, json.dumps([1, 2, 3]))
        assert str(path) in message and "expected an object" in message

    def test_one_bad_record_among_good_ones(self, tmp_path):
        append_record("demo", {"x": 1.0}, directory=tmp_path)
        append_record("demo", {"x": 1.0}, directory=tmp_path)
        path = ledger_path("demo", tmp_path)
        document = json.loads(path.read_text())
        document["records"].insert(1, {"bogus": True})
        message = self._refused(path, json.dumps(document))
        assert str(path) in message and "records[1]" in message


class TestAtomicAppend:
    def test_no_scratch_file_left_behind(self, tmp_path):
        append_record("demo", {"x": 1.0}, directory=tmp_path)
        leftovers = [p.name for p in tmp_path.iterdir()]
        assert leftovers == ["BENCH_demo.json"]

    def test_append_preserves_prior_records_verbatim(self, tmp_path):
        first = append_record("demo", {"x": 1.0}, directory=tmp_path)
        append_record("demo", {"x": 2.0}, directory=tmp_path)
        ledger = read_ledger(ledger_path("demo", tmp_path))
        assert ledger.records[0] == first


class TestDefaultLedgerDir:
    def test_walks_up_to_a_repo_root(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER_DIR", raising=False)
        (tmp_path / "pyproject.toml").write_text("")
        nested = tmp_path / "a" / "b"
        nested.mkdir(parents=True)
        monkeypatch.chdir(nested)
        assert history.default_ledger_dir() == tmp_path
