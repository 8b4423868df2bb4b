"""A damaged artifact on disk ends in a
:class:`~repro.errors.CorruptArtifact` (still a ``ValueError``) or in a
validator's exit 1, never in a traceback or a rewritten file: a ledger
truncated mid-document, a query log whose last line was cut in half,
and a trace file cut in half."""

import json

from repro.errors import CorruptArtifact, ReproError
from repro.observe import QueryLog, TraceBuilder, build_record, read_records
from repro.observe.__main__ import main as observe_main
from repro.observe.history import append_record, ledger_path
from repro.planner.executor import ExecutionOptions, Executor
from repro.planner.logical import scan

from ..watchdog import guarded


def _cut_in_half(path) -> None:
    text = path.read_text()
    path.write_text(text[: len(text) // 2])


def _assert_corrupt(outcome, match):
    error = outcome.get("error")
    assert isinstance(error, CorruptArtifact), outcome
    assert isinstance(error, ReproError) and isinstance(error, ValueError)
    assert match in str(error)


def _observe(capsys, *argv):
    """``python -m repro.observe ARGV`` in this process: its exit code
    (an exception would be the test's error, i.e. a traceback) and its
    output."""
    outcome = guarded(lambda: observe_main(list(argv)))
    assert "error" not in outcome, outcome
    return outcome["value"], capsys.readouterr().out


def test_a_ledger_truncated_mid_document(tmp_path, capsys):
    for sha in ("a" * 40, "b" * 40):
        append_record("cut", {"metric": 1.0}, directory=tmp_path, git_sha=sha)
    path = ledger_path("cut", tmp_path)
    _cut_in_half(path)
    before = path.read_bytes()

    outcome = guarded(
        lambda: append_record("cut", {"metric": 1.0}, directory=tmp_path, git_sha="c" * 40)
    )
    _assert_corrupt(outcome, "refusing to append to corrupt ledger")
    assert path.read_bytes() == before  # refused, not rewritten from what parses

    code, out = _observe(capsys, "regress", str(path))
    assert code == 1
    assert "FAILED (cut)" in out and "unreadable ledger" in out


def test_a_query_log_whose_last_line_was_cut(bdcc_db, tmp_path, capsys):
    executor = Executor(bdcc_db)
    path = tmp_path / "q.jsonl"
    with QueryLog(str(path)) as log:
        for table in ("nation", "region"):
            result = executor.execute(scan(table))
            log.write(build_record(table, result.metrics, pdb=bdcc_db))
    text = path.read_text()
    last = text.splitlines()[-1]
    path.write_text(text[: len(text) - len(last) // 2 - 1])

    _assert_corrupt(guarded(lambda: read_records(str(path))), "line 2: not JSON")
    code, out = _observe(capsys, "validate", str(path))
    assert code == 1
    assert f"{path}: INVALID" in out and "line 2: not JSON" in out


def test_a_trace_file_cut_in_half(bdcc_db, tmp_path, capsys):
    executor = Executor(bdcc_db, options=ExecutionOptions(workers=2, min_partition_rows=256))
    builder = TraceBuilder()
    builder.add_execution("lineitem", executor.execute(scan("lineitem")).metrics)
    path = tmp_path / "t.trace.json"
    builder.write(str(path))
    assert json.loads(path.read_text())["traceEvents"]
    _cut_in_half(path)

    code, out = _observe(capsys, "validate", str(path))
    assert code == 1
    assert f"{path}: INVALID" in out and "not JSON" in out
