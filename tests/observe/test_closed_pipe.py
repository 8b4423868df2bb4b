"""A reader that goes away ends a driver quietly: ``python -m repro.tpch
... | true`` (and the same for ``repro.observe`` and ``repro.workload``)
exits 0 with no traceback, as a closed pipe should."""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def _into_closed_pipe(*args):
    """Run ``python -m *args`` into a pipe whose reader has already
    gone: ``(exit status, stderr)``."""
    proc = subprocess.Popen(
        [sys.executable, "-m", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=120)
    return proc.returncode, stderr.decode()


def test_every_driver_exits_quietly_when_its_reader_goes_away(tmp_path):
    log = tmp_path / "q.jsonl"
    data = ["--sf", "0.002", "--schemes", "plain"]
    status, stderr = _into_closed_pipe("repro.tpch", *data, "--queries", "Q06", "--query-log", str(log))
    assert status == 0 and "Traceback" not in stderr, stderr
    assert log.stat().st_size > 0
    assert _into_closed_pipe("repro.observe", "summary", str(log)) == (0, "")
    status, stderr = _into_closed_pipe(
        "repro.workload", *data, "--seed", "0", "--queries", "2", "--variants", "default"
    )
    assert status == 0 and "Traceback" not in stderr, stderr
