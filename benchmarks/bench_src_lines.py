"""Source size per package: the design trend next to the speed trend.

Counts the lines of every ``src/repro`` package (top-level modules under
``_top``) into ``BENCH_src_lines.json``.  It is in the fast set, so
``regress`` fails a change to ``src/`` that does not commit its own
count: the size of every package is a number a PR states, not guesses.
"""
import pathlib

import pytest

from repro.observe import history

pytestmark = pytest.mark.fast
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_src_lines():
    src = REPO_ROOT / "src" / "repro"
    lines = {"total": 0}
    for path in sorted(src.rglob("*.py")):
        package = path.relative_to(src).parts[0] if path.parent != src else "_top"
        count = len(path.read_text().splitlines())
        lines[package] = lines.get(package, 0) + count
        lines["total"] += count
    assert lines["total"] > 0
    metrics = {f"src_lines.{name}": float(count) for name, count in lines.items()}
    history.append_record("src_lines", metrics, directory=REPO_ROOT)
