"""Benchmark fixtures: TPC-H data and the three physical schemes.

Scale factor via ``REPRO_SF`` (default 0.02); each report is printed and
its metrics appended to the benchmark's ``BENCH_<name>.json`` ledger.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro import tpch
from repro.observe import history
from repro.tpch.environment import make_environment
from repro.tpch.harness import build_schemes

BENCH_SF = float(os.environ.get("REPRO_SF", "0.02"))
BENCH_SEED = 7

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def bench_db():
    return tpch.generate(scale_factor=BENCH_SF, seed=BENCH_SEED)


@pytest.fixture(scope="session")
def bench_env():
    return make_environment(BENCH_SF)


@pytest.fixture(scope="session")
def bench_pdbs(bench_db, bench_env):
    return build_schemes(bench_db, bench_env)


def write_report(name: str, text: str, data: dict | None = None) -> None:
    """Print a paper-style table.  With ``data`` the flattened metrics
    are appended as one self-describing record (git SHA, UTC timestamp,
    host fingerprint) to the benchmark's history ledger
    ``BENCH_{name}.json`` at the repo root (``$REPRO_LEDGER_DIR``
    overrides), which ``python -m repro.observe regress`` holds to the
    committed record."""
    if data is not None:
        history.append_record(
            name,
            history.flatten_metrics(data),
            meta={"scale_factor": BENCH_SF, "seed": BENCH_SEED},
            directory=REPO_ROOT,
        )
    print(f"\n===== {name} =====\n{text}\n")
