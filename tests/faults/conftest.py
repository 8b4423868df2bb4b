"""Fixtures for the fault cases: a small database of each test's own,
built fresh because a fault case commits to it."""

from __future__ import annotations

import numpy as np
import pytest

from repro import tpch
from repro.planner.executor import Executor
from repro.planner.logical import scan
from repro.schemes.bdcc import BDCCScheme
from repro.tpch.environment import make_environment
from repro.tpch.harness import build_schemes
from repro.workload.differential import normalized_rows

FAULTS_SF = 0.002
FAULTS_SEED = 1234


@pytest.fixture()
def faulted():
    """``(db, env, pdbs)``: plain, pk and a BDCC database whose LINEITEM
    has one replica — four stored copies of LINEITEM, in that order."""
    db = tpch.generate(scale_factor=FAULTS_SF, seed=FAULTS_SEED)
    env = make_environment(FAULTS_SF)
    pdbs = build_schemes(db, env, include=("plain", "pk"))
    pdbs["bdcc"] = BDCCScheme(
        advisor_config=env.advisor_config(),
        page_model=env.page_model,
        replica_uses={"lineitem": [[3]]},
    ).build(db)
    assert len(pdbs["bdcc"].replicas["lineitem"]) == 1
    return db, env, pdbs


def lineitem_batch(db, seed=0, k=24):
    """``k`` new LINEITEM rows copied from existing ones (fresh line
    numbers, so every foreign key still resolves)."""
    data = db.table_data("lineitem")
    pick = np.random.default_rng(seed).integers(0, db.num_rows("lineitem"), k)
    rows = {c: v[pick] for c, v in data.items()}
    rows["l_linenumber"] = (
        data["l_linenumber"].max() + 1 + np.arange(k)
    ).astype(data["l_linenumber"].dtype)
    return rows


def assert_scans_match(db, env, pdbs, tables=("lineitem", "orders")) -> None:
    """Every scheme's full scan of each table is, as a row multiset, the
    logical database's table."""
    for name, pdb in pdbs.items():
        executor = Executor(pdb, disk=env.disk, costs=env.cost_model)
        for table in tables:
            relation = executor.execute(scan(table)).relation
            names = sorted(relation.column_names)
            assert normalized_rows(relation.columns, names) == normalized_rows(
                db.table_data(table), names
            ), (name, table)
