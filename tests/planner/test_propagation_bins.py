"""Propagation bins each distinct qualifying host-key tuple once; the
bins must equal those of binning every qualifying host row, on every
scan of the 22 TPC-H queries under all three schemes, with propagation
and local-only, and again after an RF1/RF2 pair has grown and shrunk
the database."""

import numpy as np
import pytest

from repro import tpch
from repro.execution.operators import PhysicalScan
from repro.planner import propagation
from repro.planner.executor import ExecutionOptions, Executor
from repro.serving import capture_tpch_items
from repro.tpch.environment import make_environment
from repro.tpch.harness import build_schemes
from repro.tpch.queries import QUERIES
from repro.tpch.refresh import stage_rf1, stage_rf2
from repro.updates import CompactionPolicy, UpdateSession

REFRESH_SF = 0.002


def _every_row(key_columns):
    """``group_rows`` as if every row were its own group: the per-row
    binning the distinct-key path replaced."""
    n = len(key_columns[0])
    return np.arange(n, dtype=np.int64), np.arange(n, dtype=np.int64), n


def _restrictions(pdb, items, propagate):
    executor = Executor(pdb, options=ExecutionOptions(enable_propagation=propagate))
    out = []
    for item in items:
        for op in executor.lower(item.plan).operators():
            if isinstance(op, PhysicalScan):
                out.append((
                    item.description, op.alias,
                    [(u, bins.dtype.str, bins.tolist(), b) for u, bins, b in op.restrictions],
                ))
    return out


def _assert_distinct_binning_is_per_row(pdbs, items, monkeypatch):
    restricted = 0
    for pdb in pdbs.values():
        for propagate in (True, False):
            distinct = _restrictions(pdb, items, propagate)
            with monkeypatch.context() as patched:
                patched.setattr(propagation, "group_rows", _every_row)
                per_row = _restrictions(pdb, items, propagate)
            assert distinct == per_row, (pdb.scheme_name, propagate)
            restricted += sum(1 for _, _, r in distinct if r)
    assert restricted > 0  # the comparison saw restricted scans


def test_tpch_bins_equal_the_per_row_bins(physical_dbs, monkeypatch):
    items = capture_tpch_items(physical_dbs["bdcc"], QUERIES)
    assert len({item.description.split("/")[0] for item in items}) == 22
    _assert_distinct_binning_is_per_row(physical_dbs, items, monkeypatch)


def test_bins_after_a_refresh_pair_equal_the_per_row_bins(monkeypatch):
    db = tpch.generate(scale_factor=REFRESH_SF, seed=5)
    env = make_environment(REFRESH_SF)
    pdbs = build_schemes(db, env)
    session = UpdateSession(*pdbs.values(), policy=CompactionPolicy(max_delta_fraction=None))
    rng = np.random.default_rng(5)
    stage_rf1(session, db, rng, 12)
    session.commit()
    stage_rf2(session, db, rng, 12)
    session.commit()
    items = capture_tpch_items(pdbs["bdcc"], QUERIES)
    _assert_distinct_binning_is_per_row(pdbs, items, monkeypatch)


@pytest.mark.parametrize("columns", [
    [np.array([3, 1, 3, 3, 2, 1], dtype=np.int32)],
    [np.array([1, 1, 2, 2, 1]), np.array(["b", "a", "b", "b", "b"])],
])
def test_distinct_tuples_are_the_first_rows_of_each_tuple(columns):
    _, first_rows, num_groups = propagation.group_rows(columns)
    tuples = set(zip(*(c.tolist() for c in columns)))
    assert num_groups == len(tuples) == len(first_rows)
    assert set(zip(*(c[first_rows].tolist() for c in columns))) == tuples
