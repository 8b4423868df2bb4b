"""Stored tables are values: a commit publishes new versions and never
changes one a reader holds.

A plan lowered before a commit — and its compaction — keeps reading the
versions it scans, to its pre-commit rows; a table fetched before the
commit keeps its columns, runs, bitmaps and count table; a fresh
lowering sees the commit.
"""

import numpy as np
import pytest

from repro.execution.expressions import col
from repro.planner.executor import Executor
from repro.planner.logical import scan
from repro.updates import CompactionPolicy, UpdateSession
from repro.workload.differential import normalized_rows

from .conftest import sample_lineitem_insert, sample_orders_insert

NO_COMPACTION = CompactionPolicy(max_delta_fraction=None)
ALWAYS_COMPACT = CompactionPolicy(max_delta_fraction=0.0, min_delta_rows=1)


def _commit(db, pdbs, policy, seed, quantity):
    rng = np.random.default_rng(seed)
    session = UpdateSession(*pdbs.values(), policy=policy)
    orders = sample_orders_insert(db, rng, 10)
    session.insert_rows("orders", orders)
    session.insert_rows("lineitem", sample_lineitem_insert(db, rng, orders["o_orderkey"]))
    session.delete_where("lineitem", col("l_quantity").ge(quantity))
    return session.commit()


def _arrays(table) -> dict:
    """Copies of every array a stored table reads through."""
    arrays = {f"column {c}": v.copy() for c, v in table.columns.items()}
    arrays["base_deleted"] = table.delta.base_deleted.copy()
    for i, run in enumerate(table.delta.runs):
        arrays.update({f"run {i} {c}": v.copy() for c, v in run.columns.items()})
        arrays[f"run {i} deleted"] = run.deleted.copy()
    if table.bdcc is not None:
        ct = table.bdcc.count_table
        for name in ("keys", "counts", "offsets", "valid"):
            arrays[f"count table {name}"] = getattr(ct, name).copy()
        arrays["bdcc keys"] = table.bdcc.keys.copy()
    return arrays


def _rows(relation):
    names = sorted(relation.column_names)
    return normalized_rows(relation.columns, names)


@pytest.mark.parametrize("scheme", ["plain", "pk", "bdcc"])
def test_a_held_plan_and_table_survive_a_compacting_commit(fresh, scheme):
    db, env, pdbs = fresh
    pdb = pdbs[scheme]
    # a first commit leaves runs and deletion bitmaps to hold on to
    _commit(db, pdbs, NO_COMPACTION, seed=1, quantity=49.0)
    executor = Executor(pdb, disk=env.disk, costs=env.cost_model)
    plan = scan("lineitem", predicate=col("l_quantity").ge(20.0))
    held_plan = executor.lower(plan)
    before = _rows(executor.run(held_plan).relation)
    held = pdb.table("lineitem")
    held_delta, held_bdcc = held.delta, held.bdcc
    arrays = _arrays(held)

    result = _commit(db, pdbs, ALWAYS_COMPACT, seed=2, quantity=45.0)
    assert "lineitem" in result.compacted_tables(scheme)

    # the held plan reads the versions it was lowered against ...
    assert _rows(executor.run(held_plan).relation) == before
    # ... and the held table is the one it was
    assert held.delta is held_delta and held.bdcc is held_bdcc
    now = _arrays(held)
    assert now.keys() == arrays.keys()
    for name, values in arrays.items():
        assert np.array_equal(now[name], values), name

    # a fresh lowering sees the commit, compacted
    current = pdb.table("lineitem")
    assert current is not held and current.epoch > held.epoch
    assert not current.has_delta
    fresh_plan = executor.lower(plan)
    assert fresh_plan is not held_plan
    relation = executor.run(fresh_plan).relation
    data = db.table_data("lineitem")
    keep = data["l_quantity"] >= 20.0
    expected = normalized_rows(
        {c: v[keep] for c, v in data.items()}, sorted(relation.column_names)
    )
    assert _rows(relation) == expected != before
