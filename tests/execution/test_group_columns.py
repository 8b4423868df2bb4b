"""A scan's hidden group columns are per-group facts read off the count
table, and they must equal what extracting the bits from every selected
row's ``_bdcc_`` key gave — value, order and dtype — on every scan shape:
a full scan of a dense table, pushdown- and zone-map-selected scans,
masked deletes, a consolidated table, the fragmenter's scan and
delta-scan partitions, and a merge-on-read scan — over several delta
runs, on a dense and on a consolidated table — whose delta rows have no
count-table entry: it extracts the bits once per zone run of the
key-sorted merged keys, and each row reads its run's.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import tpch
from repro.core.bdcc_table import BDCCBuildConfig
from repro.core.bits import gather_use_bits
from repro.execution import operators
from repro.execution.expressions import col
from repro.execution.metrics import ExecutionMetrics
from repro.execution.operators import ExecutionContext, PhysicalScan
from repro.parallel.fragments import plan_fragments
from repro.planner.executor import Executor
from repro.planner.logical import scan
from repro.tpch.environment import make_environment
from repro.tpch.harness import build_schemes
from repro.tpch.refresh import stage_rf1, stage_rf2
from repro.updates import CompactionPolicy, UpdateSession

SMALL_SF = 0.003


def _bdcc(sf, seed, config=None):
    env = make_environment(sf)
    db = tpch.generate(scale_factor=sf, seed=seed)
    advisor = None if config is None else env.advisor_config(build=config)
    return env, build_schemes(db, env, include=["bdcc"], advisor_config=advisor)["bdcc"]


@pytest.fixture(scope="module")
def databases(bdcc_db, environment):
    """One BDCC database per storage shape; only the first is shared."""
    consolidated = _bdcc(
        SMALL_SF, 7, BDCCBuildConfig(efficient_access_bytes=1024.0, consolidate_max_fraction=0.5)
    )
    assert not consolidated[1].table("lineitem").bdcc.count_table.valid.all()

    deletes = _bdcc(SMALL_SF, 11)
    session = UpdateSession(deletes[1], policy=CompactionPolicy(max_delta_fraction=None))
    session.delete_where("lineitem", col("l_tax").ge(0.07))
    session.delete_where("orders", col("o_totalprice").ge(250000.0))
    session.commit()

    delta = _bdcc(SMALL_SF, 13)
    session = UpdateSession(delta[1], policy=CompactionPolicy(max_delta_fraction=None))
    rng = np.random.default_rng(3)
    for _ in range(2):
        stage_rf1(session, delta[1].database, rng, 40)
        session.commit()
        stage_rf2(session, delta[1].database, rng, 20)
        session.commit()
    consolidated_delta = _bdcc(
        SMALL_SF, 17, BDCCBuildConfig(efficient_access_bytes=1024.0, consolidate_max_fraction=0.5)
    )
    session = UpdateSession(
        consolidated_delta[1], policy=CompactionPolicy(max_delta_fraction=None)
    )
    for _ in range(3):
        stage_rf1(session, consolidated_delta[1].database, rng, 30)
        session.commit()
        stage_rf2(session, consolidated_delta[1].database, rng, 15)
        session.commit()
    lineitem = consolidated_delta[1].table("lineitem")
    assert not lineitem.bdcc.count_table.valid.all() and len(lineitem.delta.runs) >= 3
    return {
        "dense": (environment, bdcc_db),
        "consolidated": consolidated,
        "deletes": deletes,
        "delta": delta,
        "consolidated delta": consolidated_delta,
    }


def _between(db, table, column, lo, hi):
    values = db.column(table, column)
    low, high = np.quantile(values, [min(lo, hi), max(lo, hi)])
    return col(column).ge(low) & col(column).le(high)


#: logical plans over the scans whose group columns are checked
PLANS = {
    "orders": lambda db, lo, hi: scan("orders"),
    "orders by date": lambda db, lo, hi: scan(
        "orders", predicate=_between(db, "orders", "o_orderdate", lo, hi)
    ),
    "lineitem by shipdate": lambda db, lo, hi: scan(
        "lineitem", predicate=_between(db, "lineitem", "l_shipdate", lo, hi)
    ),
    "lineitem join orders by date": lambda db, lo, hi: scan("lineitem").join(
        scan("orders", predicate=_between(db, "orders", "o_orderdate", lo, hi)),
        on=[("l_orderkey", "o_orderkey")],
    ),
    "partsupp": lambda db, lo, hi: scan("partsupp"),
}


def _scans(pdb, plan, workers):
    pplan = Executor(pdb).lower(plan)
    ops = list(pplan.operators())
    if workers > 1:
        ops += list(plan_fragments(pplan, workers, min_partition_rows=256).operators())
    return [
        op for op in ops
        if isinstance(op, PhysicalScan) and op.stored.bdcc is not None and op.sandwich_uses
    ]


def _has_delta_rows(op):
    return op.delta_selected is not None and any(len(s) for _, s in op.delta_selected)


def _merged_keys(op):
    """The ``_bdcc_`` key of every row the scan emits, in emission order."""
    keys = op.stored.bdcc.keys[op.selection.rows()]
    if op.delta_selected is not None:
        runs = op.stored.delta.runs
        # the merged stream is in _bdcc_ key order
        keys = np.sort(
            np.concatenate([keys] + [runs[i].keys[s.rows()] for i, s in op.delta_selected])
        )
    return keys


def _reference_groups(op):
    """The bits of every emitted row's key, extracted row by row."""
    bdcc = op.stored.bdcc
    keys = _merged_keys(op)
    return {name: gather_use_bits(keys, bdcc.uses[u].mask, b) for u, b, name in op.sandwich_uses}


def _check(op, env):
    ctx = ExecutionContext(env.disk, env.cost_model, ExecutionMetrics())
    rel = dataclasses.replace(op, predicate=None).execute(ctx)
    for name, expected in _reference_groups(op).items():
        got = rel.columns[name]
        assert got.dtype == expected.dtype, name
        assert got.tobytes() == expected.tobytes(), name


def _shape(op):
    bdcc = op.stored.bdcc
    # a partition's rationale ends in its zone-aligned share of the scan
    rationale = op.rationale
    if _has_delta_rows(op):
        return "delta partition" if "-aligned" in rationale else "delta merge"
    if "-aligned" in rationale:
        return "partition"
    if not bdcc.count_table.valid.all():
        return "consolidated"
    if "deleted rows masked" in rationale:
        return "deletes masked"
    if "minmax" in rationale:
        return "zone-map pruned"
    if not op.selection.is_whole(op.stored.stored_rows):
        return "pushdown selected"
    ct = bdcc.count_table
    assert np.array_equal(ct.offsets, np.cumsum(ct.counts) - ct.counts)  # entries tile storage
    return "full dense scan"


SHAPES = {
    "full dense scan", "pushdown selected", "zone-map pruned", "deletes masked",
    "consolidated", "partition", "delta partition", "delta merge",
}


def test_every_shape_matches_the_per_row_bits_and_takes_its_path(databases, monkeypatch):
    calls = []

    def counted(keys, mask, num_bits=None):
        calls.append(len(keys))
        return gather_use_bits(keys, mask, num_bits)

    monkeypatch.setattr(operators, "gather_use_bits", counted)
    seen = set()
    for env, pdb in databases.values():
        for make in PLANS.values():
            for lo, hi in ((0.0, 1.0), (0.3, 0.6)):
                for op in _scans(pdb, make(pdb.database, lo, hi), workers=4):
                    calls.clear()
                    _check(op, env)
                    # only a merge extracts bits from keys, once per zone run
                    assert bool(calls) == _has_delta_rows(op), _shape(op)
                    if calls:
                        zones = len(np.unique(op.stored.bdcc.zone_of(_merged_keys(op))))
                        assert calls == [zones] * len(op.sandwich_uses), _shape(op)
                    seen.add(_shape(op))
    assert seen == SHAPES


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["dense", "consolidated", "deletes", "delta", "consolidated delta"]),
    st.sampled_from(sorted(PLANS)),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.sampled_from([1, 2, 4]),
)
def test_group_columns_equal_the_key_bits(databases, name, plan, lo, hi, workers):
    env, pdb = databases[name]
    for op in _scans(pdb, PLANS[plan](pdb.database, lo, hi), workers):
        _check(op, env)
