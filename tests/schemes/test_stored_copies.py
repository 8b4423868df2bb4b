"""A stored copy gathers a column when it is first read.

Plain, PK and BDCC (a LINEITEM replica included) store one row order of
the logical tables each; their columns are an ``IndexedColumns`` over
the logical table's pieces and that order.  Pinned here: a build and
lowering gather nothing, every column read is the eager permuted copy
byte for byte, a commit's next version reuses what an earlier one
gathered, compaction copies no column — a compacted copy reads as the
eager merge did, releases a run whose rows were all deleted and does
not depend on what was read before it — and a build and a compacting
commit hold a small share of the logical bytes.  A copy whose row order
is the logical order keeps no row index: it hands out the logical
arrays, and no query gathers a duplicate of them.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro import tpch
from repro.core.selection import Selection
from repro.execution.expressions import Cmp, Col, InList, lit
from repro.planner import Executor, explain, scan
from repro.schemes.bdcc import BDCCScheme
from repro.tpch.environment import make_environment
from repro.tpch.harness import build_schemes, run_suite
from repro.tpch.refresh import refresh_pair_size, stage_rf1, stage_rf2
from repro.updates import CompactionPolicy, UpdateSession
from repro.updates.compaction import compact_table

SF = 0.002
SEEDS = [7, 11]
NO_COMPACTION = CompactionPolicy(max_delta_fraction=None)


def _build(seed):
    """``(db, env, pdbs)``: plain, pk and bdcc, the last with a LINEITEM
    replica clustered on one use, all built now from a fresh database."""
    db = tpch.generate(scale_factor=SF, seed=seed)
    env = make_environment(SF)
    pdbs = build_schemes(db, env, include=["plain", "pk"])
    pdbs["bdcc"] = BDCCScheme(
        advisor_config=env.advisor_config(), page_model=env.page_model,
        replica_uses={"lineitem": [[3]]},
    ).build(db)
    return db, env, pdbs


def _copies(pdbs):
    """``(scheme, stored table)`` for every stored copy, replicas too."""
    return [
        (scheme, stored)
        for scheme, pdb in pdbs.items()
        for name in pdb.stored
        for stored in pdb.stored_copies(name)
    ]


def _row_source(db, scheme, stored):
    """The copy's row order, derived independently of the scheme code."""
    if stored.bdcc is not None:
        return stored.bdcc.row_source
    data = db.table_data(stored.name)
    pk = stored.definition.primary_key
    if scheme == "pk" and pk:
        return np.lexsort(tuple(data[c] for c in reversed(pk)))
    return np.arange(db.num_rows(stored.name))


def _commit_refresh_pair(db, pdbs, seed):
    """One RF1 and one RF2, committed together without compaction."""
    rng = np.random.default_rng(seed)
    session = UpdateSession(*pdbs.values(), policy=NO_COMPACTION)
    stage_rf1(session, db, rng, refresh_pair_size(SF))
    stage_rf2(session, db, rng, refresh_pair_size(SF))
    session.commit()


def _same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _eager_compaction(stored):
    """What compacting ``stored`` wrote before it copied nothing: per
    column, the live base rows and the runs' live rows concatenated and
    put in storage order (``_bdcc_`` keys, else the sort columns)."""
    delta = stored.delta
    live_base = stored.logical_selection().intersect(
        Selection.from_mask(~delta.base_deleted)
    ).rows()
    live = [~run.deleted for run in delta.runs]
    merged = {
        name: np.concatenate(
            [stored.columns[name][live_base]]
            + [run.columns[name][keep] for run, keep in zip(delta.runs, live)]
        )
        for name in stored.definition.column_names
    }
    if stored.bdcc is not None:
        keys = np.concatenate(
            [stored.bdcc.keys[live_base]] + [run.keys[keep] for run, keep in zip(delta.runs, live)]
        )
        order = np.argsort(keys, kind="stable")
    elif stored.sort_columns:
        order = np.lexsort(tuple(merged[c] for c in reversed(stored.sort_columns)))
    else:
        return merged
    return {name: values[order] for name, values in merged.items()}


def _compact_all(db, env, pdbs, tables):
    """Compact every dirty stored copy of ``tables`` and fold the logical
    tables, as a commit that crosses the policy does; returns
    ``[(eager reference, compacted copy)]``."""
    compacted = []
    for pdb in pdbs.values():
        for name in tables:
            for stored in pdb.stored_copies(name):
                if not stored.has_delta:
                    continue
                reference = _eager_compaction(stored)
                new, _, _ = compact_table(stored, env.disk, env.cost_model)
                pdb.publish({stored: new})
                compacted.append((reference, new))
    for name in tables:
        db.fold(name)
    return compacted


@pytest.mark.parametrize("seed", SEEDS)
def test_lowering_gathers_no_column(seed):
    # widths and dtypes come from the mapping, not from gathered columns
    db, _, pdbs = _build(seed)
    for pdb in pdbs.values():
        explain(Executor(pdb), scan("orders"))
        explain(Executor(pdb), scan("lineitem").filter(Cmp("==", Col("l_shipmode"), lit("MAIL"))))
        assert pdb.table("orders").columns.gathered == ()
        assert pdb.table("lineitem").columns.gathered == ()


@pytest.mark.parametrize("seed", SEEDS)
def test_a_build_gathers_nothing(seed):
    db, _, pdbs = _build(seed)
    assert pdbs["bdcc"].replicas["lineitem"]
    for scheme, stored in _copies(pdbs):
        assert stored.stored_rows == len(_row_source(db, scheme, stored))
        assert stored.total_bytes() > 0
        assert stored.columns.gathered == (), (scheme, stored.name)


@pytest.mark.parametrize("seed", SEEDS)
def test_every_column_is_the_permuted_logical_column(seed):
    db, _, pdbs = _build(seed)
    for scheme, stored in _copies(pdbs):
        rows = _row_source(db, scheme, stored)
        data = db.table_data(stored.name)
        assert list(stored.columns) == list(data)
        for name in stored.definition.column_names:
            assert _same_array(stored.columns[name], data[name][rows]), (
                scheme, stored.name, name,
            )
            # kept: a second read is the same array
            assert stored.columns[name] is stored.columns[name]


@pytest.mark.parametrize("seed", SEEDS)
def test_a_commit_reuses_the_gathered_columns(seed):
    db, _, pdbs = _build(seed)
    touched = ("orders", "lineitem")
    old = [stored for _, stored in _copies(pdbs) if stored.name in touched]
    held = [
        {name: stored.columns[name] for name in stored.definition.column_names[:2]}
        for stored in old
    ]
    _commit_refresh_pair(db, pdbs, seed)
    new = [stored for _, stored in _copies(pdbs) if stored.name in touched]
    assert len(new) == len(old)
    for stored, previous, columns in zip(new, old, held):
        assert stored is not previous and stored.epoch == previous.epoch + 1
        assert stored.has_delta
        for name, values in columns.items():
            assert stored.columns[name] is values, (stored.name, name)


@pytest.mark.parametrize("seed", SEEDS)
def test_compaction_does_not_depend_on_what_was_read(seed):
    lazy_db, env, lazy = _build(seed)
    read_db, _, read = _build(seed)
    for _, stored in _copies(read):
        for name in stored.columns:
            stored.columns[name]
    _commit_refresh_pair(lazy_db, lazy, seed)
    _commit_refresh_pair(read_db, read, seed)
    pairs = [
        (a, b) for (_, a), (_, b) in zip(_copies(lazy), _copies(read))
        if a.name in ("orders", "lineitem")
    ]
    assert pairs
    for a, b in pairs:
        if b.columns.gathered:  # an ordered copy: the lazy one read less
            assert len(a.columns.gathered) < len(b.columns.gathered) == len(b.columns)
        ca, io_a, cpu_a = compact_table(a, env.disk, env.cost_model)
        cb, io_b, cpu_b = compact_table(b, env.disk, env.cost_model)
        assert (io_a, cpu_a) == (io_b, cpu_b)
        assert ca.stored_rows == cb.stored_rows
        assert ca.columns.gathered == cb.columns.gathered == ()
        for name in a.definition.column_names:
            assert _same_array(ca.columns[name], cb.columns[name]), (a.name, name)
        if a.bdcc is not None:
            assert _same_array(ca.bdcc.keys, cb.bdcc.keys)
            assert _same_array(ca.bdcc.count_table.keys, cb.bdcc.count_table.keys)
            assert _same_array(ca.bdcc.count_table.counts, cb.bdcc.count_table.counts)


@pytest.mark.parametrize("seed", SEEDS)
def test_a_compacted_copy_gathers_nothing_and_reads_as_the_eager_merge(seed):
    db, env, pdbs = _build(seed)
    touched = ("orders", "lineitem")
    for round_ in range(3):
        _commit_refresh_pair(db, pdbs, seed + round_)
        compacted = _compact_all(db, env, pdbs, touched)
        # plain, pk and bdcc of both tables, and the LINEITEM replica
        assert len(compacted) == 7
        for reference, stored in compacted:
            assert not stored.has_delta
            assert stored.columns.gathered == (), (round_, stored.name)
            assert stored.stored_rows == db.num_rows(stored.name)
            for name in stored.definition.column_names:
                assert stored.columns.dtype(name) == reference[name].dtype
                assert _same_array(stored.columns[name], reference[name]), (
                    round_, stored.name, name,
                )


@pytest.mark.parametrize("seed", SEEDS)
def test_compaction_releases_a_run_whose_rows_were_all_deleted(seed):
    db, env, pdbs = _build(seed)
    rng = np.random.default_rng(seed)
    session = UpdateSession(*pdbs.values(), policy=NO_COMPACTION)
    stage_rf1(session, db, rng, refresh_pair_size(SF))
    session.commit()
    runs = [
        weakref.ref(stored.delta.runs[0].columns[name])
        for _, stored in _copies(pdbs) if stored.name in ("orders", "lineitem")
        for name in stored.definition.column_names
    ]
    new_keys = db.version("orders").runs[0].columns["o_orderkey"].tolist()
    session.delete_where("lineitem", InList(Col("l_orderkey"), new_keys))
    session.delete_where("orders", InList(Col("o_orderkey"), new_keys))
    session.commit()
    for _, stored in _copies(pdbs):
        if stored.name in ("orders", "lineitem"):
            assert stored.delta.runs[0].live_rows == 0
    del stored
    _compact_all(db, env, pdbs, ("orders", "lineitem"))
    gc.collect()
    assert all(run() is None for run in runs)


def test_a_build_holds_a_small_share_of_the_logical_bytes():
    # the eager copies held about twice the logical bytes (one PK and
    # one BDCC copy of every column); what is left is row orders, keys,
    # count tables and the design's foreign-key walks
    db = tpch.generate(scale_factor=0.01, seed=7)
    env = make_environment(0.01)
    logical = sum(
        values.nbytes for table in db.loaded_tables
        for values in db.table_data(table).values()
    )
    tracemalloc.start()
    try:
        pdbs = build_schemes(db, env, include=["pk", "bdcc"])
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pdbs["bdcc"].stored["lineitem"].columns.gathered == ()
    assert held < 0.25 * logical, (held, logical)


def test_the_commit_that_compacts_orders_holds_less_than_its_logical_bytes():
    # compaction used to write every column of each copy it folded and
    # the logical fold a third copy: +47 MB at this scale (6.7x ORDERS)
    db = tpch.generate(scale_factor=0.01, seed=7)
    env = make_environment(0.01)
    pdbs = build_schemes(db, env, include=["pk", "bdcc"])
    orders = sum(values.nbytes for values in db.table_data("orders").values())
    session = UpdateSession(*pdbs.values(), policy=CompactionPolicy(0.02))
    rng = np.random.default_rng(7)
    tracemalloc.start()
    try:
        for _ in range(20):
            stage_rf1(session, db, rng, refresh_pair_size(0.01))
            stage_rf2(session, db, rng, refresh_pair_size(0.01))
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            result = session.commit()
            _, peak = tracemalloc.get_traced_memory()
            if any(c.compacted and c.table == "orders" for c in result.changes):
                break
        else:
            pytest.fail("no commit compacted orders")
    finally:
        tracemalloc.stop()
    assert {c.scheme for c in result.changes if c.compacted and c.table == "orders"} == {"pk", "bdcc"}
    assert peak - before < orders, (peak - before, orders)


#: tables TPC-H loads sorted on their primary key (PARTSUPP is not)
IN_KEY_ORDER = ("lineitem", "orders", "customer", "part", "supplier", "nation", "region")


def _assert_in_order_copies(db, pdbs):
    """PK copies of the tables loaded in key order are the logical
    arrays; PK PARTSUPP and BDCC LINEITEM keep their index and read as
    the permuted logical columns."""
    for name in IN_KEY_ORDER:
        stored = pdbs["pk"].table(name)
        rows = _row_source(db, "pk", stored)
        data = db.table_data(name)
        assert stored.columns.index_bytes == 0, name
        for column in stored.definition.column_names:
            values = stored.columns[column]
            assert np.shares_memory(values, data[column]), (name, column)
            assert _same_array(values, data[column][rows]), (name, column)
    for scheme, name in (("pk", "partsupp"), ("bdcc", "lineitem")):
        stored = pdbs[scheme].table(name)
        rows = _row_source(db, scheme, stored)
        data = db.table_data(name)
        assert stored.columns.index_bytes == rows.nbytes, (scheme, name)
        for column in stored.definition.column_names:
            values = stored.columns[column]
            assert not np.shares_memory(values, data[column]), (scheme, name, column)
            assert _same_array(values, data[column][rows]), (scheme, name, column)


@pytest.mark.parametrize("seed", SEEDS)
def test_a_copy_in_logical_order_is_the_logical_arrays(seed):
    db = tpch.generate(scale_factor=0.01, seed=seed)
    _assert_in_order_copies(db, build_schemes(db, make_environment(0.01), include=["pk", "bdcc"]))


@pytest.mark.parametrize("seed", SEEDS)
def test_the_tpch_queries_gather_nothing_from_a_copy_in_logical_order(seed):
    db = tpch.generate(scale_factor=0.01, seed=seed)
    env = make_environment(0.01)
    pdbs = build_schemes(db, env, include=["pk", "bdcc"])
    run_suite({"pk": pdbs["pk"]}, env)
    for name in IN_KEY_ORDER:
        assert pdbs["pk"].table(name).columns.gathered == (), name
    assert pdbs["pk"].table("partsupp").columns.gathered
    _assert_in_order_copies(db, pdbs)
