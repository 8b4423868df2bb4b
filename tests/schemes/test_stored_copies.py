"""A stored copy gathers a column when it is first read.

Plain, PK and BDCC (a LINEITEM replica included) store one row order of
the logical tables each; their columns are ``StoredColumns`` over the
logical table version and that order.  Pinned here: a build gathers
nothing, every column read is the eager permuted copy byte for byte, a
commit's next version reuses what an earlier one gathered, compaction
does not depend on what was read before it, and a build holds a small
share of the logical database's bytes.
"""

import tracemalloc

import numpy as np
import pytest

from repro import tpch
from repro.schemes.bdcc import BDCCScheme
from repro.tpch.environment import make_environment
from repro.tpch.harness import build_schemes
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
        for name in a.definition.column_names:
            assert _same_array(ca.columns[name], cb.columns[name]), (a.name, name)
        if a.bdcc is not None:
            assert _same_array(ca.bdcc.keys, cb.bdcc.keys)
            assert _same_array(ca.bdcc.count_table.keys, cb.bdcc.count_table.keys)
            assert _same_array(ca.bdcc.count_table.counts, cb.bdcc.count_table.counts)


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
