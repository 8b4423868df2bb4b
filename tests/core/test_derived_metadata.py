"""A BDCC table version derives its per-group metadata once: each use's
group number per count-table entry, the valid entries with their
offsets, and the logical selection.  Each must equal what recomputing
it from the count table gives — ``gather_use_bits`` over the entry keys
for every use and bit count — on built, consolidated and compacted
tables, and a new version (``dataclasses.replace``) derives its own."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import tpch
from repro.core.bdcc_table import BDCCBuildConfig, build_bdcc_table
from repro.core.bits import gather_use_bits, truncate_mask
from repro.core.count_table import CountTable
from repro.tpch.environment import make_environment
from repro.tpch.harness import build_schemes
from repro.tpch.refresh import stage_rf1, stage_rf2
from repro.updates import CompactionPolicy, UpdateSession

from .test_bdcc_table import _mini_db, _uses

SMALL_SF = 0.003
ALWAYS_COMPACT = CompactionPolicy(max_delta_fraction=0.0001, min_delta_rows=1)


@pytest.fixture(scope="module")
def tables():
    """name -> BDCCTable: built, consolidated, and compacted after an
    RF1/RF2 pair (every touched table folded)."""
    mini = _mini_db()
    out = {
        "built": build_bdcc_table(
            mini, "fact", _uses(mini),
            BDCCBuildConfig(efficient_access_bytes=256.0, consolidate_max_fraction=None),
        ),
        "consolidated mini": build_bdcc_table(
            mini, "fact", _uses(mini),
            BDCCBuildConfig(efficient_access_bytes=2048.0, consolidate_max_fraction=0.9),
        ),
    }
    env = make_environment(SMALL_SF)
    db = tpch.generate(scale_factor=SMALL_SF, seed=7)
    config = env.advisor_config(
        build=BDCCBuildConfig(efficient_access_bytes=1024.0, consolidate_max_fraction=0.5)
    )
    pdb = build_schemes(db, env, include=["bdcc"], advisor_config=config)["bdcc"]
    for name in ("lineitem", "orders", "partsupp"):
        out[f"consolidated {name}"] = pdb.table(name).bdcc
    session = UpdateSession(pdb, policy=ALWAYS_COMPACT)
    rng = np.random.default_rng(7)
    stage_rf1(session, db, rng, 20)
    session.commit()
    stage_rf2(session, db, rng, 20)
    session.commit()
    for name in ("lineitem", "orders"):
        out[f"compacted {name}"] = pdb.table(name).bdcc
    assert not out["consolidated mini"].count_table.valid.all()
    assert not out["consolidated lineitem"].count_table.valid.all()
    assert out["compacted lineitem"] is not out["consolidated lineitem"]
    assert out["compacted lineitem"].count_table.valid.all()
    return out


NAMES = [
    "built", "consolidated mini", "consolidated lineitem", "consolidated orders",
    "consolidated partsupp", "compacted lineitem", "compacted orders",
]


def _entry_mask(bdcc, use_index):
    return truncate_mask(bdcc.uses[use_index].mask, bdcc.total_bits, bdcc.granularity)


def _check_derived(bdcc):
    ct = bdcc.count_table
    for use_index in range(len(bdcc.uses)):
        mask = _entry_mask(bdcc, use_index)
        eff_bits = bdcc.effective_bits(use_index)
        full = gather_use_bits(ct.keys, mask)
        assert bdcc.entry_group_values(use_index).tobytes() == full.tobytes()
        for bits in range(eff_bits + 1):
            got = bdcc.entry_group_values(use_index, bits)
            want = gather_use_bits(ct.keys, mask, bits)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (use_index, bits)
        with pytest.raises(ValueError):
            bdcc.entry_group_values(use_index, eff_bits + 1)
    valid = ct.select_entries()
    assert np.array_equal(bdcc.valid_entries, valid)
    assert np.array_equal(bdcc.valid_offsets, ct.offsets[valid])
    assert bdcc.logical_selection.runs() == ct.selection(valid).runs()


@pytest.mark.parametrize("name", NAMES)
def test_derived_metadata_equals_the_count_table(tables, name):
    _check_derived(tables[name])


@pytest.mark.parametrize("name", NAMES)
def test_offsets_strictly_ascend(tables, name):
    """Fragment splits cut at the offsets as stored, unsorted: built
    entries come in key order with no empty group, and a consolidated
    region starts past every original row."""
    bdcc = tables[name]
    offsets = bdcc.count_table.offsets
    assert (np.diff(offsets) > 0).all()
    assert offsets[-1] < bdcc.stored_rows


@pytest.mark.parametrize("name", NAMES)
def test_a_new_version_derives_its_own(tables, name):
    bdcc = tables[name]
    ct = bdcc.count_table
    keep = np.arange(ct.num_entries) % 2 == 0  # every other entry, as a new version
    thinned = CountTable(
        ct.granularity, ct.keys[keep], ct.counts[keep], ct.offsets[keep], ct.valid[keep]
    )
    version = dataclasses.replace(bdcc, count_table=thinned)
    _check_derived(version)
    assert len(version.valid_entries) == np.count_nonzero(ct.valid[keep])
    _check_derived(bdcc)  # the old version is unchanged
    with pytest.raises(ValueError):
        dataclasses.replace(bdcc, valid_entries=np.zeros(0, dtype=np.int64))
    with pytest.raises(dataclasses.FrozenInstanceError):
        ct.keys = ct.keys[:1]


def _per_entry_reference(bdcc, restrictions):
    """Entries matching every restriction, from the bits of each entry's
    key (what entries_matching computed before the groups were derived)."""
    ct = bdcc.count_table
    keep = ct.valid.copy()
    for use_index, allowed_bins, bin_bits in restrictions:
        eff_bits = bdcc.effective_bits(use_index)
        if eff_bits == 0:
            continue
        take = min(eff_bits, bin_bits)
        values = gather_use_bits(ct.keys, _entry_mask(bdcc, use_index), take)
        allowed = np.asarray(allowed_bins, dtype=np.uint64) >> np.uint64(bin_bits - take)
        keep &= np.isin(values, allowed)
    return np.flatnonzero(keep)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(NAMES), st.data())
def test_entries_matching_equals_the_per_entry_bits(tables, name, data):
    bdcc = tables[name]
    restrictions = []
    for use_index in data.draw(st.sets(st.integers(0, len(bdcc.uses) - 1), min_size=1)):
        dimension = bdcc.uses[use_index].dimension
        allowed = data.draw(st.sets(st.integers(0, dimension.num_bins - 1), max_size=40))
        restrictions.append(
            (use_index, np.array(sorted(allowed), dtype=np.uint64), dimension.bits)
        )
    entries = bdcc.entries_matching(restrictions)
    assert np.array_equal(entries, _per_entry_reference(bdcc, restrictions))
    # the one truncation rule: zone prefixes that are the entry keys match alike
    zones = bdcc.restriction_mask(bdcc.count_table.keys, restrictions)
    assert np.array_equal(entries, np.flatnonzero(zones & bdcc.count_table.valid))
