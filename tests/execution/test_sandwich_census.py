"""The sandwich aggregate's partition census (``distinct_per_partition``)
reads each group's partition once when every group lies in one
partition, and factorises (partition, group) pairs otherwise.  Both
must equal the pair factorisation: on groups that a functional
dependency puts in one partition, on a NULL-extended group whose rows
span partitions (the fallback), and on zero rows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution import aggregate
from repro.execution.aggregate import distinct_per_partition, group_rows


def _pair_factorisation(partition_ids, group_index):
    _, pair_rows, _ = group_rows([partition_ids, group_index])
    return np.bincount(group_rows([partition_ids[pair_rows]])[0])


def _census(partition_ids, group_index):
    """The census, and whether it fell back to factorising pairs."""
    widths = []

    def counted(columns):
        widths.append(len(columns))
        return group_rows(columns)

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(aggregate, "group_rows", counted)
        out = distinct_per_partition(partition_ids, group_index)
    return out, 2 in widths


@st.composite
def _stream(draw, spanning):
    """``(partition_ids, group_index)`` of an aggregate's input: group
    keys, each group's partition a function of its key; with
    ``spanning`` one group — the NULL placeholder of a left join's
    unmatched rows — holds rows of two partitions."""
    keys = np.array(draw(st.lists(st.integers(0, 30), min_size=1, max_size=200)))
    partition_of_key = np.array(draw(st.lists(st.integers(0, 2**40), min_size=31, max_size=31)))
    partition_ids = partition_of_key[keys].astype(np.uint64)
    if spanning:
        null_rows = np.flatnonzero(keys == keys[0])
        partition_ids = partition_ids.copy()
        partition_ids[null_rows[-1]] += np.uint64(1)
        if len(null_rows) == 1:  # a second row for the placeholder group
            keys = np.append(keys, keys[0])
            partition_ids = np.append(partition_ids, partition_ids[0] + np.uint64(2))
    group_index, _, _ = group_rows([keys])
    return partition_ids, group_index


@settings(max_examples=80, deadline=None)
@given(_stream(spanning=False))
def test_groups_in_one_partition_read_their_partition_once(stream):
    partition_ids, group_index = stream
    out, fell_back = _census(partition_ids, group_index)
    assert not fell_back
    expected = _pair_factorisation(partition_ids, group_index)
    assert out.dtype == expected.dtype and np.array_equal(out, expected)


@settings(max_examples=80, deadline=None)
@given(_stream(spanning=True))
def test_a_group_spanning_partitions_falls_back(stream):
    partition_ids, group_index = stream
    out, fell_back = _census(partition_ids, group_index)
    assert fell_back
    expected = _pair_factorisation(partition_ids, group_index)
    assert out.dtype == expected.dtype and np.array_equal(out, expected)


def test_a_null_extended_group_counts_in_each_of_its_partitions():
    # customers 1..3, the last two unmatched: the NULL order key's group
    # holds rows of partitions 5 and 9
    partition_ids = np.array([5, 5, 5, 9, 9], dtype=np.uint64)
    group_index = np.array([1, 1, 0, 0, 2], dtype=np.int64)
    out, fell_back = _census(partition_ids, group_index)
    assert fell_back and out.tolist() == [2, 2]


def test_zero_rows():
    out, _ = _census(np.zeros(0, np.uint64), np.zeros(0, np.int64))
    expected = _pair_factorisation(np.zeros(0, np.uint64), np.zeros(0, np.int64))
    assert out.dtype == expected.dtype and len(out) == len(expected) == 0
