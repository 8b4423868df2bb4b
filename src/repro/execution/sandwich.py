"""Reference group-at-a-time (sandwiched) operator implementations.

The executor runs joins and aggregations through vectorised kernels and
*accounts* for sandwiched execution (per-group memory, cache-resident
state, per-group overheads).  This module provides the literal
PartitionSplit / operator / PartitionRestart pipeline of the Sandwich
Operators paper [3]: inputs clustered by a shared group id are processed
one group at a time, each group through its own small hash join or
aggregation table.

It exists to *prove equivalence*: property tests assert that the
group-at-a-time results equal the vectorised kernels' results on the same
inputs, which is what justifies simulating sandwich execution by
accounting alone.  It also returns the observed per-group state sizes, so
tests can check the memory model against ground truth.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["grouped_join_reference", "grouped_aggregate_reference"]


def _group_slices(group_ids: np.ndarray) -> Dict[int, np.ndarray]:
    """Row indices per group id.  Inputs need not be clustered: the
    engine charges the paper's group-clustered delivery as one access
    per group without reordering rows, and grouping by a stable sort
    here is equivalent."""
    order = np.argsort(group_ids, kind="stable")
    sorted_ids = group_ids[order]
    boundaries = np.flatnonzero(np.diff(np.append(-1, sorted_ids.astype(np.int64))))
    slices: Dict[int, np.ndarray] = {}
    starts = list(boundaries) + [len(sorted_ids)]
    for i in range(len(boundaries)):
        start, end = starts[i], starts[i + 1]
        slices[int(sorted_ids[start])] = order[start:end]
    return slices


def grouped_join_reference(
    left_keys: np.ndarray,
    left_groups: np.ndarray,
    right_keys: np.ndarray,
    right_groups: np.ndarray,
) -> Tuple[List[Tuple[int, int]], int]:
    """Inner join executed one group at a time with per-group hash tables.

    Precondition (guaranteed by BDCC co-clustering): rows with equal join
    keys carry equal group ids on both sides — the test suite asserts
    this holds for real BDCC streams before relying on the result.

    Returns (sorted list of matching (left_row, right_row) pairs,
    max per-group build-table entries).
    """
    left_slices = _group_slices(left_groups)
    right_slices = _group_slices(right_groups)
    pairs: List[Tuple[int, int]] = []
    max_build = 0
    for group, right_rows in right_slices.items():
        left_rows = left_slices.get(group)
        if left_rows is None:
            continue
        table: Dict[object, List[int]] = {}
        for r in right_rows:
            table.setdefault(right_keys[r].item(), []).append(int(r))
        max_build = max(max_build, len(right_rows))
        for l in left_rows:
            for r in table.get(left_keys[l].item(), ()):
                pairs.append((int(l), r))
    return sorted(pairs), max_build


def grouped_aggregate_reference(
    keys: Sequence[np.ndarray],
    values: np.ndarray,
    groups: np.ndarray,
) -> Tuple[Dict[tuple, float], int]:
    """Grouped SUM executed partition-at-a-time.

    Returns (key tuple -> sum, max per-partition distinct keys) — the
    latter is the sandwiched aggregation's hash-table high-water mark.
    """
    slices = _group_slices(groups)
    totals: Dict[tuple, float] = {}
    max_states = 0
    for _, rows in slices.items():
        local: Dict[tuple, float] = {}
        for row in rows:
            key = tuple(k[row].item() for k in keys)
            local[key] = local.get(key, 0.0) + float(values[row])
        max_states = max(max_states, len(local))
        for key, total in local.items():
            if key in totals:
                raise AssertionError(
                    f"aggregation key {key} spans partitions — the "
                    "partitioning property is violated"
                )
            totals[key] = total
    return totals, max_states
