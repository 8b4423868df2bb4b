"""Vectorised grouping and aggregation kernels.

Like the join kernels these are strategy-agnostic: hash, streaming and
sandwiched aggregation all produce identical results through these
functions; the planner's choice changes only cost and memory accounting.

Rows are ranked by the key kernels of :mod:`repro.storage.keys`
(:func:`~repro.storage.keys.factorize`, and
:func:`~repro.storage.keys.fold_keys` for tuples of columns); group
numbering follows key sort order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..storage.keys import factorize, fold_keys
from .expressions import Evaluated, fill_nulls

__all__ = [
    "AggSpec",
    "MergeSpec",
    "group_rows",
    "apply_aggregate",
    "decompose_aggs",
    "merge_partial_aggregates",
    "distinct_per_partition",
]

SUPPORTED_AGGS = ("sum", "count", "avg", "min", "max", "count_distinct")

#: aggregates with an exact partial/merge decomposition (two-phase
#: parallel aggregation); ``count_distinct`` is *not* decomposable —
#: per-partition distinct counts do not merge — and blocks the rewrite.
DECOMPOSABLE_AGGS = ("sum", "count", "avg", "min", "max")


@dataclass(frozen=True)
class AggSpec:
    """One output aggregate: ``name = fn(expr)``.

    ``expr`` may be None for ``count(*)``.  A row where ``expr`` is NULL
    does not contribute, and ``sum``, ``avg``, ``min`` and ``max`` over
    no valid row are NULL, as in SQL (:func:`apply_aggregate`).
    """

    name: str
    fn: str
    expr: object = None  # Expr | None

    def __post_init__(self) -> None:
        if self.fn not in SUPPORTED_AGGS:
            raise ValueError(f"unsupported aggregate {self.fn!r}")


def group_rows(key_columns: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray, int]:
    """Factorise rows by key tuple.

    Returns ``(group_index_per_row, representative_row_per_group,
    num_groups)``; group numbering follows key sort order and a group's
    representative is its first row.
    """
    if not key_columns:
        raise ValueError("group_rows requires at least one key column")
    codes, space = fold_keys(key_columns)
    n = len(codes)
    if space > n:  # sparse tuples: rank the codes themselves
        codes, space = factorize(codes)
    # a code space no larger than the rows: number the codes that occur
    # through a presence table instead of sorting the rows
    present = np.zeros(space, dtype=bool)
    present[codes] = True
    rank = np.cumsum(present) - 1
    group_index = rank[codes]
    num_groups = int(np.count_nonzero(present))
    # np.minimum.at, not first_rows[codes[::-1]] = ...: which write wins
    # a repeated fancy-index assignment is unspecified
    first_rows = np.full(num_groups, n, dtype=np.int64)
    np.minimum.at(first_rows, group_index, np.arange(n, dtype=np.int64))
    return group_index, first_rows, num_groups


def _group_sums(group_index: np.ndarray, values: np.ndarray, num_groups: int) -> np.ndarray:
    """Per-group float64 sums.  ``np.bincount`` answers an empty input
    with *integer* zeros, weights or not; the cast keeps the column's
    type independent of how many rows fed it."""
    sums = np.bincount(group_index, weights=values.astype(np.float64), minlength=num_groups)
    return sums.astype(np.float64, copy=False)


def apply_aggregate(
    spec: AggSpec,
    group_index: np.ndarray,
    num_groups: int,
    values: Optional[np.ndarray],
    valid: Optional[np.ndarray] = None,
) -> Evaluated:
    """Evaluate one aggregate over pre-factorised groups: its values and
    their validity.  NULL inputs (``valid`` False) do not contribute; a
    ``sum``, ``avg``, ``min`` or ``max`` over no valid row is NULL, over
    its dtype's placeholder (:func:`~repro.execution.expressions.fill_nulls`),
    so a serial and a merged run agree bit for bit.  The validity is
    None when the input carries no mask; a count is never NULL."""
    if spec.fn == "count":
        counted = group_index if valid is None else group_index[valid]
        return np.bincount(counted, minlength=num_groups).astype(np.int64), None

    if values is None:
        raise ValueError(f"aggregate {spec.fn} requires an expression")
    seen = None  # the groups with a valid row, when some row is NULL
    if valid is not None:
        group_index = group_index[valid]
        values = values[valid]
        if spec.fn != "count_distinct":
            seen = np.bincount(group_index, minlength=num_groups) > 0

    if spec.fn == "sum":
        out = _group_sums(group_index, values, num_groups)
    elif spec.fn == "avg":
        sums = _group_sums(group_index, values, num_groups)
        counts = np.bincount(group_index, minlength=num_groups)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = sums / counts
    elif spec.fn in ("min", "max") and values.dtype.kind == "U":
        # string extrema via per-group sort (rare; small inputs): the
        # first (min) or last (max) row of each group's run — no run,
        # hence nothing to pick, when the input is empty
        order = np.lexsort((values, group_index))
        gsorted = group_index[order]
        if spec.fn == "min":
            picks = np.flatnonzero(np.diff(np.append(-1, gsorted)))
        else:
            picks = np.flatnonzero(np.diff(np.append(gsorted, -1)))
        out = np.zeros(num_groups, dtype=values.dtype)
        out[gsorted[picks]] = values[order][picks]
    elif spec.fn in ("min", "max"):
        ufunc = np.minimum if spec.fn == "min" else np.maximum
        if values.dtype.kind in "iu":
            # exact in int64: a detour through float64 rounds beyond
            # 2**53 to a value that is not in the input
            info = np.iinfo(np.int64)
            out = np.full(num_groups, info.max if spec.fn == "min" else info.min, dtype=np.int64)
            values = values.astype(np.int64, copy=False)
        else:
            out = np.full(num_groups, np.inf if spec.fn == "min" else -np.inf, dtype=np.float64)
            values = values.astype(np.float64, copy=False)
        ufunc.at(out, group_index, values)
    elif spec.fn == "count_distinct":
        # one representative row per distinct (group, value) pair
        _, pair_rows, _ = group_rows([group_index, values])
        out = np.bincount(group_index[pair_rows], minlength=num_groups).astype(np.int64)
    else:
        raise AssertionError(spec.fn)
    return fill_nulls(out, seen), seen


@dataclass(frozen=True)
class MergeSpec:
    """How one final aggregate is recovered from partial-state columns.

    ``value`` names the partial column carrying the primary state (the
    per-partition sums, counts or extrema — NULL in a partition where
    the group saw no valid row, and the merge skips it); ``count`` names
    the companion valid-row count that only ``avg`` needs: it merges as
    ``sum(partial sums) / sum(partial counts)``.
    """

    name: str
    fn: str
    value: str
    count: Optional[str] = None


def decompose_aggs(
    aggs: Sequence[AggSpec],
) -> Optional[Tuple[Tuple[AggSpec, ...], Tuple[MergeSpec, ...]]]:
    """Split aggregates into per-partition partial specs plus the merge
    plan recombining them — the two-phase (partial/merge) decomposition:

    ======  =======================  ============================
    fn      partial state            merge
    ======  =======================  ============================
    sum     sum(expr)                sum of valid partial sums
    count   count(expr)              sum(partial counts)
    avg     sum(expr), count(expr)   sum(sums) / sum(counts)
    min     min(expr)                min of valid partials
    max     max(expr)                max of valid partials
    ======  =======================  ============================

    Partial columns keep the final output names (``avg``'s companion
    count is ``__pcnt__``-prefixed and internal); returns None when any
    aggregate is not decomposable (``count_distinct``), which keeps the
    serial gather-then-aggregate plan.
    """
    partials: List[AggSpec] = []
    merges: List[MergeSpec] = []
    for spec in aggs:
        if spec.fn not in DECOMPOSABLE_AGGS:
            return None
        if spec.fn == "avg":
            count_name = f"__pcnt__{spec.name}"
            partials.append(AggSpec(spec.name, "sum", spec.expr))
            partials.append(AggSpec(count_name, "count", spec.expr))
            merges.append(MergeSpec(spec.name, spec.fn, spec.name, count_name))
        else:
            partials.append(spec)
            merges.append(MergeSpec(spec.name, spec.fn, spec.name))
    return tuple(partials), tuple(merges)


def merge_partial_aggregates(
    merges: Sequence[MergeSpec],
    group_index: np.ndarray,
    num_groups: int,
    partials,
) -> Dict[str, Evaluated]:
    """Recombine the gathered partial-state relation ``partials`` into
    the final aggregates, group numbering pre-factorised like
    :func:`group_rows`.

    Matches the serial kernels' output dtypes and NULLs exactly: a NULL
    partial is skipped, so a group NULL in every partition is NULL over
    the serial run's placeholder; counts come back int64, and an empty
    group set yields the same kernels' zero-length output — an integer
    extremum stays int64 when a partition filtered to nothing."""
    out: Dict[str, Evaluated] = {}
    for m in merges:
        values, valid = partials.column(m.value), partials.valid.get(m.value)
        fn = m.fn if m.fn in ("min", "max") else "sum"  # counts and avg's sums add up
        merged, seen = apply_aggregate(AggSpec(m.name, fn), group_index, num_groups, values, valid)
        if m.fn == "count":
            merged = merged.astype(np.int64)
        elif m.fn == "avg":
            counts = _group_sums(group_index, partials.column(m.count), num_groups).astype(np.int64)
            with np.errstate(invalid="ignore", divide="ignore"):
                merged = fill_nulls(merged / counts, seen)
        out[m.name] = merged, seen
    return out


def distinct_per_partition(partition_ids: np.ndarray, group_index: np.ndarray) -> np.ndarray:
    """Number of distinct aggregation groups inside each partition —
    the per-partition hash-table population a sandwiched aggregation
    holds (its memory high-water mark is the max of these), in
    partition-id order.

    A sandwich aggregate's keys determine its partitions, so every
    group lies in one partition: one scatter of each row's partition to
    its group checks that in O(rows), and each group then counts once,
    in its partition.  Otherwise (a NULL-extended group may span
    partitions) the distinct (partition, group) pairs are factorised."""
    num_groups = int(group_index.max()) + 1 if len(group_index) else 0
    partition_of = np.zeros(num_groups, dtype=partition_ids.dtype)
    partition_of[group_index] = partition_ids  # some row's partition per group
    if np.array_equal(partition_of[group_index], partition_ids):
        present = np.zeros(num_groups, dtype=bool)
        present[group_index] = True
        pair_partitions = partition_of[present]
    else:
        _, pair_rows, _ = group_rows([partition_ids, group_index])
        pair_partitions = partition_ids[pair_rows]
    return np.bincount(group_rows([pair_partitions])[0])  # pairs per partition
