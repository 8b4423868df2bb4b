"""Key kernels: ranking and equality probing of key columns (pure numpy).

Everything that ranks a column — grouping, composite join keys, distinct
counts, descending sorts, sandwich group sizes — goes through
:func:`factorize` (tuples of columns: :func:`fold_keys`).  It ranks dense
integer keys (surrogate keys, dates, flags, group ids) by offset instead
of sorting them and holds the package's only ``np.unique`` call; group
numbering follows key sort order on either path.

Everything that finds a key's rows — every join strategy's kernels
(:mod:`repro.execution.join_utils`) and the foreign-key lookups that
resolve dimension paths (:func:`repro.storage.database.lookup_rows`) —
runs one probe, :func:`match_keys`.  When the build keys' span is no
larger than the rows the probe serves (``len(probe) + len(build)`` —
true of every dense surrogate key and of a text column's join codes) it
is a direct-address hash table: one slot per key value, no sort for a
unique build side, no binary search.  The table never outweighs its
inputs, so the rule needs no constant.  A repeated build side sorts by
slot only the rows a probe key reaches, so the sort grows with the
join's output.  Sparser keys, and keys that are not integers, take a
stable sort of the build side and two binary searches.  Both paths
return the same pairs in the same order.

The module sits below both the storage layer's lookups and the
execution layer's operators, so it imports nothing from the package.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = ["offsets", "factorize", "fold_keys", "encode_join_keys", "match_keys"]


def offsets(keys: np.ndarray, low: np.generic) -> np.ndarray:
    """``keys - low`` as int64, exact wherever the true difference fits.
    Two's-complement wrap-around makes the detour through int64 right
    for ``uint64`` keys beyond 2**63 and for narrow dtypes whose own
    subtraction would overflow (``int8``: 127 - -128)."""
    return keys.astype(np.int64, copy=False) - low.astype(np.int64)


def factorize(column: np.ndarray) -> Tuple[np.ndarray, int]:
    """Order-preserving int64 codes: ``(codes, cardinality)`` with codes
    in ``[0, cardinality)`` and ``a < b  <=>  code(a) < code(b)``.

    An integer, bool or one-character column whose span is no larger
    than its length is ranked by offset from its minimum (cardinality =
    span; codes may have gaps); anything else by ``np.unique``.
    """
    ranked = column
    if column.dtype.kind == "b":
        ranked = column.view(np.uint8)
    elif column.dtype == np.dtype("<U1"):
        ranked = column.view(np.uint32)  # one UCS-4 code point a value
    if ranked.dtype.kind in "iu" and len(ranked):
        low = ranked.min()
        span = int(ranked.max()) - int(low) + 1
        if span <= len(ranked):
            return offsets(ranked, low), span
    uniques, inverse = np.unique(column, return_inverse=True)
    return inverse.astype(np.int64), len(uniques)


def fold_keys(columns: Sequence[np.ndarray]) -> Tuple[np.ndarray, int]:
    """One int64 code per row for a tuple of key columns, mixed radix
    over each column's :func:`factorize` codes, so code order is the
    tuples' lexicographic order.  Returns ``(codes, code space)``.  The
    running code is re-ranked before ``space * cardinality`` can leave
    int64 — five 16-bit columns would otherwise wrap and merge rows
    that differ only in the first."""
    codes, space = np.zeros(len(columns[0]), dtype=np.int64), 1
    for column in columns:
        column_codes, cardinality = factorize(column)
        if space * cardinality > np.iinfo(np.int64).max:
            codes, space = factorize(codes)
        codes = codes * np.int64(cardinality) + column_codes
        space *= cardinality
    return codes, space


def encode_join_keys(
    left_cols: Sequence[np.ndarray], right_cols: Sequence[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Single int64 key per row for multi-column equi-joins."""
    if len(left_cols) != len(right_cols) or not left_cols:
        raise ValueError("need equally many (>=1) key columns on both sides")
    if len(left_cols) == 1:
        left, right = left_cols[0], right_cols[0]
        if left.dtype.kind in "iu" and right.dtype.kind in "iu":
            return left.astype(np.int64), right.astype(np.int64)
    # codes over the union domain of both sides: equal tuples share a code
    codes, _ = fold_keys([np.concatenate(pair) for pair in zip(left_cols, right_cols)])
    return codes[: len(left_cols[0])], codes[len(left_cols[0]):]


def match_keys(probe: np.ndarray, build: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(order, lo, counts)``: probe row *i* matches
    ``build[order[lo[i] : lo[i] + counts[i]]]``, in build order."""
    if len(build) and probe.dtype == build.dtype and build.dtype.kind in "iu":
        low, high = build.min(), build.max()
        span = int(high) - int(low) + 1  # python ints: no wrap-around
        if span <= len(probe) + len(build):
            # probe keys outside [low, high] go to a spare slot that holds
            # nothing *before* they index the table: a negative offset
            # would wrap to the table's end
            inside = (probe >= low) & (probe <= high)
            slot = np.where(inside, offsets(probe, low), span)
            build_slot = offsets(build, low)
            per_key = np.bincount(build_slot, minlength=span + 1)
            counts = per_key[slot]
            if np.count_nonzero(per_key) == len(build):
                # a unique build side (every N:1 join): a key's slot
                # holds its row, nothing to sort
                order = np.zeros(span + 1, dtype=np.int64)
                order[build_slot] = np.arange(len(build), dtype=np.int64)
                return order, slot, counts
            probed = np.zeros(span + 1, dtype=bool)  # sort what probes reach
            probed[slot] = True
            reached = np.flatnonzero(probed[build_slot])
            order = reached[np.argsort(build_slot[reached], kind="stable")]
            per_key = np.where(probed, per_key, 0)
            return order, (np.cumsum(per_key) - per_key)[slot], counts
    order = np.argsort(build, kind="stable")
    sorted_build = build[order]
    lo = np.searchsorted(sorted_build, probe, side="left")
    return order, lo, np.searchsorted(sorted_build, probe, side="right") - lo
