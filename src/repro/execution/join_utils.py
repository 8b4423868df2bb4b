"""Vectorised multi-key join kernels (N:M, semi, anti, left outer).

These kernels are *logical* workhorses shared by every join strategy the
planner picks (hash, merge, sandwich): the strategies differ in cost and
memory accounting, not in results.  All kernels preserve the probe
(left) side's row order in their output, so sort-order properties survive
probe-side joins.

All three run one probe, :func:`_match`.  When the build keys' span is no
larger than the rows the probe serves (``len(probe) + len(build)`` — true
of every dense surrogate key and of a text column's join codes) it is a
direct-address hash table: one slot per key value, no sort for a unique
build side, no binary search.  The table never outweighs its inputs, so
the rule needs no constant.  A repeated build side sorts by slot only
the rows a probe key reaches, so the sort grows with the join's output.
Sparser keys, and keys that are not integers, take a stable sort of the
build side and two binary searches.  Both paths return the same pairs
in the same order.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..core.selection import expand_runs
from .aggregate import fold_keys, offsets

__all__ = [
    "encode_join_keys",
    "inner_join_pairs",
    "left_join_pairs",
    "semi_join_mask",
]


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


def _match(probe: np.ndarray, build: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
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


def inner_join_pairs(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Matching (left_idx, right_idx) pairs, left-major order."""
    order, lo, counts = _match(left_keys, right_keys)
    left_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    return left_idx, order[expand_runs(lo, counts)].astype(np.int64, copy=False)


def left_join_pairs(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Left-outer pairs: every left row appears; unmatched rows carry
    right index -1."""
    order, lo, counts = _match(left_keys, right_keys)
    runs = np.maximum(counts, 1)  # an unmatched row keeps one output row
    left_idx = np.repeat(np.arange(len(runs), dtype=np.int64), runs)
    matched = counts[left_idx] > 0
    right_idx = np.full(len(left_idx), -1, dtype=np.int64)
    right_idx[matched] = order[expand_runs(lo, runs)[matched]]
    return left_idx, right_idx


def semi_join_mask(left_keys: np.ndarray, right_keys: np.ndarray) -> np.ndarray:
    """Boolean mask over left rows with at least one match (semi join);
    invert for anti join."""
    return _match(left_keys, right_keys)[2] > 0
