"""Vectorised multi-key join kernels (N:M, semi, anti, left outer).

These kernels are *logical* workhorses shared by every join strategy the
planner picks (hash, merge, sandwich): the strategies differ in cost and
memory accounting, not in results.  All kernels preserve the probe
(left) side's row order in their output, so sort-order properties survive
probe-side joins.

All three run one probe, :func:`repro.storage.keys.match_keys` (its
direct-address and sorted paths are described there); joins on several
columns first fold each side's tuples into one int64 code with
:func:`repro.storage.keys.encode_join_keys`.  A key whose ``valid`` is
False is NULL and matches nothing on either path: the build side's NULL
rows never reach the probe, and a NULL probe row counts no match.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..core.selection import expand_runs
from ..storage.keys import match_keys

__all__ = [
    "inner_join_pairs",
    "left_join_pairs",
    "semi_join_mask",
]


def _match(left_keys, right_keys, left_valid, right_valid):
    """:func:`match_keys` of the left keys against the right ones, where
    a NULL key matches nothing."""
    if right_valid is None:
        order, lo, counts = match_keys(left_keys, right_keys)
    else:
        kept = np.flatnonzero(right_valid)
        order, lo, counts = match_keys(left_keys, right_keys[kept])
        order = kept[order]
    if left_valid is not None:
        counts = np.where(left_valid, counts, 0)
    return order, lo, counts


def inner_join_pairs(
    left_keys: np.ndarray, right_keys: np.ndarray,
    left_valid: Optional[np.ndarray] = None, right_valid: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Matching (left_idx, right_idx) pairs, left-major order."""
    order, lo, counts = _match(left_keys, right_keys, left_valid, right_valid)
    left_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    return left_idx, order[expand_runs(lo, counts)].astype(np.int64, copy=False)


def left_join_pairs(
    left_keys: np.ndarray, right_keys: np.ndarray,
    left_valid: Optional[np.ndarray] = None, right_valid: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Left-outer pairs: every left row appears; unmatched rows carry
    right index -1."""
    order, lo, counts = _match(left_keys, right_keys, left_valid, right_valid)
    runs = np.maximum(counts, 1)  # an unmatched row keeps one output row
    left_idx = np.repeat(np.arange(len(runs), dtype=np.int64), runs)
    matched = counts[left_idx] > 0
    right_idx = np.full(len(left_idx), -1, dtype=np.int64)
    right_idx[matched] = order[expand_runs(lo, runs)[matched]]
    return left_idx, right_idx


def semi_join_mask(
    left_keys: np.ndarray, right_keys: np.ndarray,
    left_valid: Optional[np.ndarray] = None, right_valid: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Boolean mask over left rows with at least one match (semi join);
    invert for anti join, which keeps a NULL key as ``NOT EXISTS`` does."""
    return _match(left_keys, right_keys, left_valid, right_valid)[2] > 0
