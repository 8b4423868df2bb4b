"""Vectorised multi-key join kernels (N:M, semi, anti, left outer).

These kernels are *logical* workhorses shared by every join strategy the
planner picks (hash, merge, sandwich): the strategies differ in cost and
memory accounting, not in results.  All kernels preserve the probe
(left) side's row order in their output, so sort-order properties survive
probe-side joins.

All three run one probe, :func:`repro.storage.keys.match_keys` (its
direct-address and sorted paths are described there); joins on several
columns first fold each side's tuples into one int64 code with
:func:`repro.storage.keys.encode_join_keys`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..core.selection import expand_runs
from ..storage.keys import match_keys

__all__ = [
    "inner_join_pairs",
    "left_join_pairs",
    "semi_join_mask",
]


def inner_join_pairs(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Matching (left_idx, right_idx) pairs, left-major order."""
    order, lo, counts = match_keys(left_keys, right_keys)
    left_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    return left_idx, order[expand_runs(lo, counts)].astype(np.int64, copy=False)


def left_join_pairs(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Left-outer pairs: every left row appears; unmatched rows carry
    right index -1."""
    order, lo, counts = match_keys(left_keys, right_keys)
    runs = np.maximum(counts, 1)  # an unmatched row keeps one output row
    left_idx = np.repeat(np.arange(len(runs), dtype=np.int64), runs)
    matched = counts[left_idx] > 0
    right_idx = np.full(len(left_idx), -1, dtype=np.int64)
    right_idx[matched] = order[expand_runs(lo, runs)[matched]]
    return left_idx, right_idx


def semi_join_mask(left_keys: np.ndarray, right_keys: np.ndarray) -> np.ndarray:
    """Boolean mask over left rows with at least one match (semi join);
    invert for anti join."""
    return match_keys(left_keys, right_keys)[2] > 0
