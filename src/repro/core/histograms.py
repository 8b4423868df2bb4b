"""Group-size statistics gathered during BDCC bulk load.

For every candidate count-table granularity ``g`` (0..B) we record a
logarithmic group-size histogram — entry ``x`` counts groups of size
``[2**(x-1), 2**x)`` tuples, as described in the paper's *correlated
dimensions* discussion — plus the exact group count and median group
size.  Algorithm 1(iii) consults these to pick the count-table
granularity relative to the efficient random access size ``A_R``, and the
histogram shape makes correlation effects ("puff pastry": far fewer
groups than ``2**g``) directly visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

__all__ = ["GranularityStats", "collect_granularity_stats", "choose_granularity"]


@dataclass
class GranularityStats:
    """Per-granularity group statistics for one BDCC table."""

    total_bits: int
    num_groups: List[int]          # index g -> number of groups at granularity g
    median_group_size: List[float]  # index g -> median tuples per group
    log_histograms: List[np.ndarray]  # index g -> log2 group-size histogram

    def expected_groups(self, granularity: int) -> int:
        return 1 << granularity

    def missing_group_fraction(self, granularity: int) -> float:
        """1 - actual/expected groups: >0 signals correlated or
        hierarchical dimensions (or sparse key space)."""
        expected = self.expected_groups(granularity)
        return 1.0 - self.num_groups[granularity] / expected


def _log_histogram(sizes: np.ndarray) -> np.ndarray:
    """Histogram over log2 size classes; entry x counts groups of size
    in [2**(x-1), 2**x)."""
    classes = np.ceil(np.log2(np.maximum(sizes, 1))).astype(np.int64)
    classes[sizes <= 1] = 0
    return np.bincount(classes)


def collect_granularity_stats(sorted_keys: np.ndarray, total_bits: int) -> GranularityStats:
    """Analyse group sizes at every granularity 0..B over the sorted key
    column (the piggy-backed aggregation of Algorithm 1(ii))."""
    num_groups: List[int] = []
    medians: List[float] = []
    histograms: List[np.ndarray] = []
    n = len(sorted_keys)
    for g in range(total_bits + 1):
        if n == 0:
            num_groups.append(0)
            medians.append(0.0)
            histograms.append(np.zeros(1, dtype=np.int64))
            continue
        prefixes = sorted_keys >> np.uint64(total_bits - g)
        change = np.empty(n, dtype=bool)
        change[0] = True
        np.not_equal(prefixes[1:], prefixes[:-1], out=change[1:])
        starts = np.flatnonzero(change)
        sizes = np.diff(np.append(starts, n))
        num_groups.append(len(starts))
        medians.append(float(np.median(sizes)))
        histograms.append(_log_histogram(sizes))
    return GranularityStats(total_bits, num_groups, medians, histograms)


def choose_granularity(
    stats: GranularityStats,
    densest_column_bytes_per_tuple: float,
    efficient_access_bytes: float,
) -> int:
    """Algorithm 1(iii): the largest granularity ``b <= B`` such that most
    groups are still efficiently readable.

    Concretely: the largest ``b`` whose *median* group byte-size in the
    densest (widest stored) column is at least ``A_R / 2``.  For a
    uniformly filled key space this reduces to
    ``b = ceil(log2(column_bytes / A_R))`` — exactly the paper's
    "``ceil(log2(550000 pages)) = 20`` bits" for SF100 LINEITEM.  When
    correlated dimensions leave groups missing, actual groups are larger,
    so the rule automatically admits a higher ``b`` (the "puff pastry"
    adaptation).  Tables smaller than ``2 * A_R`` keep full granularity:
    their count table is tiny regardless and grouping costs nothing.
    """
    if densest_column_bytes_per_tuple <= 0:
        raise ValueError("densest column width must be positive")
    if efficient_access_bytes <= 0:
        raise ValueError("A_R must be positive")
    best = None
    for g in range(stats.total_bits + 1):
        median_bytes = stats.median_group_size[g] * densest_column_bytes_per_tuple
        if median_bytes >= efficient_access_bytes / 2.0:
            best = g
    if best is None:
        return stats.total_bits
    return best
