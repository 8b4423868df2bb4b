"""Order-preserving value encoding and frequency-based binning.

``KeyEncoder`` maps (possibly multi-attribute) dimension key values onto
``int64`` codes that preserve lexicographic order, so that bins — which
Definition 1 requires to be *ordered* and *non-overlapping* — can be
represented as code intervals.

``equi_frequency_cuts`` is our substitute for the paper's companion tech
report [4] ("Creating Dimensions for BDCC"): equi-depth binning over the
value distribution observed across *all* tables that use the dimension
(union over their dimension paths), which yields balanced bins under skew
— heavy hitters simply absorb several quantile cuts and the dimension ends
up with fewer, well-filled bins.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = ["KeyEncoder", "equi_frequency_cuts"]


class KeyEncoder:
    """Order-preserving encoder from key tuples to ``int64`` codes.

    Built over the union of observed key values.  Each attribute is
    mapped to its rank among the attribute's distinct values, and ranks
    are packed lexicographically (first attribute major).

    Unseen values still encode sensibly for predicate analysis: they are
    mapped to *half-open rank positions* via :meth:`lower_code` /
    :meth:`upper_code`, which is all range pushdown needs.
    """

    def __init__(self, attribute_values: Sequence[np.ndarray]):
        if not attribute_values:
            raise ValueError("need at least one key attribute")
        lengths = {len(a) for a in attribute_values}
        if len(lengths) != 1:
            raise ValueError("key attribute arrays must have equal length")
        self._uniques: List[np.ndarray] = [np.unique(a) for a in attribute_values]
        self._cards: List[int] = [len(u) for u in self._uniques]
        # multiplier[i] = product of cardinalities of attributes after i
        mult = [1] * len(self._cards)
        for i in range(len(self._cards) - 2, -1, -1):
            mult[i] = mult[i + 1] * self._cards[i + 1]
        if self._cards and self._cards[0] * mult[0] >= 2**62:
            raise ValueError("key domain too large to encode in int64")
        self._multipliers = mult

    @property
    def num_attributes(self) -> int:
        return len(self._uniques)

    def encode(self, attribute_values: Sequence[np.ndarray]) -> np.ndarray:
        """Codes for key tuples whose attribute values were observed.

        Values not present in the observed domain are clamped to their
        insertion rank, which keeps the mapping monotone (adequate for
        binning data that was itself used to build the encoder).
        """
        if len(attribute_values) != self.num_attributes:
            raise ValueError(
                f"expected {self.num_attributes} attributes, got {len(attribute_values)}"
            )
        code = np.zeros(len(attribute_values[0]), dtype=np.int64)
        for values, uniques, mult in zip(attribute_values, self._uniques, self._multipliers):
            ranks = np.searchsorted(uniques, values)
            np.minimum(ranks, len(uniques) - 1, out=ranks)
            code += ranks.astype(np.int64) * mult
        return code

    # ------------------------------------------------- predicate constants
    def _prefix_code(self, prefix: Sequence[object], last_rank: int) -> int:
        code = 0
        for value, uniques, mult in zip(prefix, self._uniques, self._multipliers):
            code += int(np.searchsorted(uniques, value)) * mult
        code += last_rank * self._multipliers[len(prefix)]
        return code

    def lower_code(self, prefix: Sequence[object], inclusive: bool = True) -> int:
        """Smallest code of any key tuple ``>=`` (or ``>``) the given
        key-attribute prefix; remaining attributes are unconstrained."""
        if not 0 < len(prefix) <= self.num_attributes:
            raise ValueError("prefix length out of range")
        idx = len(prefix) - 1
        uniques = self._uniques[idx]
        side = "left" if inclusive else "right"
        rank = int(np.searchsorted(uniques, prefix[-1], side=side))
        return self._prefix_code(list(prefix[:-1]), 0) + rank * self._multipliers[idx]

    def upper_code(self, prefix: Sequence[object], inclusive: bool = True) -> int:
        """Largest code of any key tuple ``<=`` (or ``<``) the prefix,
        with remaining attributes unconstrained.  May be ``-1`` when no
        tuple qualifies."""
        if not 0 < len(prefix) <= self.num_attributes:
            raise ValueError("prefix length out of range")
        idx = len(prefix) - 1
        uniques = self._uniques[idx]
        side = "right" if inclusive else "left"
        rank = int(np.searchsorted(uniques, prefix[-1], side=side)) - 1
        if rank < 0:
            return self._prefix_code(list(prefix[:-1]), 0) - 1
        base = self._prefix_code(list(prefix[:-1]), rank)
        # all remaining attributes at their maximum rank
        return base + self._multipliers[idx] - 1


def equi_frequency_cuts(codes: np.ndarray, max_bits: int) -> np.ndarray:
    """Equi-depth bin boundaries (inclusive upper codes) for a multiset.

    Produces at most ``2**max_bits`` bins.  When the number of distinct
    codes fits the budget every distinct value receives its own bin
    (Definition 1(iv): unique bins).  Otherwise cuts are placed at
    frequency quantiles of the distribution; duplicate boundaries caused
    by heavy hitters collapse, so skewed data yields fewer but balanced
    bins (the behaviour [4] is after).

    Args:
        codes: observed key codes (any order, duplicates = frequencies).
        max_bits: granularity cap, ``bits(D) <= max_bits``.

    Returns:
        Sorted ``int64`` array of inclusive upper-bound codes, one per
        bin; the last equals ``codes.max()``.
    """
    if max_bits <= 0:
        raise ValueError(f"max_bits must be positive, got {max_bits}")
    if len(codes) == 0:
        raise ValueError("cannot bin an empty value set")
    distinct, counts = np.unique(codes, return_counts=True)
    max_bins = 1 << max_bits
    if len(distinct) <= max_bins:
        return distinct.astype(np.int64)
    cum = np.cumsum(counts)
    total = int(cum[-1])
    quantiles = np.ceil(total * (np.arange(1, max_bins + 1) / max_bins)).astype(np.int64)
    idx = np.searchsorted(cum, quantiles, side="left")
    np.minimum(idx, len(distinct) - 1, out=idx)
    uppers = np.unique(distinct[idx])
    return uppers.astype(np.int64)
