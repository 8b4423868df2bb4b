"""Bit-level utilities for BDCC clustering keys and dimension-use masks.

Conventions
-----------
A BDCC table clustered on ``b`` bits has keys in ``[0, 2**b)`` stored as
``uint64`` (so ``b <= 64``).  Bit positions are numbered LSB=0; the paper
prints masks MSB-first (e.g. ``1010`` sets positions 3 and 1 of a 4-bit
key).  A *mask* is a Python int whose set bits are the key positions a
dimension use occupies (Definition 3).
"""

from __future__ import annotations

from typing import List

import numpy as np

__all__ = [
    "ones",
    "bits_needed",
    "mask_to_string",
    "mask_from_string",
    "mask_positions",
    "scatter_bins_into_key",
    "gather_use_bits",
    "truncate_mask",
]

MAX_KEY_BITS = 64


def ones(mask: int) -> int:
    """Number of set bits in ``mask`` (``ones(M)`` of Definition 3)."""
    return bin(mask).count("1")


def bits_needed(num_bins: int) -> int:
    """``ceil(log2(num_bins))`` — the dimension granularity of Def. 1(vi)."""
    if num_bins <= 0:
        raise ValueError(f"need at least one bin, got {num_bins}")
    return max(1, int(num_bins - 1).bit_length())


def mask_to_string(mask: int, total_bits: int) -> str:
    """Render ``mask`` MSB-first over ``total_bits`` positions, as printed
    in the paper's dimension-use tables (leading zeros stripped there; we
    keep the full width and callers may ``lstrip('0')``)."""
    if total_bits <= 0 or total_bits > MAX_KEY_BITS:
        raise ValueError(f"total_bits out of range: {total_bits}")
    if mask >= (1 << total_bits):
        raise ValueError(f"mask {mask:#x} does not fit in {total_bits} bits")
    return format(mask, f"0{total_bits}b")


def mask_from_string(text: str) -> int:
    """Parse an MSB-first mask string such as ``"10001000100010001000"``."""
    if not text or set(text) - {"0", "1"}:
        raise ValueError(f"not a binary mask string: {text!r}")
    return int(text, 2)


def mask_positions(mask: int) -> List[int]:
    """Set-bit positions of ``mask``, most significant first.

    The i-th returned position receives the i-th most significant of the
    dimension bits used (Definition 4: "map the major ones(M) bits of the
    bin number to ``_bdcc_`` according to mask M").
    """
    positions = [p for p in range(mask.bit_length() - 1, -1, -1) if (mask >> p) & 1]
    return positions


def scatter_bins_into_key(
    bins: np.ndarray, dim_bits: int, mask: int, out: np.ndarray
) -> None:
    """OR the major ``ones(mask)`` bits of each bin number into ``out``.

    Args:
        bins: integer array of bin numbers (``< 2**dim_bits``).
        dim_bits: granularity of the dimension, ``bits(D)``.
        mask: the dimension use's bitmask within the clustering key.
        out: uint64 array updated in place.
    """
    positions = mask_positions(mask)
    k = len(positions)
    if k > dim_bits:
        raise ValueError(
            f"mask uses {k} bits but dimension only has {dim_bits} bits"
        )
    bins_u = bins.astype(np.uint64, copy=False)
    for j, dst in enumerate(positions):
        src = dim_bits - 1 - j  # j-th most significant bin bit
        out |= ((bins_u >> np.uint64(src)) & np.uint64(1)) << np.uint64(dst)


def gather_use_bits(keys: np.ndarray, mask: int, num_bits: int | None = None) -> np.ndarray:
    """Extract a dimension use's bits from clustering keys, compacted.

    Returns an array of group numbers formed by the ``num_bits`` most
    significant positions of ``mask`` (all of them when ``num_bits`` is
    None), preserving their MSB-to-LSB order.  This is how a scan's
    merged delta rows get their group identifiers, and what sandwich
    operators use to align co-clustered inputs.
    """
    positions = mask_positions(mask)
    if num_bits is not None:
        if num_bits < 0 or num_bits > len(positions):
            raise ValueError(
                f"num_bits {num_bits} out of range for mask with {len(positions)} bits"
            )
        positions = positions[:num_bits]
    out = np.zeros(keys.shape, dtype=np.uint64)
    keys_u = keys.astype(np.uint64, copy=False)
    k = len(positions)
    for j, src in enumerate(positions):
        out |= ((keys_u >> np.uint64(src)) & np.uint64(1)) << np.uint64(k - 1 - j)
    return out


def truncate_mask(mask: int, total_bits: int, granularity: int) -> int:
    """A mask restricted to the top ``granularity`` positions of a
    ``total_bits``-wide key (used to express dimension uses at the reduced
    count-table granularity of Algorithm 1)."""
    if granularity < 0 or granularity > total_bits:
        raise ValueError(f"granularity {granularity} out of [0, {total_bits}]")
    return mask >> (total_bits - granularity)
