"""Bitmask assignment: round-robin (Z-order) and major-minor interleaving.

This implements step (i) of Algorithm 1 (Self-Tuned BDCC Table): given the
granularities ``bits(D(U_i))`` of a table's dimension uses, produce the
masks ``M(U_i)`` that interleave all dimension bits into one clustering
key of ``B = sum_i bits(D(U_i))`` bits.

Two discrepant readings of Algorithm 1(i) exist in the paper: the prose
groups round-robin turns by foreign key, while the published TPC-H
dimension-use tables show plain round-robin over the dimension uses.
``assign_masks`` implements the published tables, because they are the
reading the paper's evaluation ran and it is verified bit-for-bit
against them.
"""

from __future__ import annotations

from typing import List, Sequence

from .bits import MAX_KEY_BITS

__all__ = ["assign_masks", "assign_masks_major_minor"]


def _check_bits(bits_per_use: Sequence[int]) -> int:
    if not bits_per_use:
        raise ValueError("need at least one dimension use")
    for bits in bits_per_use:
        if bits <= 0:
            raise ValueError(f"dimension granularity must be positive, got {bits}")
    total = sum(bits_per_use)
    if total > MAX_KEY_BITS:
        raise ValueError(
            f"total granularity {total} exceeds the {MAX_KEY_BITS}-bit key limit"
        )
    return total


def assign_masks(bits_per_use: Sequence[int]) -> List[int]:
    """Round-robin (Z-order) mask assignment, Algorithm 1(i).

    Bits are handed out one at a time from the most significant key
    position downwards, cycling over the dimension uses in order and
    skipping uses whose granularity is exhausted, until all
    ``B = sum(bits_per_use)`` bits are assigned.

    Args:
        bits_per_use: ``bits(D(U_i))`` for each dimension use, in order.

    Returns:
        One mask per use over a ``B``-bit key.  Masks are disjoint and
        together cover all ``B`` bits (Definition 4 constraints).
    """
    total = _check_bits(bits_per_use)
    remaining = list(bits_per_use)
    masks = [0 for _ in bits_per_use]
    next_position = total - 1  # most significant first

    while next_position >= 0:
        progressed = False
        for idx in range(len(remaining)):
            if remaining[idx] == 0:
                continue
            masks[idx] |= 1 << next_position
            remaining[idx] -= 1
            next_position -= 1
            progressed = True
            if next_position < 0:
                break
        if not progressed:
            break

    assert all(r == 0 for r in remaining)
    return masks


def assign_masks_major_minor(bits_per_use: Sequence[int]) -> List[int]:
    """Major-minor mask assignment: use 0 takes the most significant
    ``bits_per_use[0]`` positions, use 1 the next block, and so on.

    This is the hand-tuned MDAM-style layout the paper compares against in
    its "Other Orderings" experiment (Z-order 284 s vs major-minor 291 s).
    """
    total = _check_bits(bits_per_use)
    masks = []
    top = total
    for bits in bits_per_use:
        mask = ((1 << bits) - 1) << (top - bits)
        masks.append(mask)
        top -= bits
    return masks
