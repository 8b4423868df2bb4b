"""Dimension paths, dimension uses and BDCC table specs (Definitions 2-4)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from .bits import ones
from .dimension import Dimension

__all__ = ["DimensionUse", "check_bdcc_constraints"]


@dataclass
class DimensionUse:
    """A dimension use ``U = <D, P, M>`` (Definition 3).

    Attributes:
        dimension: the BDCC dimension ``D(U)``.
        path: the dimension path ``P(U)`` — foreign-key identifiers from
            the clustered table to the dimension's host table; empty for a
            local dimension.
        mask: bitmask ``M(U)`` placing this use's bits within the
            clustering key.  Zero until Algorithm 1 assigns masks.
    """

    dimension: Dimension
    path: Tuple[str, ...] = ()
    mask: int = 0

    @property
    def instance(self) -> Tuple[str, Tuple[str, ...]]:
        """Identity for co-clustering compatibility.

        Two uses of the *same* dimension over *different* paths are
        logically different dimensions (the paper's twin D_NATION uses on
        LINEITEM), so the path participates in the identity.
        """
        return (self.dimension.name, self.path)

    @property
    def bits_used(self) -> int:
        """``ones(M)`` — number of clustering-key bits this use occupies."""
        return ones(self.mask)

    def path_string(self) -> str:
        return ".".join(self.path) if self.path else "-"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Use({self.dimension.name} via {self.path_string()}, mask={bin(self.mask)})"


def check_bdcc_constraints(uses: Sequence[DimensionUse], total_bits: int) -> None:
    """Enforce Definition 4's constraints on a set of dimension uses.

    (i) together the masks set all ``total_bits`` bits;
    (ii) no two masks overlap;
    additionally no mask may use more bits than its dimension has.
    """
    combined = 0
    for use in uses:
        if use.mask & combined:
            raise ValueError(f"dimension-use masks overlap at {use!r}")
        if use.bits_used > use.dimension.bits:
            raise ValueError(
                f"{use!r} uses {use.bits_used} bits but dimension has only "
                f"{use.dimension.bits}"
            )
        combined |= use.mask
    expected = (1 << total_bits) - 1
    if combined != expected:
        raise ValueError(
            f"masks cover {bin(combined)} instead of all {total_bits} bits"
        )
