"""BDCC dimensions (Definition 1 of the paper).

A :class:`Dimension` is an order-respecting surjective mapping from a
dimension key — one or more attributes of a *host table* — onto a finite
sequence of bins.  We represent bins as intervals of the order-preserving
``int64`` codes produced by :class:`~repro.core.binning.KeyEncoder`; bin
``i`` covers codes in ``(uppers[i-1], uppers[i]]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .binning import KeyEncoder, equi_frequency_cuts
from .bits import bits_needed

__all__ = ["Dimension"]


@dataclass
class Dimension:
    """A BDCC dimension ``D = <T, K, S>``.

    Attributes:
        name: dimension identifier, e.g. ``"D_NATION"``.
        table: host table ``T(D)`` owning the key attributes.
        key: dimension key ``K(D)`` — attribute names on ``table``.
        encoder: order-preserving key-tuple encoder.
        uppers: inclusive upper-bound code of each bin, ascending.
    """

    name: str
    table: str
    key: Tuple[str, ...]
    encoder: KeyEncoder
    uppers: np.ndarray

    def __post_init__(self) -> None:
        self.uppers = np.asarray(self.uppers, dtype=np.int64)
        if len(self.uppers) == 0:
            raise ValueError(f"dimension {self.name!r} has no bins")
        if np.any(np.diff(self.uppers) <= 0):
            raise ValueError(f"dimension {self.name!r} bins are not ordered")

    # ---------------------------------------------------------- properties
    @property
    def num_bins(self) -> int:
        """``m(D)``, the number of dimension entries."""
        return len(self.uppers)

    @property
    def bits(self) -> int:
        """``bits(D) = ceil(log2(m))`` — Definition 1(vi)."""
        return bits_needed(self.num_bins)

    # ------------------------------------------------------------- binning
    def bin_of_codes(self, codes: np.ndarray) -> np.ndarray:
        """Bin numbers for key codes (Definition 1(v)).

        Codes above the largest upper bound clamp to the last bin, which
        keeps the mapping total and order-respecting.
        """
        bins = np.searchsorted(self.uppers, codes, side="left")
        np.minimum(bins, self.num_bins - 1, out=bins)
        return bins.astype(np.uint64)

    def bin_of_values(self, attribute_values: Sequence[np.ndarray]) -> np.ndarray:
        """Bin numbers straight from key attribute arrays."""
        return self.bin_of_codes(self.encoder.encode(attribute_values))

    # ------------------------------------------------------------- factory
    @classmethod
    def create(
        cls,
        name: str,
        table: str,
        key: Sequence[str],
        attribute_values: Sequence[np.ndarray],
        max_bits: int = 13,
        weights_values: Optional[Sequence[np.ndarray]] = None,
    ) -> "Dimension":
        """Build a dimension from observed key values.

        Args:
            name, table, key: identity of the dimension.
            attribute_values: key attribute arrays from the host table —
                they define the encodable domain.
            max_bits: granularity cap (the paper uses ``bits(D) <= 13``).
            weights_values: optional key attribute arrays drawn from the
                union of *all* tables using the dimension (each resolved
                over its dimension path), per Algorithm 2(ii); bins are
                equi-depth on this distribution.  Defaults to the host
                table's own values.
        """
        encoder = KeyEncoder(attribute_values)
        freq_source = weights_values if weights_values is not None else attribute_values
        codes = encoder.encode(freq_source)
        uppers = equi_frequency_cuts(codes, max_bits)
        return cls(name=name, table=table, key=tuple(key), encoder=encoder, uppers=uppers)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Dimension({self.name}: {self.table}({', '.join(self.key)}), "
            f"{self.num_bins} bins, {self.bits} bits)"
        )
