"""The executor's dataflow unit: a batch of named column vectors.

A :class:`Relation` is its columns plus optional per-column validity
masks (nulls appear only through outer joins, e.g. TPC-H Q13) — nothing
else.  Whether a stream is ordered or co-clustered is a fact about the
*plan*, decided once by :mod:`repro.planner.lowering` and recorded on
the physical operators; no batch carries it at run time.
:class:`StreamUse` lives here because the operators name carried
dimension uses in their plan fields (``Join.pairs``,
``Aggregate.partition_uses``).

Hidden columns (named ``__grp_*``) carry per-row BDCC group numbers; they
flow through joins and filters like data but never into query results.
Every filter in the engine is :meth:`Relation.take` over a *candidate
list*: the kept rows' positions, found once and shared by every column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.dimension import Dimension

__all__ = ["StreamUse", "Relation", "row_bytes_of", "value_bytes"]

HIDDEN_PREFIX = "__"


@dataclass(frozen=True)
class StreamUse:
    """A BDCC dimension use visible on a stream.

    ``path`` is relative to the base table of ``alias``; ``column`` names
    the hidden group-id column (values use ``bits`` bits, dimension-major).
    """

    alias: str
    dimension: Dimension
    path: Tuple[str, ...]
    bits: int
    column: str

    def instance_key(self) -> Tuple[str, str, Tuple[str, ...]]:
        """Identity for deduplication: same alias + dimension + path."""
        return (self.alias, self.dimension.name, self.path)


def value_bytes(array: np.ndarray) -> float:
    """Approximate engine-side bytes per value (unicode arrays store
    4 bytes/char in numpy; a real engine stores ~1)."""
    if array.dtype.kind == "U":
        return array.dtype.itemsize / 4.0
    return float(array.dtype.itemsize)


def row_bytes_of(columns: Dict[str, np.ndarray]) -> float:
    """Bytes per row across the given columns."""
    return float(sum(value_bytes(a) for a in columns.values()))


@dataclass
class Relation:
    columns: Dict[str, np.ndarray]
    valid: Dict[str, np.ndarray] = field(default_factory=dict)

    # ----------------------------------------------------------- geometry
    @property
    def num_rows(self) -> int:
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    @property
    def column_names(self) -> List[str]:
        return [c for c in self.columns if not c.startswith(HIDDEN_PREFIX)]

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r}; have {sorted(self.columns)}"
            ) from None

    # -------------------------------------------------------------- bytes
    def row_bytes(self, columns: Optional[Sequence[str]] = None) -> float:
        names = list(columns) if columns is not None else list(self.columns)
        return row_bytes_of({n: self.columns[n] for n in names})

    def data_bytes(self, columns: Optional[Sequence[str]] = None) -> float:
        return self.row_bytes(columns) * self.num_rows

    # ---------------------------------------------------------- transforms
    def take(self, indices: np.ndarray) -> "Relation":
        """Gather rows by position, or keep those a boolean mask selects
        through its positions (boolean indexing would re-scan the mask
        per array); hidden columns and validity masks travel with them."""
        indices = np.asarray(indices)
        if indices.dtype == bool:
            if indices.shape != (self.num_rows,):  # as boolean indexing did
                raise IndexError(f"boolean mask of shape {indices.shape} for {self.num_rows} rows")
            indices = np.flatnonzero(indices)
        return Relation(
            columns={n: a[indices] for n, a in self.columns.items()},
            valid={n: m[indices] for n, m in self.valid.items()},
        )

    #: row selection by boolean mask — the same gather, named for what
    #: the call site means.
    filter = take

    def to_rows(self) -> List[tuple]:
        """Materialise visible columns as python tuples (tests, examples)."""
        names = self.column_names
        arrays = [self.columns[n] for n in names]
        return [tuple(a[i].item() if hasattr(a[i], "item") else a[i] for a in arrays) for i in range(self.num_rows)]
