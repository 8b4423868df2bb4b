"""The executor's dataflow unit: a batch of named column vectors.

A :class:`Relation` carries, besides its columns:

* optional per-column validity masks (nulls appear only through outer
  joins, e.g. TPC-H Q13);
* *physical properties* the planner exploits — the sort order inherited
  from a PK-ordered scan (enables merge joins / streaming aggregation)
  and the BDCC :class:`StreamUse` list (enables sandwich operators);
* a column→alias ownership map, used to tie join columns back to the
  scans (and hence foreign keys / dimension paths) they came from.

Hidden columns (named ``__grp_*``) carry per-row BDCC group numbers; they
flow through joins and filters like data but never into query results.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.dimension import Dimension

__all__ = ["StreamUse", "Relation", "row_bytes_of"]

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


def _value_bytes(array: np.ndarray) -> float:
    """Approximate engine-side bytes per value (unicode arrays store
    4 bytes/char in numpy; a real engine stores ~1)."""
    if array.dtype.kind == "U":
        return array.dtype.itemsize / 4.0
    return float(array.dtype.itemsize)


def row_bytes_of(columns: Dict[str, np.ndarray]) -> float:
    """Bytes per row across the given columns."""
    return float(sum(_value_bytes(a) for a in columns.values()))


@dataclass
class Relation:
    columns: Dict[str, np.ndarray]
    valid: Dict[str, np.ndarray] = field(default_factory=dict)
    sorted_on: Tuple[str, ...] = ()
    uses: List[StreamUse] = field(default_factory=list)
    owners: Dict[str, str] = field(default_factory=dict)

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

    def validity(self, name: str) -> Optional[np.ndarray]:
        return self.valid.get(name)

    # -------------------------------------------------------------- bytes
    def row_bytes(self, columns: Optional[Sequence[str]] = None) -> float:
        names = list(columns) if columns is not None else list(self.columns)
        return row_bytes_of({n: self.columns[n] for n in names})

    def data_bytes(self, columns: Optional[Sequence[str]] = None) -> float:
        return self.row_bytes(columns) * self.num_rows

    # ---------------------------------------------------------- transforms
    def take(self, indices: np.ndarray, keep_sorted: bool = False) -> "Relation":
        """Gather rows; physical properties survive (sort order only when
        the caller vouches the indices are monotone)."""
        new_cols = {n: a[indices] for n, a in self.columns.items()}
        new_valid = {n: m[indices] for n, m in self.valid.items()}
        return Relation(
            columns=new_cols,
            valid=new_valid,
            sorted_on=self.sorted_on if keep_sorted else (),
            uses=list(self.uses),
            owners=dict(self.owners),
        )

    def filter(self, mask: np.ndarray) -> "Relation":
        """Row selection; preserves sort order and stream uses."""
        new_cols = {n: a[mask] for n, a in self.columns.items()}
        new_valid = {n: m[mask] for n, m in self.valid.items()}
        return Relation(
            columns=new_cols,
            valid=new_valid,
            sorted_on=self.sorted_on,
            uses=list(self.uses),
            owners=dict(self.owners),
        )

    def with_column(self, name: str, values: np.ndarray, owner: Optional[str] = None) -> "Relation":
        new_cols = dict(self.columns)
        new_cols[name] = values
        rel = Relation(
            columns=new_cols,
            valid=dict(self.valid),
            sorted_on=self.sorted_on,
            uses=list(self.uses),
            owners=dict(self.owners),
        )
        if owner is not None:
            rel.owners[name] = owner
        return rel

    def project(self, names: Sequence[str]) -> "Relation":
        """Keep only the named columns (plus any stream-use hidden columns
        still referenced)."""
        keep = list(names)
        live_uses = [u for u in self.uses if u.column in self.columns]
        for use in live_uses:
            if use.column not in keep:
                keep.append(use.column)
        new_cols = {n: self.columns[n] for n in keep}
        new_valid = {n: m for n, m in self.valid.items() if n in new_cols}
        sorted_on = self.sorted_on
        if any(c not in new_cols for c in sorted_on):
            sorted_on = ()
        return Relation(
            columns=new_cols,
            valid=new_valid,
            sorted_on=sorted_on,
            uses=live_uses,
            owners={c: a for c, a in self.owners.items() if c in new_cols},
        )

    def to_rows(self) -> List[tuple]:
        """Materialise visible columns as python tuples (tests, examples)."""
        names = self.column_names
        arrays = [self.columns[n] for n in names]
        return [tuple(a[i].item() if hasattr(a[i], "item") else a[i] for a in arrays) for i in range(self.num_rows)]
