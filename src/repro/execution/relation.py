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

Columns are materialised late, as in a column store.  A relation maps
each name to a *source* and a base array, holds one row index per
source, and gathers ``base[index]`` the first time an operator reads the
column — once: the gathered array is kept.  Every filter in the engine
is :meth:`Relation.take` over a *candidate list* (the kept rows'
positions, found once), and a take composes one index per source
instead of copying columns; a join lays the right side's sources beside
the left's (:meth:`Relation.beside`), and :func:`concat_relations`
concatenates the indices of partitions that read the same bases.  A
column no operator reads is never copied.  Only three things
materialise: reading a column, pickling (``__reduce__`` ships the
gathered rows, never a base) and a result leaving the engine
(:meth:`Relation.materialised`).  Charges read row counts and dtypes,
which the layout knows without gathering.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.dimension import Dimension

__all__ = ["StreamUse", "Relation", "concat_relations", "row_bytes_of", "value_bytes"]

HIDDEN_PREFIX = "__"

#: a source's row index: a slice (the gather is a view) or positions
Indexer = Union[slice, np.ndarray]


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


def value_bytes(dtype: np.dtype) -> float:
    """Approximate engine-side bytes per value of a dtype (unicode
    arrays store 4 bytes/char in numpy; a real engine stores ~1)."""
    if dtype.kind == "U":
        return dtype.itemsize / 4.0
    return float(dtype.itemsize)


def row_bytes_of(columns: Dict[str, np.ndarray]) -> float:
    """Bytes per row across the given columns."""
    return float(sum(value_bytes(a.dtype) for a in columns.values()))


class _Columns(Mapping):
    """``Relation.columns``: name -> array, gathering a column the first
    time it is looked up (:meth:`Relation.column`)."""

    __slots__ = ("_rel",)

    def __init__(self, rel: "Relation"):
        self._rel = rel

    def __getitem__(self, name: str) -> np.ndarray:
        return self._rel.column(name)

    def __iter__(self) -> Iterator[str]:
        return iter(self._rel._layout)

    def __len__(self) -> int:
        return len(self._rel._layout)

    def __contains__(self, name: object) -> bool:
        return name in self._rel._layout


def _compose(index: Indexer, rows: np.ndarray) -> np.ndarray:
    """Positions ``rows`` of the rows ``index`` selects from a base."""
    if isinstance(index, slice):
        return rows + index.start if index.start else rows
    return index[rows]


def _concat_indices(indices: Sequence[Indexer]) -> Indexer:
    """One source's indices, part after part: a slice when the parts'
    rows are contiguous slices end to end, else positions."""
    pieces = [ix for ix in indices if _length(ix)]
    if all(isinstance(ix, slice) for ix in pieces) and all(
        a.stop == b.start for a, b in zip(pieces, pieces[1:])
    ):
        return slice(pieces[0].start, pieces[-1].stop) if pieces else slice(0, 0)
    return np.concatenate(
        [np.arange(ix.start, ix.stop) if isinstance(ix, slice) else ix for ix in pieces]
    )


def _length(index: Indexer) -> int:
    return index.stop - index.start if isinstance(index, slice) else len(index)


class Relation:
    """Named columns of equal length plus per-column validity masks.

    ``Relation(columns=..., valid=...)`` wraps arrays that are already
    gathered.  Underneath, a relation is a *layout* — each name's source
    position and base array, shared by every relation :meth:`take`
    derives — one row index per source (a slice or ``int64`` positions
    into that source's bases), and the columns gathered so far.  A
    column is gathered ``base[index]`` the first time it is read, once
    per relation; ``columns`` is a read-only mapping whose lookups
    gather."""

    __slots__ = ("_layout", "_index", "_num_rows", "_gathered", "valid", "__weakref__")

    def __init__(
        self,
        columns: Dict[str, np.ndarray],
        valid: Optional[Dict[str, np.ndarray]] = None,
    ):
        columns = dict(columns)
        num_rows = len(next(iter(columns.values()))) if columns else 0
        self._layout: Dict[str, Tuple[int, np.ndarray]] = {
            name: (0, array) for name, array in columns.items()
        }
        self._index: Tuple[Indexer, ...] = (slice(0, num_rows),) if columns else ()
        self._num_rows = num_rows
        self._gathered = columns
        # a mask of None is no mask: every row of that column is valid
        valid = {} if valid is None else valid
        self.valid: Dict[str, np.ndarray] = {n: m for n, m in valid.items() if m is not None}

    @classmethod
    def at(cls, columns: Dict[str, np.ndarray], rows: Indexer) -> "Relation":
        """The rows ``rows`` (a slice or positions) of the equal-length
        ``columns``, each gathered when it is first read."""
        layout = {name: (0, array) for name, array in columns.items()}
        return cls._build(layout, (rows,), _length(rows), {})

    @classmethod
    def _build(cls, layout, index, num_rows, valid, gathered=None) -> "Relation":
        rel = cls.__new__(cls)
        rel._layout, rel._index, rel._num_rows = layout, index, num_rows if layout else 0
        rel._gathered = {} if gathered is None else gathered
        rel.valid = valid
        return rel

    def __reduce__(self):
        # a pickled relation is its gathered rows, never the bases
        return (Relation, (dict(self.columns), self.valid))

    def __repr__(self) -> str:
        return f"Relation({self._num_rows} rows: {', '.join(self._layout)})"

    # ----------------------------------------------------------- geometry
    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def columns(self) -> Mapping[str, np.ndarray]:
        return _Columns(self)

    @property
    def column_names(self) -> List[str]:
        return [c for c in self._layout if not c.startswith(HIDDEN_PREFIX)]

    def column(self, name: str) -> np.ndarray:
        try:
            return self._gathered[name]
        except KeyError:
            pass
        try:
            source, base = self._layout[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r}; have {sorted(self._layout)}"
            ) from None
        array = self._gathered[name] = base[self._index[source]]
        return array

    # -------------------------------------------------------------- bytes
    def row_bytes(self, columns: Optional[Sequence[str]] = None) -> float:
        """Bytes per row of ``columns`` (default: all), from the dtypes."""
        names = self._layout if columns is None else dict.fromkeys(columns)
        return float(sum(value_bytes(self._layout[n][1].dtype) for n in names))

    def data_bytes(self, columns: Optional[Sequence[str]] = None) -> float:
        return self.row_bytes(columns) * self.num_rows

    # ---------------------------------------------------------- transforms
    def take(self, indices: np.ndarray) -> "Relation":
        """Gather rows by position, or keep those a boolean mask selects
        through its positions (boolean indexing would re-scan the mask
        per array); hidden columns and validity masks travel with them.
        Composes one index per source and gathers no column."""
        indices = np.asarray(indices)
        if indices.dtype == bool:
            if indices.shape != (self._num_rows,):  # as boolean indexing did
                raise IndexError(f"boolean mask of shape {indices.shape} for {self._num_rows} rows")
            indices = np.flatnonzero(indices)
        return Relation._build(
            self._layout,
            tuple(_compose(index, indices) for index in self._index),
            len(indices),
            {n: m[indices] for n, m in self.valid.items()},
        )

    #: row selection by boolean mask — the same gather, named for what
    #: the call site means.
    filter = take

    def beside(self, other: "Relation") -> "Relation":
        """This relation's columns, then those of ``other`` (as many
        rows) whose names this one lacks, with their validity masks."""
        shift = len(self._index)
        layout, gathered, valid = dict(self._layout), dict(self._gathered), dict(self.valid)
        for name, (source, base) in other._layout.items():
            if name not in layout:
                layout[name] = (source + shift, base)
                if name in other._gathered:
                    gathered[name] = other._gathered[name]
                if name in other.valid:
                    valid[name] = other.valid[name]
        return Relation._build(layout, self._index + other._index, self._num_rows, valid, gathered)

    def materialised(self) -> "Relation":
        """The same relation holding only its gathered columns — what
        leaves the engine, so a kept result pins none of its inputs."""
        return Relation(dict(self.columns), self.valid)

    def to_rows(self) -> List[tuple]:
        """Materialise visible columns as python tuples (tests, examples)."""
        names = self.column_names
        arrays = [self.column(n) for n in names]
        return [tuple(a[i].item() if hasattr(a[i], "item") else a[i] for a in arrays) for i in range(self.num_rows)]


def concat_relations(rels: List[Relation]) -> Relation:
    """Concatenate structurally identical relations (the outputs of the
    partition fragments of one split stream) in list order.

    A source whose bases every part shares (partitions of one scan) is
    concatenated as row indices and gathered later; the other columns
    are concatenated now.  Validity masks are extended with all-valid
    runs for parts that lack one.  Whether the result is the serial
    stream is the plan's business (``UnionAll.preserve_order``), not
    the batch's."""
    if not rels:
        return Relation(columns={})
    first = rels[0]
    num_rows = sum(r.num_rows for r in rels)
    alike: Dict[int, bool] = {}  # first's source -> every part reads it alike
    for name, (source, base) in first._layout.items():
        same = all(
            r._layout.get(name, (None,))[0] == source and r._layout[name][1] is base
            for r in rels
        )
        alike[source] = alike.get(source, True) and same
    index: List[Indexer] = []
    position: Dict[int, int] = {}
    for source, same in alike.items():
        if same:
            position[source] = len(index)
            index.append(_concat_indices([r._index[source] for r in rels]))
    gathered = {
        name: np.concatenate([r.column(name) for r in rels])
        for name, (source, _) in first._layout.items() if not alike[source]
    }
    if gathered:
        index.append(slice(0, num_rows))
    layout = {
        name: (position[source], base) if alike[source] else (len(index) - 1, gathered[name])
        for name, (source, base) in first._layout.items()
    }
    valid: Dict[str, np.ndarray] = {}
    masked = {name for r in rels for name in r.valid if name in layout}
    for name in masked:
        valid[name] = np.concatenate(
            [
                r.valid.get(name, np.ones(r.num_rows, dtype=bool))
                for r in rels
            ]
        )
    return Relation._build(layout, tuple(index), num_rows, valid, gathered)
