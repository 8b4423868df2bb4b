"""Logical column datatypes and their physical representation.

The engine stores every column as a numpy array.  Each logical datatype
maps to a numpy dtype plus a *stored width* in bytes, which the page model
(:mod:`repro.storage.pages`) uses to translate row counts into 32 KB pages
— the unit the paper's IO reasoning (efficient random access size ``A_R``,
count-table granularity selection) is expressed in.

Widths model a lightly compressed column store: the paper notes all three
compared schemes "use automatic compression" and occupy the same ~55 GB,
so a scheme-independent per-type width preserves the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DataType",
    "INT32",
    "INT64",
    "FLOAT64",
    "DECIMAL",
    "DATE",
    "BOOL",
    "string_type",
]


@dataclass(frozen=True)
class DataType:
    """A logical column type.

    Attributes:
        name: human-readable type name, e.g. ``"int32"`` or ``"string(25)"``.
        numpy_dtype: dtype used for in-memory vectors.
        stored_bytes: bytes one value occupies on (modelled) disk after
            light compression.  Drives the page model only; in-memory
            arrays use the natural numpy width.
    """

    name: str
    numpy_dtype: str
    stored_bytes: float

    def empty(self, n: int) -> np.ndarray:
        """Allocate an uninitialised vector of ``n`` values of this type."""
        return np.empty(n, dtype=self.numpy_dtype)


INT32 = DataType("int32", "int32", 4.0)
INT64 = DataType("int64", "int64", 8.0)
FLOAT64 = DataType("float64", "float64", 8.0)
#: TPC-H decimals; stored as float64 in memory, modelled as 8 bytes on disk.
DECIMAL = DataType("decimal", "float64", 8.0)
#: Dates are stored as int32 days since 1970-01-01 (numpy datetime64[D] epoch).
DATE = DataType("date", "int32", 4.0)
BOOL = DataType("bool", "bool", 1.0)


def string_type(width: int, avg_bytes: float | None = None) -> DataType:
    """A fixed-maximum-width string type.

    Args:
        width: maximum number of characters (numpy ``<U{width}`` storage).
        avg_bytes: modelled stored bytes per value.  Defaults to the full
            ``width`` — callers for variable-length text (comments) pass
            the dbgen average so the page model matches dbgen's density.
    """
    if width <= 0:
        raise ValueError(f"string width must be positive, got {width}")
    stored = float(width if avg_bytes is None else avg_bytes)
    return DataType(f"string({width})", f"<U{width}", stored)
