"""Vectorised expression language for predicates and projections.

Expressions evaluate against a :class:`~repro.execution.relation.Relation`
(or any mapping of column name to numpy array) and return numpy arrays.
The repertoire covers everything the 22 TPC-H queries need: arithmetic,
comparisons, BETWEEN, IN, SQL LIKE (``%`` wildcards), CASE, SUBSTRING,
EXTRACT(YEAR), and boolean connectives.

Date values are ``int32`` days since 1970-01-01; :func:`days` converts a
literal ``"YYYY-MM-DD"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

__all__ = [
    "Expr", "Col", "Const", "Arith", "Cmp", "Between", "InList", "Like",
    "And", "Or", "Not", "Case", "Substring", "Year", "days",
    "col", "lit", "year", "validity",
]


def days(date_literal: str) -> int:
    """Days since 1970-01-01 for a ``YYYY-MM-DD`` literal."""
    return int(np.datetime64(date_literal, "D").astype(np.int64))


def _columns_of(rel) -> Dict[str, np.ndarray]:
    if hasattr(rel, "columns"):
        return rel.columns
    return rel


class Expr:
    """Base expression node."""

    def eval(self, rel) -> np.ndarray:
        raise NotImplementedError

    def columns(self) -> Set[str]:
        """All column names this expression reads."""
        raise NotImplementedError

    # ------------------------------------------------------ sugar builders
    def __add__(self, other): return Arith("+", self, _wrap(other))
    def __radd__(self, other): return Arith("+", _wrap(other), self)
    def __sub__(self, other): return Arith("-", self, _wrap(other))
    def __rsub__(self, other): return Arith("-", _wrap(other), self)
    def __mul__(self, other): return Arith("*", self, _wrap(other))
    def __rmul__(self, other): return Arith("*", _wrap(other), self)
    def __truediv__(self, other): return Arith("/", self, _wrap(other))

    def eq(self, other): return Cmp("==", self, _wrap(other))
    def ne(self, other): return Cmp("!=", self, _wrap(other))
    def lt(self, other): return Cmp("<", self, _wrap(other))
    def le(self, other): return Cmp("<=", self, _wrap(other))
    def gt(self, other): return Cmp(">", self, _wrap(other))
    def ge(self, other): return Cmp(">=", self, _wrap(other))
    def between(self, low, high): return Between(self, _wrap(low), _wrap(high))
    def isin(self, values): return InList(self, list(values))
    def like(self, pattern): return Like(self, pattern)
    def not_like(self, pattern): return Not(Like(self, pattern))

    def __and__(self, other): return And(self, other)
    def __or__(self, other): return Or(self, other)
    def __invert__(self): return Not(self)


def _wrap(value) -> "Expr":
    if isinstance(value, Expr):
        return value
    return Const(value)


@dataclass(frozen=True)
class Col(Expr):
    name: str

    def eval(self, rel) -> np.ndarray:
        return _columns_of(rel)[self.name]

    def columns(self) -> Set[str]:
        return {self.name}


@dataclass(frozen=True)
class Const(Expr):
    value: object

    def eval(self, rel) -> np.ndarray:
        if hasattr(rel, "num_rows"):
            n = rel.num_rows
        else:  # a mapping of columns
            n = len(next(iter(rel.values()))) if rel else 0
        return np.full(n, self.value)

    def columns(self) -> Set[str]:
        return set()


_ARITH = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
}


@dataclass(frozen=True)
class Arith(Expr):
    op: str
    left: Expr
    right: Expr

    def eval(self, rel) -> np.ndarray:
        return _ARITH[self.op](self.left.eval(rel), self.right.eval(rel))

    def columns(self) -> Set[str]:
        return self.left.columns() | self.right.columns()


_CMP = {
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


@dataclass(frozen=True)
class Cmp(Expr):
    op: str
    left: Expr
    right: Expr

    def eval(self, rel) -> np.ndarray:
        return _CMP[self.op](self.left.eval(rel), self.right.eval(rel))

    def columns(self) -> Set[str]:
        return self.left.columns() | self.right.columns()


@dataclass(frozen=True)
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr

    def eval(self, rel) -> np.ndarray:
        values = self.operand.eval(rel)
        return (values >= self.low.eval(rel)) & (values <= self.high.eval(rel))

    def columns(self) -> Set[str]:
        return self.operand.columns() | self.low.columns() | self.high.columns()


class InList(Expr):
    def __init__(self, operand: Expr, values: Sequence[object]):
        self.operand = operand
        self.values = list(values)

    def eval(self, rel) -> np.ndarray:
        return np.isin(self.operand.eval(rel), self.values)

    def columns(self) -> Set[str]:
        return self.operand.columns()


class Like(Expr):
    """SQL LIKE with ``%`` wildcards (no ``_``), vectorised.

    The pattern is split on ``%``; segments must occur in order, with the
    first/last anchored when the pattern does not start/end with ``%``.
    """

    def __init__(self, operand: Expr, pattern: str):
        if "_" in pattern:
            raise NotImplementedError("LIKE '_' wildcard not supported")
        self.operand = operand
        self.pattern = pattern
        self.segments = [s for s in pattern.split("%") if s]
        self.anchored_start = not pattern.startswith("%")
        self.anchored_end = not pattern.endswith("%")

    def eval(self, rel) -> np.ndarray:
        values = self.operand.eval(rel)
        n = len(values)
        if not self.segments:
            return np.ones(n, dtype=bool)
        result = np.ones(n, dtype=bool)
        position = np.zeros(n, dtype=np.int64)
        for i, segment in enumerate(self.segments):
            if i == 0 and self.anchored_start:
                found = np.char.startswith(values, segment)
                result &= found
                position = np.where(found, len(segment), position)
            else:
                # find segment at or after `position`
                idx = _find_from(values, segment, position)
                found = idx >= 0
                result &= found
                position = np.where(found, idx + len(segment), position)
        if self.anchored_end:
            lengths = np.char.str_len(values)
            last = self.segments[-1]
            if len(self.segments) == 1 and self.anchored_start:
                result &= lengths == len(last)
            else:
                ends = np.char.endswith(values, last)
                result &= ends & (position <= lengths)
                # the trailing segment must not overlap an earlier match
                result &= lengths - len(last) >= position - len(last)
        return result

    def columns(self) -> Set[str]:
        return self.operand.columns()


def _find_from(values: np.ndarray, segment: str, start: np.ndarray) -> np.ndarray:
    """Per-element ``str.find(segment, start)``."""
    if values.dtype.kind == "U":
        # np.char.find supports a scalar start only; emulate per-row start
        # by masking matches before `start`.
        idx = np.char.find(values, segment)
        ok = idx >= start
        out = np.where(ok, idx, -1)
        # rows where the first occurrence is too early may still contain a
        # later occurrence; handle those few rows directly
        retry = (idx >= 0) & ~ok
        for i in np.flatnonzero(retry):
            out[i] = values[i].find(segment, int(start[i]))
        return out
    out = np.empty(len(values), dtype=np.int64)
    for i, v in enumerate(values):
        out[i] = v.find(segment, int(start[i]))
    return out


@dataclass(frozen=True)
class And(Expr):
    left: Expr
    right: Expr

    def eval(self, rel) -> np.ndarray:
        return self.left.eval(rel) & self.right.eval(rel)

    def columns(self) -> Set[str]:
        return self.left.columns() | self.right.columns()


@dataclass(frozen=True)
class Or(Expr):
    left: Expr
    right: Expr

    def eval(self, rel) -> np.ndarray:
        return self.left.eval(rel) | self.right.eval(rel)

    def columns(self) -> Set[str]:
        return self.left.columns() | self.right.columns()


@dataclass(frozen=True)
class Not(Expr):
    operand: Expr

    def eval(self, rel) -> np.ndarray:
        return ~self.operand.eval(rel)

    def columns(self) -> Set[str]:
        return self.operand.columns()


class Case(Expr):
    """``CASE WHEN cond THEN value ... ELSE default END``."""

    def __init__(self, whens: Sequence[Tuple[Expr, Expr]], default: Union[Expr, object] = 0):
        self.whens = [(c, _wrap(v)) for c, v in whens]
        self.default = _wrap(default)

    def eval(self, rel) -> np.ndarray:
        conditions = [c.eval(rel) for c, _ in self.whens]
        choices = [v.eval(rel) for _, v in self.whens]
        return np.select(conditions, choices, default=self.default.eval(rel))

    def columns(self) -> Set[str]:
        out: Set[str] = set(self.default.columns())
        for c, v in self.whens:
            out |= c.columns() | v.columns()
        return out


@dataclass(frozen=True)
class Substring(Expr):
    """1-based SQL SUBSTRING of fixed length."""

    operand: Expr
    start: int
    length: int

    def eval(self, rel) -> np.ndarray:
        values = self.operand.eval(rel)
        lo = self.start - 1
        hi = lo + self.length
        return np.array([v[lo:hi] for v in values], dtype=f"<U{self.length}")

    def columns(self) -> Set[str]:
        return self.operand.columns()


@dataclass(frozen=True)
class Year(Expr):
    """EXTRACT(YEAR FROM date-column) for int-days date columns."""

    operand: Expr

    def eval(self, rel) -> np.ndarray:
        values = self.operand.eval(rel).astype("datetime64[D]")
        return values.astype("datetime64[Y]").astype(np.int64) + 1970

    def columns(self) -> Set[str]:
        return self.operand.columns()


# ----------------------------------------------------------------- sugar
def validity(expr: Expr, rel) -> Optional[np.ndarray]:
    """Where ``expr`` evaluated over the relation ``rel`` is valid (not
    NULL): where every input column it reads is valid — NULL in, NULL
    out.  None when no input column carries a mask (every row valid)."""
    masks = [rel.valid[c] for c in sorted(expr.columns()) if c in rel.valid]
    if not masks:
        return None
    return masks[0] if len(masks) == 1 else np.logical_and.reduce(masks)


def col(name: str) -> Col:
    return Col(name)


def lit(value) -> Const:
    return Const(value)


def year(expr: Union[str, Expr]) -> Year:
    return Year(col(expr) if isinstance(expr, str) else expr)
