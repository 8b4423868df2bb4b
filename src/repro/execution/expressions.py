"""Vectorised expression language for predicates and projections.

An expression evaluates against a :class:`~repro.execution.relation.Relation`
to its values *and* its validity — the one place the engine's NULL rule
lives: a NULL input gives a NULL output, ``And``/``Or``/``Not`` follow
Kleene's three-valued logic, a ``Case`` branch fires only where its
condition is TRUE, and :meth:`Expr.holds` is the rows a predicate keeps
(TRUE, neither FALSE nor NULL).  The repertoire covers everything the 22
TPC-H queries need: arithmetic, comparisons, BETWEEN, IN, SQL LIKE
(``%`` wildcards), CASE, SUBSTRING, EXTRACT(YEAR), and boolean
connectives.  Expressions are frozen dataclasses: they hash and compare
by structure.

Date values are ``int32`` days since 1970-01-01; :func:`days` converts a
literal ``"YYYY-MM-DD"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Set, Tuple, Union

import numpy as np

__all__ = [
    "Expr", "Col", "Const", "Arith", "Cmp", "Between", "InList", "Like",
    "And", "Or", "Not", "Case", "Substring", "Year", "days",
    "col", "lit", "year", "fill_nulls",
]

#: an evaluated expression: its values and where they are valid (not
#: NULL), None when every row is
Evaluated = Tuple[np.ndarray, Optional[np.ndarray]]


def days(date_literal: str) -> int:
    """Days since 1970-01-01 for a ``YYYY-MM-DD`` literal."""
    return int(np.datetime64(date_literal, "D").astype(np.int64))


def _both(a: Optional[np.ndarray], b: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """Valid where both inputs are: NULL in, NULL out."""
    if a is None:
        return b
    return a if b is None else a & b


def fill_nulls(values: np.ndarray, valid: Optional[np.ndarray]) -> np.ndarray:
    """``values`` with every NULL on its dtype's one placeholder (zero,
    False or the empty string), so NULLs tie with each other whatever
    lay under them; ``values`` itself when ``valid`` is None."""
    if valid is None:
        return values
    return np.where(valid, values, np.zeros((), dtype=values.dtype))


class Expr:
    """Base expression node."""

    def eval(self, rel) -> Evaluated:
        """``(values, valid)`` over the relation ``rel``; the values
        under a NULL are unspecified."""
        raise NotImplementedError

    def holds(self, rel) -> np.ndarray:
        """Where this predicate is TRUE: the rows a filter keeps (a NULL
        is the bool placeholder, False)."""
        values, valid = self.eval(rel)
        return fill_nulls(np.asarray(values, dtype=bool), valid)

    #: the fields holding the expressions this one reads
    OPERANDS = ("operand",)

    def columns(self) -> Set[str]:
        """All column names this expression reads."""
        out: Set[str] = set()
        for name in self.OPERANDS:
            out |= getattr(self, name).columns()
        return out

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
    def isin(self, values): return InList(self, values)
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

    def eval(self, rel) -> Evaluated:
        return rel.column(self.name), rel.valid.get(self.name)

    def columns(self) -> Set[str]:
        return {self.name}


@dataclass(frozen=True)
class Const(Expr):
    value: object

    OPERANDS = ()

    def eval(self, rel) -> Evaluated:
        return np.full(rel.num_rows, self.value), None


@dataclass(frozen=True)
class _Binary(Expr):
    """``left op right``, elementwise, for an ``op`` of the class's ``OPS``."""

    op: str
    left: Expr
    right: Expr

    OPERANDS = ("left", "right")

    def eval(self, rel) -> Evaluated:
        (left, lvalid), (right, rvalid) = self.left.eval(rel), self.right.eval(rel)
        return self.OPS[self.op](left, right), _both(lvalid, rvalid)


class Arith(_Binary):
    OPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}


class Cmp(_Binary):
    OPS = {
        "==": np.equal, "!=": np.not_equal, "<": np.less,
        "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal,
    }


@dataclass(frozen=True)
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr

    OPERANDS = ("operand", "low", "high")

    def eval(self, rel) -> Evaluated:
        return And(self.operand.ge(self.low), self.operand.le(self.high)).eval(rel)


@dataclass(frozen=True)
class InList(Expr):
    operand: Expr
    values: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))

    def eval(self, rel) -> Evaluated:
        values, valid = self.operand.eval(rel)
        return np.isin(values, self.values), valid


@dataclass(frozen=True)
class Like(Expr):
    """SQL LIKE with ``%`` wildcards (no ``_``), vectorised.

    The pattern is split on ``%``; segments must occur in order, with the
    first/last anchored when the pattern does not start/end with ``%``.
    """

    operand: Expr
    pattern: str
    segments: Tuple[str, ...] = field(init=False, repr=False, compare=False)
    anchored_start: bool = field(init=False, repr=False, compare=False)
    anchored_end: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if "_" in self.pattern:
            raise NotImplementedError("LIKE '_' wildcard not supported")
        object.__setattr__(self, "segments", tuple(s for s in self.pattern.split("%") if s))
        object.__setattr__(self, "anchored_start", not self.pattern.startswith("%"))
        object.__setattr__(self, "anchored_end", not self.pattern.endswith("%"))

    def eval(self, rel) -> Evaluated:
        values, valid = self.operand.eval(rel)
        n = len(values)
        if not self.segments:
            return np.ones(n, dtype=bool), valid
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
        return result, valid


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
class _Kleene(Expr):
    """A connective of Kleene's logic: known where both sides are, or
    where one known side alone decides it (``DECIDES``: FALSE for
    ``And``, TRUE for ``Or``)."""

    left: Expr
    right: Expr

    OPERANDS = ("left", "right")

    def eval(self, rel) -> Evaluated:
        (left, lvalid), (right, rvalid) = self.left.eval(rel), self.right.eval(rel)
        values = self.OP(left, right)
        if lvalid is None and rvalid is None:
            return values, None
        decided = _both(lvalid, left == self.DECIDES) | _both(rvalid, right == self.DECIDES)
        return values, _both(lvalid, rvalid) | decided


class And(_Kleene):
    OP, DECIDES = np.bitwise_and, False


class Or(_Kleene):
    OP, DECIDES = np.bitwise_or, True


@dataclass(frozen=True)
class Not(Expr):
    operand: Expr

    def eval(self, rel) -> Evaluated:
        values, valid = self.operand.eval(rel)
        return ~values, valid


@dataclass(frozen=True)
class Case(Expr):
    """``CASE WHEN cond THEN value ... ELSE default END``: the first
    branch whose condition is TRUE gives the value, NULL where that
    value is NULL."""

    whens: Tuple[Tuple[Expr, Expr], ...]
    default: Union[Expr, object] = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "whens", tuple((c, _wrap(v)) for c, v in self.whens))
        object.__setattr__(self, "default", _wrap(self.default))

    def eval(self, rel) -> Evaluated:
        conditions = [c.holds(rel) for c, _ in self.whens]
        choices = [v.eval(rel) for _, v in self.whens] + [self.default.eval(rel)]
        values = np.select(conditions, [v for v, _ in choices[:-1]], default=choices[-1][0])
        if all(valid is None for _, valid in choices):
            return values, None
        every = np.ones(rel.num_rows, dtype=bool)
        masks = [every if valid is None else valid for _, valid in choices]
        return values, np.select(conditions, masks[:-1], default=masks[-1])

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

    def eval(self, rel) -> Evaluated:
        values, valid = self.operand.eval(rel)
        lo = self.start - 1
        hi = lo + self.length
        return np.array([v[lo:hi] for v in values], dtype=f"<U{self.length}"), valid


@dataclass(frozen=True)
class Year(Expr):
    """EXTRACT(YEAR FROM date-column) for int-days date columns."""

    operand: Expr

    def eval(self, rel) -> Evaluated:
        values, valid = self.operand.eval(rel)
        values = values.astype("datetime64[D]")
        return values.astype("datetime64[Y]").astype(np.int64) + 1970, valid


# ----------------------------------------------------------------- sugar
def col(name: str) -> Col:
    return Col(name)


def lit(value) -> Const:
    return Const(value)


def year(expr: Union[str, Expr]) -> Year:
    return Year(col(expr) if isinstance(expr, str) else expr)
