"""The reference: a logical plan printed as SQL and run by stdlib ``sqlite3``.

This is the oracle half of the differential test.  It shares no
evaluator with the engine — no physical schemes, no lowering, no
operators, no join/aggregation kernels and no :meth:`Expr.eval`: it
reads the plan's node and expression *structure* and prints it as one
SQL query that sqlite answers over a copy of the base data.

Three parts:

* **the loader** — one in-memory connection per
  :class:`~repro.storage.database.Database` (held weakly), with every
  table loaded on first use (dates stay day integers).  A table is
  reloaded when ``db.table_data(t)`` is no longer the mapping that was
  loaded: there is one per table version, and an append, a delete or a
  fold binds a new version, so a commit is seen on the next call.  The
  loaded mapping stays referenced, so its identity cannot be recycled
  by a later one;
* **the printer** — the 7 node types and 13 expression classes as SQL
  text.  Literals are bound as named parameters (sqlite's own decimal
  parser can miss a double by one ulp, and generated literals are
  sampled from the data, where a boundary row then flips).  Each join's
  right input is materialised into an indexed temp table: printed as
  nested derived tables instead, 3 of the first 100 generated plans at
  SF 0.01 ran past 10 s each, while with temp tables the slowest of 300
  takes 0.7 s (2-core x86-64 host);
* **the conversion back** — result rows become a :class:`RefRelation`;
  SQL NULL is ``valid=False`` over a placeholder value (NaN in a float
  column, 0 in an integer one, ``""`` in a string one).

Where SQL and the engine differ, the printer settles it: ``/`` divides
as floats (``CAST(a AS REAL) / b``), ``EXTRACT(YEAR)`` goes through
``strftime``, LIKE is case-sensitive (``PRAGMA case_sensitive_like``),
a scalar aggregate over no rows returns no row (``HAVING COUNT(*) >
0``), semi and anti joins are ``[NOT] EXISTS``, and on duplicate column
names the left side of a join wins.  NULLs need no settling: the engine
follows SQL's rules (:mod:`repro.execution.expressions`).
"""

from __future__ import annotations

import sqlite3
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..execution.expressions import (
    And, Arith, Between, Case, Cmp, Col, Const, InList, Like, Not, Or,
    Substring, Year,
)
from ..planner.logical import (
    FilterNode,
    GroupByNode,
    JoinNode,
    LimitNode,
    Plan,
    PlanNode,
    ProjectNode,
    ScanNode,
    SortNode,
)
from ..storage.database import Database

__all__ = ["RefRelation", "evaluate_reference"]


@dataclass(eq=False)
class RefRelation:
    """Columns plus per-column validity (False = NULL).  Compared and
    hashed by identity: a generated ``__eq__`` over numpy columns has no
    truth value, and the differential memoises per reference."""

    columns: Dict[str, np.ndarray]
    valid: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def num_rows(self) -> int:
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    @property
    def visible_names(self) -> List[str]:
        return [c for c in self.columns if not c.startswith("__")]


def evaluate_reference(db: Database, plan) -> RefRelation:
    """Evaluate a logical plan against the base data."""
    node = plan.node if isinstance(plan, Plan) else plan
    conn, loaded = _load(db)
    printer = _Printer(conn, loaded)
    try:
        sql, names = printer.node(node)
        rows = conn.execute(sql, printer.params).fetchall()
    finally:
        for temp in printer.temps:
            conn.execute(f"DROP TABLE {temp}")
    return _relation(names, rows)


# ------------------------------------------------------------------ loader
#: per database: its connection and the table mappings it holds a copy of
_LOADED: "weakref.WeakKeyDictionary[Database, Tuple[sqlite3.Connection, dict]]" = (
    weakref.WeakKeyDictionary()
)
_LOAD_ROWS = 4096
_SQL_TYPES = {"b": "INTEGER", "i": "INTEGER", "u": "INTEGER", "f": "REAL", "U": "TEXT"}


def _load(db: Database) -> Tuple[sqlite3.Connection, Dict[str, dict]]:
    if db not in _LOADED:
        conn = sqlite3.connect(":memory:")
        conn.execute("PRAGMA case_sensitive_like = ON")
        _LOADED[db] = (conn, {})
    conn, loaded = _LOADED[db]
    for table in db.loaded_tables:
        data = db.table_data(table)
        if loaded.get(table) is data:
            continue
        columns = ", ".join(f"{_q(c)} {_SQL_TYPES[a.dtype.kind]}" for c, a in data.items())
        conn.execute(f"DROP TABLE IF EXISTS {_q(table)}")
        conn.execute(f"CREATE TABLE {_q(table)} ({columns})")
        slots = ", ".join("?" * len(data))
        # in slices: a whole table as python objects would grow the heap
        # by more than sqlite's copy of the database
        for start in range(0, db.num_rows(table), _LOAD_ROWS):
            conn.executemany(
                f"INSERT INTO {_q(table)} VALUES ({slots})",
                zip(*(a[start:start + _LOAD_ROWS].tolist() for a in data.values())),
            )
        loaded[table] = data
    return conn, loaded


# ----------------------------------------------------------------- printer
def _q(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


_CMP = {"==": "=", "!=": "<>", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_AGG = {
    "count": "COUNT({})", "sum": "SUM({})", "avg": "AVG({})", "min": "MIN({})",
    "max": "MAX({})", "count_distinct": "COUNT(DISTINCT {})",
}


class _Printer:
    """Prints one plan; joins' right inputs become temp tables on the
    way, which the caller drops."""

    def __init__(self, conn: sqlite3.Connection, loaded: Dict[str, dict]):
        self.conn = conn
        self.loaded = loaded
        self.params: Dict[str, object] = {}
        self.temps: List[str] = []

    def node(self, node: PlanNode) -> Tuple[str, List[str]]:
        """``(SELECT statement, its output column names)``."""
        if isinstance(node, ScanNode):
            names = list(self.loaded[node.table])
            items = ", ".join(f"{_q(c)} AS {_q(node.prefix + c)}" for c in names)
            sql = f"SELECT {items} FROM {_q(node.table)}"
            if node.predicate is not None:
                sql = f"SELECT * FROM ({sql}) WHERE {self.expr(node.predicate)}"
            return sql, [node.prefix + c for c in names]
        if isinstance(node, JoinNode):
            return self.join(node)
        sql, names = self.node(node.input)
        if isinstance(node, FilterNode):
            return f"SELECT * FROM ({sql}) WHERE {self.expr(node.predicate)}", names
        if isinstance(node, ProjectNode):
            items = ", ".join(f"{self.expr(e)} AS {_q(n)}" for n, e in node.exprs)
            return f"SELECT {items} FROM ({sql})", [n for n, _ in node.exprs]
        if isinstance(node, GroupByNode):
            keys = ", ".join(_q(k) for k in node.keys)
            items = [_q(k) for k in node.keys] + [
                f"{_AGG[s.fn].format('*' if s.expr is None else self.expr(s.expr))} AS {_q(s.name)}"
                for s in node.aggs
            ]
            tail = f"GROUP BY {keys}" if node.keys else "HAVING COUNT(*) > 0"
            names = [*node.keys, *(s.name for s in node.aggs)]
            return f"SELECT {', '.join(items)} FROM ({sql}) {tail}", names
        if isinstance(node, SortNode):
            order = ", ".join(f"{_q(k)} {'ASC' if up else 'DESC'}" for k, up in node.keys)
            return f"SELECT * FROM ({sql}) ORDER BY {order}", names
        if isinstance(node, LimitNode):
            # appended to the sort's own statement, so the order it limits is that sort's
            if not isinstance(node.input, SortNode):
                sql = f"SELECT * FROM ({sql})"
            return f"{sql} LIMIT {int(node.count)}", names
        raise TypeError(f"unknown node {type(node).__name__}")

    def join(self, node: JoinNode) -> Tuple[str, List[str]]:
        left, left_names = self.node(node.left)
        right, right_names = self.node(node.right)
        temp = f"_ref_right{len(self.temps)}"
        self.conn.execute(f"CREATE TEMP TABLE {temp} AS {right}", self.params)
        self.temps.append(temp)
        keys = ", ".join(_q(c) for c in node.right_cols)
        self.conn.execute(f"CREATE INDEX {temp}_keys ON {temp} ({keys})")
        # a residual reads the joined row: the left side wins on duplicate names
        scope = {n: f"r.{_q(n)}" for n in right_names}
        scope.update({n: f"l.{_q(n)}" for n in left_names})
        on = [f"l.{_q(a)} = r.{_q(b)}" for a, b in zip(node.left_cols, node.right_cols)]
        if node.residual is not None:
            on.append(self.expr(node.residual, scope))
        on_sql = " AND ".join(on)
        if node.how in ("semi", "anti"):
            exists = "EXISTS" if node.how == "semi" else "NOT EXISTS"
            probe = f"SELECT 1 FROM {temp} AS r WHERE {on_sql}"
            return f"SELECT * FROM ({left}) AS l WHERE {exists} ({probe})", left_names
        names = left_names + [n for n in right_names if n not in left_names]
        items = ", ".join(f"{scope[n]} AS {_q(n)}" for n in names)
        kind = "LEFT JOIN" if node.how == "left" else "JOIN"
        return f"SELECT {items} FROM ({left}) AS l {kind} {temp} AS r ON {on_sql}", names

    def literal(self, value) -> str:
        name = f"p{len(self.params)}"
        self.params[name] = value.item() if isinstance(value, np.generic) else value
        return f":{name}"

    def expr(self, e, scope=None) -> str:
        """SQL text of an expression; ``scope`` qualifies column names."""
        def x(sub) -> str:
            return self.expr(sub, scope)

        if isinstance(e, Col):
            return scope[e.name] if scope is not None else _q(e.name)
        if isinstance(e, Const):
            return self.literal(e.value)
        if isinstance(e, Arith):
            left = f"CAST({x(e.left)} AS REAL)" if e.op == "/" else x(e.left)
            return f"({left} {e.op} {x(e.right)})"
        if isinstance(e, Cmp):
            return f"({x(e.left)} {_CMP[e.op]} {x(e.right)})"
        if isinstance(e, Between):
            return f"({x(e.operand)} BETWEEN {x(e.low)} AND {x(e.high)})"
        if isinstance(e, InList):
            return f"({x(e.operand)} IN ({', '.join(self.literal(v) for v in e.values)}))"
        if isinstance(e, Like):
            return f"({x(e.operand)} LIKE {self.literal(e.pattern)})"
        if isinstance(e, (And, Or)):
            return f"({x(e.left)} {'AND' if isinstance(e, And) else 'OR'} {x(e.right)})"
        if isinstance(e, Not):
            return f"(NOT {x(e.operand)})"
        if isinstance(e, Case):
            whens = " ".join(f"WHEN {x(c)} THEN {x(v)}" for c, v in e.whens)
            return f"(CASE {whens} ELSE {x(e.default)} END)"
        if isinstance(e, Substring):
            return f"substr({x(e.operand)}, {int(e.start)}, {int(e.length)})"
        if isinstance(e, Year):
            return f"CAST(strftime('%Y', {x(e.operand)} * 86400, 'unixepoch') AS INTEGER)"
        raise TypeError(f"unknown expression {type(e).__name__}")


# ---------------------------------------------------------- conversion back
def _relation(names: List[str], rows: List[tuple]) -> RefRelation:
    columns: Dict[str, np.ndarray] = {}
    valid: Dict[str, np.ndarray] = {}
    for name, values in zip(names, zip(*rows) if rows else [()] * len(names)):
        present = [v for v in values if v is not None]
        if any(isinstance(v, str) for v in present):
            placeholder = ""
        elif present and all(isinstance(v, int) for v in present):
            placeholder = 0
        else:
            placeholder = float("nan")
        columns[name] = np.array([placeholder if v is None else v for v in values])
        if len(present) < len(values):
            valid[name] = np.array([v is not None for v in values])
    return RefRelation(columns=columns, valid=valid)
