"""Naive reference evaluator: logical plans directly on base arrays.

This is the oracle half of the differential test.  It interprets a
logical plan straight over the :class:`~repro.storage.database.Database`
column vectors — no physical schemes, no lowering, no physical
operators, no shared join/aggregation kernels.  Joins use python
dictionaries, grouping uses ordered key-tuple maps, sorting uses a
comparison sort; the only shared machinery is the expression language
(predicates and projections are *inputs* to both systems, not the
subject under test).

NULL semantics mirror the engine's: a left join's unmatched rows carry
placeholder values plus a validity mask, ``count`` over a column skips
invalid rows, and aggregates of non-``Col`` expressions ignore validity
(exactly what :mod:`repro.execution.operators` does).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..execution.aggregate import AggSpec
from ..execution.expressions import Col
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

    def gather(self, indices) -> "RefRelation":
        idx = np.asarray(indices, dtype=np.int64)
        return RefRelation(
            columns={n: a[idx] for n, a in self.columns.items()},
            valid={n: m[idx] for n, m in self.valid.items()},
        )

    def filter(self, mask: np.ndarray) -> "RefRelation":
        return RefRelation(
            columns={n: a[mask] for n, a in self.columns.items()},
            valid={n: m[mask] for n, m in self.valid.items()},
        )


def evaluate_reference(db: Database, plan) -> RefRelation:
    """Evaluate a logical plan against the base data."""
    node = plan.node if isinstance(plan, Plan) else plan
    return _eval(db, node)


# ---------------------------------------------------------------- dispatch
def _eval(db: Database, node: PlanNode) -> RefRelation:
    if isinstance(node, ScanNode):
        return _eval_scan(db, node)
    if isinstance(node, FilterNode):
        rel = _eval(db, node.input)
        mask = np.asarray(node.predicate.eval(rel), dtype=bool)
        return rel.filter(mask)
    if isinstance(node, ProjectNode):
        return _eval_project(_eval(db, node.input), node)
    if isinstance(node, JoinNode):
        return _eval_join(_eval(db, node.left), _eval(db, node.right), node)
    if isinstance(node, GroupByNode):
        return _eval_groupby(_eval(db, node.input), node)
    if isinstance(node, SortNode):
        return _eval_sort(_eval(db, node.input), node)
    if isinstance(node, LimitNode):
        rel = _eval(db, node.input)
        return rel.gather(np.arange(min(node.count, rel.num_rows)))
    raise TypeError(f"unknown node {type(node).__name__}")


def _eval_scan(db: Database, node: ScanNode) -> RefRelation:
    data = db.table_data(node.table)
    rel = RefRelation(columns={node.prefix + c: v for c, v in data.items()})
    if node.predicate is not None:
        rel = rel.filter(np.asarray(node.predicate.eval(rel), dtype=bool))
    return rel


def _eval_project(rel: RefRelation, node: ProjectNode) -> RefRelation:
    columns: Dict[str, np.ndarray] = {}
    valid: Dict[str, np.ndarray] = {}
    for name, expr in node.exprs:
        columns[name] = np.asarray(expr.eval(rel))
        if isinstance(expr, Col) and expr.name in rel.valid:
            valid[name] = rel.valid[expr.name]
    return RefRelation(columns=columns, valid=valid)


# ------------------------------------------------------------------- joins
def _key_tuples(rel: RefRelation, names: Tuple[str, ...]) -> List[tuple]:
    arrays = [rel.columns[n].tolist() for n in names]
    return list(zip(*arrays)) if arrays else []


def _pair_env(left: RefRelation, right: RefRelation, lidx, ridx) -> RefRelation:
    """Joined-row environment for residual evaluation; on duplicate
    names the left side wins (the engine assembles the same way)."""
    lpart = left.gather(lidx)
    rpart = right.gather(ridx)
    columns = dict(lpart.columns)
    for name, arr in rpart.columns.items():
        columns.setdefault(name, arr)
    return RefRelation(columns=columns)


def _eval_join(left: RefRelation, right: RefRelation, node: JoinNode) -> RefRelation:
    lkeys = _key_tuples(left, node.left_cols)
    rkeys = _key_tuples(right, node.right_cols)
    index: Dict[tuple, List[int]] = {}
    for j, key in enumerate(rkeys):
        index.setdefault(key, []).append(j)

    if node.how in ("semi", "anti"):
        if node.residual is None:
            keep = np.array([key in index for key in lkeys], dtype=bool)
        else:
            lidx: List[int] = []
            ridx: List[int] = []
            for i, key in enumerate(lkeys):
                for j in index.get(key, ()):
                    lidx.append(i)
                    ridx.append(j)
            keep = np.zeros(left.num_rows, dtype=bool)
            if lidx:
                mask = np.asarray(
                    node.residual.eval(_pair_env(left, right, lidx, ridx)), dtype=bool
                )
                keep[np.asarray(lidx, dtype=np.int64)[mask]] = True
        if node.how == "anti":
            keep = ~keep
        return left.filter(keep)

    if node.how == "inner":
        lidx, ridx = [], []
        for i, key in enumerate(lkeys):
            for j in index.get(key, ()):
                lidx.append(i)
                ridx.append(j)
        if node.residual is not None and lidx:
            mask = np.asarray(
                node.residual.eval(_pair_env(left, right, lidx, ridx)), dtype=bool
            )
            lidx = [i for i, ok in zip(lidx, mask) if ok]
            ridx = [j for j, ok in zip(ridx, mask) if ok]
        lpart = left.gather(lidx)
        rpart = right.gather(ridx)
        columns = dict(lpart.columns)
        valid = dict(lpart.valid)
        for name, arr in rpart.columns.items():
            columns.setdefault(name, arr)
        for name, mask in rpart.valid.items():
            valid.setdefault(name, mask)
        return RefRelation(columns=columns, valid=valid)

    if node.how == "left":
        lidx, ridx = [], []
        for i, key in enumerate(lkeys):
            matches = index.get(key)
            if matches:
                for j in matches:
                    lidx.append(i)
                    ridx.append(j)
            else:
                lidx.append(i)
                ridx.append(-1)
        ridx_arr = np.asarray(ridx, dtype=np.int64)
        matched = ridx_arr >= 0
        take = np.where(matched, ridx_arr, 0)
        lpart = left.gather(lidx)
        columns = dict(lpart.columns)
        valid = dict(lpart.valid)
        for name, arr in right.columns.items():
            if name in columns:
                continue
            if len(arr) == 0:
                columns[name] = np.zeros(len(lidx), dtype=arr.dtype)
            else:
                columns[name] = arr[take]
            prior = right.valid.get(name)
            valid[name] = matched if prior is None else (matched & prior[take])
        return RefRelation(columns=columns, valid=valid)

    raise AssertionError(node.how)


# --------------------------------------------------------------- group by
def _eval_groupby(rel: RefRelation, node: GroupByNode) -> RefRelation:
    n = rel.num_rows
    if node.keys:
        key_tuples = _key_tuples(rel, node.keys)
        groups: Dict[tuple, List[int]] = {}
        for i, key in enumerate(key_tuples):
            groups.setdefault(key, []).append(i)
        group_rows = list(groups.values())
    else:
        group_rows = [list(range(n))] if n else []

    columns: Dict[str, np.ndarray] = {}
    first_rows = np.asarray([rows[0] for rows in group_rows], dtype=np.int64)
    for key in node.keys:
        columns[key] = rel.columns[key][first_rows]
    for spec in node.aggs:
        columns[spec.name] = _aggregate(rel, spec, group_rows)
    return RefRelation(columns=columns)


def _aggregate(rel: RefRelation, spec: AggSpec, group_rows: List[List[int]]) -> np.ndarray:
    values: Optional[np.ndarray] = None
    valid: Optional[np.ndarray] = None
    if spec.expr is not None:
        values = np.asarray(spec.expr.eval(rel))
        if isinstance(spec.expr, Col):
            valid = rel.valid.get(spec.expr.name)

    out: List = []
    for rows in group_rows:
        idx = np.asarray(rows, dtype=np.int64)
        if spec.fn == "count":
            if valid is not None:
                out.append(int(np.count_nonzero(valid[idx])))
            else:
                out.append(len(rows))
            continue
        if spec.fn == "count_distinct":
            # validity is ignored, as in the engine kernel
            out.append(len(set(values[idx].tolist())))
            continue
        group_values = values[idx]
        if valid is not None:
            group_values = group_values[valid[idx]]
        if spec.fn == "sum":
            out.append(float(np.sum(group_values.astype(np.float64))))
        elif spec.fn == "avg":
            if len(group_values) == 0:
                out.append(float("nan"))
            else:
                out.append(float(np.sum(group_values.astype(np.float64))) / len(group_values))
        elif spec.fn in ("min", "max"):
            reducer = np.min if spec.fn == "min" else np.max
            integral = group_values.dtype.kind in "iu"
            if len(group_values) == 0:
                # mirrors the kernel's empty-group sentinel behaviour
                out.append(0 if integral else float("inf") if spec.fn == "min" else float("-inf"))
            elif group_values.dtype.kind == "U":
                out.append(str(reducer(group_values)))
            elif integral:
                out.append(int(reducer(group_values)))
            else:
                out.append(float(reducer(group_values)))
        else:
            raise AssertionError(spec.fn)
    if not out:
        return np.zeros(0)
    return np.asarray(out)


# -------------------------------------------------------------------- sort
def _eval_sort(rel: RefRelation, node: SortNode) -> RefRelation:
    """Order rows by the sort keys.  Only the *order relation* matters
    (the differential compares multisets, and a LIMIT is only generated
    above a total-order sort), so descending keys may be realised by
    negating numeric values / string ranks."""
    n = rel.num_rows
    if n == 0:
        return rel
    sort_keys = []
    for name, ascending in reversed(node.keys):
        values = rel.columns[name]
        if values.dtype.kind == "U":
            _, values = np.unique(values, return_inverse=True)
        if values.dtype.kind in "iu":
            # keep integral: a float64 cast would collapse distinct
            # int64 keys above 2^53 and break total-order LIMITs
            values = values.astype(np.int64)
        else:
            values = values.astype(np.float64)
        sort_keys.append(values if ascending else -values)
    order = np.lexsort(tuple(sort_keys))
    return rel.gather(order)
