"""Logical query plans.

Queries are written once against this small algebra; the executor then
exploits whatever the active physical scheme offers (merge joins under
PK, pushdown/propagation/sandwiching under BDCC) without any change to
the plan.  Plans are trees of immutable nodes with a fluent builder.

Aliases: a scan's columns keep their base names unless an explicit alias
differs from the table name, in which case they are prefixed
``alias.column`` (needed for self-joins, e.g. TPC-H Q21).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

from ..execution.aggregate import AggSpec
from ..execution.expressions import Expr

__all__ = [
    "PlanNode", "ScanNode", "FilterNode", "ProjectNode", "JoinNode",
    "GroupByNode", "SortNode", "LimitNode", "scan", "Plan",
]

JOIN_KINDS = ("inner", "left", "semi", "anti")


@dataclass(frozen=True)
class PlanNode:
    """Base class for logical plan nodes."""

    def children(self) -> Tuple["PlanNode", ...]:
        return ()


@dataclass(frozen=True)
class ScanNode(PlanNode):
    table: str
    alias: str
    predicate: Optional[Expr] = None

    @property
    def prefix(self) -> str:
        """Column-name prefix this scan applies (empty when alias==table)."""
        return "" if self.alias == self.table else f"{self.alias}."


@dataclass(frozen=True)
class FilterNode(PlanNode):
    input: PlanNode
    predicate: Expr

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.input,)


@dataclass(frozen=True)
class ProjectNode(PlanNode):
    input: PlanNode
    exprs: Tuple[Tuple[str, Expr], ...]  # (output name, expression)

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.input,)


@dataclass(frozen=True)
class JoinNode(PlanNode):
    left: PlanNode
    right: PlanNode
    left_cols: Tuple[str, ...]
    right_cols: Tuple[str, ...]
    how: str = "inner"
    #: extra non-equi condition evaluated on joined rows (inner joins).
    residual: Optional[Expr] = None

    def __post_init__(self) -> None:
        if self.how not in JOIN_KINDS:
            raise ValueError(f"unknown join kind {self.how!r}")
        if len(self.left_cols) != len(self.right_cols) or not self.left_cols:
            raise ValueError("join needs matching key column lists")
        if self.residual is not None and self.how not in ("inner", "semi", "anti"):
            raise ValueError("residual conditions require inner/semi/anti joins")

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class GroupByNode(PlanNode):
    input: PlanNode
    keys: Tuple[str, ...]
    aggs: Tuple[AggSpec, ...]

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.input,)


@dataclass(frozen=True)
class SortNode(PlanNode):
    input: PlanNode
    keys: Tuple[Tuple[str, bool], ...]  # (column, ascending)

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.input,)


@dataclass(frozen=True)
class LimitNode(PlanNode):
    input: PlanNode
    count: int

    def children(self) -> Tuple[PlanNode, ...]:
        return (self.input,)


class Plan:
    """Fluent builder around a :class:`PlanNode`."""

    def __init__(self, node: PlanNode):
        self.node = node

    def filter(self, predicate: Expr) -> "Plan":
        return Plan(FilterNode(self.node, predicate))

    def project(self, **exprs: Expr) -> "Plan":
        return Plan(ProjectNode(self.node, tuple(exprs.items())))

    def project_items(self, items: Sequence[Tuple[str, Expr]]) -> "Plan":
        return Plan(ProjectNode(self.node, tuple(items)))

    def join(
        self,
        other: Union["Plan", PlanNode],
        on: Sequence[Tuple[str, str]],
        how: str = "inner",
        residual: Optional[Expr] = None,
    ) -> "Plan":
        right = other.node if isinstance(other, Plan) else other
        left_cols = tuple(l for l, _ in on)
        right_cols = tuple(r for _, r in on)
        return Plan(JoinNode(self.node, right, left_cols, right_cols, how, residual))

    def groupby(self, keys: Sequence[str], aggs: Sequence[AggSpec]) -> "Plan":
        return Plan(GroupByNode(self.node, tuple(keys), tuple(aggs)))

    def sort(self, keys: Sequence[Tuple[str, bool]]) -> "Plan":
        return Plan(SortNode(self.node, tuple(keys)))

    def limit(self, count: int) -> "Plan":
        return Plan(LimitNode(self.node, count))


def scan(table: str, alias: Optional[str] = None, predicate: Optional[Expr] = None) -> Plan:
    """Start a plan with a (predicated) table scan."""
    return Plan(ScanNode(table=table, alias=alias or table, predicate=predicate))


def walk(node: PlanNode):
    """Yield every node of a plan tree, pre-order."""
    yield node
    for child in node.children():
        yield from walk(child)
