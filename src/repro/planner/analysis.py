"""Static plan analysis: aliases, column ownership, FK edges, demands.

Shared by selection propagation (which needs the query's join graph) and
the executor (which needs per-scan column demands so scans only read —
and charge IO for — referenced columns, as a column store does).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..catalog import Schema
from ..execution.expressions import Col
from .logical import (
    FilterNode,
    GroupByNode,
    JoinNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SortNode,
    walk,
)

__all__ = ["FKEdge", "PlanAnalysis", "analyse_plan", "strip_prefix"]


def strip_prefix(column: str, prefix: str) -> str:
    if prefix and column.startswith(prefix):
        return column[len(prefix):]
    return column


@dataclass(frozen=True)
class FKEdge:
    """A join in the plan that follows a declared foreign key."""

    child_alias: str
    parent_alias: str
    fk_name: str
    how: str          # join kind
    child_is_left: bool

    def filters_child(self) -> bool:
        """May parent-side predicates restrict the child's scan?

        Inner joins: yes (both sides filtered).  Semi joins: yes on both
        sides — a probed (right-side) child row whose parent fails the
        parent's predicates can only match left rows that are absent
        anyway.  Left/anti joins: only when the child is on the
        non-preserved right side; rows dropped there could only have
        matched preserved-side rows that are themselves filtered out, so
        null-extension / anti-survival is unchanged."""
        if self.how in ("inner", "semi"):
            return True
        return not self.child_is_left  # left, anti


@dataclass
class PlanAnalysis:
    scans: Dict[str, ScanNode] = field(default_factory=dict)   # alias -> node
    edges: List[FKEdge] = field(default_factory=list)
    #: per-alias set of base (unprefixed) columns the query reads;
    #: populated by the demand pass.
    demands: Dict[str, Set[str]] = field(default_factory=dict)

    def edge_from(self, child_alias: str, fk_name: str) -> Optional[FKEdge]:
        for edge in self.edges:
            if edge.child_alias == child_alias and edge.fk_name == fk_name:
                return edge
        return None

    def usable_edges_from(self, child_alias: str) -> List[FKEdge]:
        return [
            e for e in self.edges if e.child_alias == child_alias and e.filters_child()
        ]

    def walk_path(self, alias: str, path: Tuple[str, ...]) -> Optional[str]:
        """Follow a dimension path through the query's filtering FK edges;
        returns the host alias, or None when the path is not realised."""
        current = alias
        for fk_name in path:
            edge = self.edge_from(current, fk_name)
            if edge is None or not edge.filters_child():
                return None
            current = edge.parent_alias
        return current


def _output_owners(node: PlanNode, schema: Schema) -> Dict[str, str]:
    """Column name -> owning scan alias, for this node's output."""
    if isinstance(node, ScanNode):
        table = schema.table(node.table)
        return {node.prefix + c: node.alias for c in table.column_names}
    if isinstance(node, (FilterNode, SortNode, LimitNode)):
        return _output_owners(node.input, schema)
    if isinstance(node, ProjectNode):
        inner = _output_owners(node.input, schema)
        out: Dict[str, str] = {}
        for name, expr in node.exprs:
            if isinstance(expr, Col) and expr.name == name and name in inner:
                out[name] = inner[name]
        return out
    if isinstance(node, JoinNode):
        left = _output_owners(node.left, schema)
        if node.how in ("semi", "anti"):
            return left
        right = _output_owners(node.right, schema)
        merged = dict(left)
        merged.update(right)
        return merged
    if isinstance(node, GroupByNode):
        inner = _output_owners(node.input, schema)
        return {k: inner[k] for k in node.keys if k in inner}
    raise TypeError(f"unknown node {type(node).__name__}")


def _collect_edges(node: PlanNode, schema: Schema, analysis: PlanAnalysis) -> None:
    for n in walk(node):
        if isinstance(n, ScanNode):
            if n.alias in analysis.scans:
                raise ValueError(f"duplicate scan alias {n.alias!r} in plan")
            analysis.scans[n.alias] = n
    for n in walk(node):
        if not isinstance(n, JoinNode):
            continue
        left_owners = _output_owners(n.left, schema)
        right_owners = _output_owners(n.right, schema)
        lals = {left_owners.get(c) for c in n.left_cols}
        rals = {right_owners.get(c) for c in n.right_cols}
        if len(lals) != 1 or len(rals) != 1 or None in lals or None in rals:
            continue
        l_alias, r_alias = lals.pop(), rals.pop()
        l_scan, r_scan = analysis.scans[l_alias], analysis.scans[r_alias]
        l_base = tuple(strip_prefix(c, l_scan.prefix) for c in n.left_cols)
        r_base = tuple(strip_prefix(c, r_scan.prefix) for c in n.right_cols)
        # try left = child
        fk = schema.find_foreign_key(l_scan.table, l_base)
        if fk is not None and fk.parent_table == r_scan.table:
            pairs = dict(zip(fk.child_columns, fk.parent_columns))
            if all(pairs.get(lc) == rc for lc, rc in zip(l_base, r_base)):
                analysis.edges.append(FKEdge(l_alias, r_alias, fk.name, n.how, True))
                continue
        # try right = child
        fk = schema.find_foreign_key(r_scan.table, r_base)
        if fk is not None and fk.parent_table == l_scan.table:
            pairs = dict(zip(fk.child_columns, fk.parent_columns))
            if all(pairs.get(rc) == lc for rc, lc in zip(r_base, l_base)):
                analysis.edges.append(FKEdge(r_alias, l_alias, fk.name, n.how, False))


def _demand(node: PlanNode, needed: Optional[Set[str]], schema: Schema, analysis: PlanAnalysis) -> None:
    """Record, per scan, which base columns the query requires."""
    if isinstance(node, ScanNode):
        table = schema.table(node.table)
        all_cols = {node.prefix + c for c in table.column_names}
        wanted = all_cols if needed is None else (needed & all_cols)
        if node.predicate is not None:
            wanted = set(wanted) | (node.predicate.columns() & all_cols)
        base = {strip_prefix(c, node.prefix) for c in wanted}
        analysis.demands.setdefault(node.alias, set()).update(base)
        return
    if isinstance(node, FilterNode):
        extra = node.predicate.columns()
        _demand(node.input, None if needed is None else needed | extra, schema, analysis)
        return
    if isinstance(node, ProjectNode):
        wanted: Set[str] = set()
        for name, expr in node.exprs:
            if needed is None or name in needed:
                wanted |= expr.columns()
        _demand(node.input, wanted, schema, analysis)
        return
    if isinstance(node, JoinNode):
        residual_cols = node.residual.columns() if node.residual is not None else set()
        down = None if needed is None else needed | set(node.left_cols) | set(node.right_cols) | residual_cols
        _demand(node.left, down, schema, analysis)
        _demand(node.right, down, schema, analysis)
        return
    if isinstance(node, GroupByNode):
        wanted = set(node.keys)
        for spec in node.aggs:
            if spec.expr is not None:
                wanted |= spec.expr.columns()
        _demand(node.input, wanted, schema, analysis)
        return
    if isinstance(node, SortNode):
        extra = {c for c, _ in node.keys}
        _demand(node.input, None if needed is None else needed | extra, schema, analysis)
        return
    if isinstance(node, LimitNode):
        _demand(node.input, needed, schema, analysis)
        return
    raise TypeError(f"unknown node {type(node).__name__}")


def analyse_plan(node: PlanNode, schema: Schema) -> PlanAnalysis:
    """Aliases, FK edges and per-scan column demands of one plan."""
    analysis = PlanAnalysis()
    _collect_edges(node, schema, analysis)
    _demand(node, None, schema, analysis)
    return analysis
