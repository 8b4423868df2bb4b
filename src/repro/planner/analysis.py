"""Static plan analysis: aliases, column ownership, FK edges, demands.

Shared by selection propagation (which needs the query's join graph),
the executor (which needs per-scan column demands so scans only read —
and charge IO for — referenced columns, as a column store does), and
lowering and the workload scorer, which ask it who owns a column
(``owners``), which keys a column set covers (``covers``: a covered key
determines a dimension use's bins, Section II of the paper), which scans
a row determines (``parents``) and which FK edge a join follows
(``join_edges``), and decide none of it themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..catalog import ForeignKey, Schema
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

__all__ = ["FKEdge", "KeyCover", "PlanAnalysis", "analyse_plan", "strip_prefix"]


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


@dataclass(frozen=True)
class KeyCover:
    """The keys of one scan's table that a set of output columns covers."""

    alias: str
    table: str
    columns: Dict[str, str]       # covered base column -> output column
    pk: Tuple[str, ...]           # the primary key if covered, else ()
    fks: Tuple[ForeignKey, ...]   # outgoing FKs whose child columns are covered


@dataclass
class PlanAnalysis:
    schema: Schema
    scans: Dict[str, ScanNode] = field(default_factory=dict)   # alias -> node
    #: per logical node (by ``id``), output column -> owning scan alias
    owners: Dict[int, Dict[str, str]] = field(default_factory=dict)
    edges: List[FKEdge] = field(default_factory=list)
    #: per join node (by ``id``), the edge it follows, if any
    join_edges: Dict[int, FKEdge] = field(default_factory=dict)
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

    def covers(self, node: PlanNode, columns: Sequence[str]) -> List[KeyCover]:
        """Per scan owning some of ``columns`` of ``node``'s output, in
        order of first ownership, which of its table's keys they cover (a
        covered key fixes the row, or the row it references, and its bins)."""
        owners = self.owners[id(node)]
        by_alias: Dict[str, Dict[str, str]] = {}
        for column in columns:
            alias = owners.get(column)
            if alias is not None:
                base = strip_prefix(column, self.scans[alias].prefix)
                by_alias.setdefault(alias, {})[base] = column
        result = []
        for alias, mapped in by_alias.items():
            table = self.schema.table(self.scans[alias].table)
            pk = table.primary_key if set(table.primary_key) <= set(mapped) else ()
            fks = tuple(
                fk for fk in self.schema.outgoing_foreign_keys(table.name)
                if set(fk.child_columns) <= set(mapped)
            )
            result.append(KeyCover(alias, table.name, mapped, pk, fks))
        return result

    def parents(self, alias: str, filtering: bool = False) -> Set[str]:
        """``alias`` and every alias reachable from it over the query's
        FK joins from child to parent — the scans whose rows a row of
        ``alias`` determines.  With ``filtering``, only over edges whose
        parent may restrict the child (:meth:`FKEdge.filters_child`)."""
        closure = {alias}
        frontier = [alias]
        while frontier:
            current = frontier.pop()
            for edge in self.edges:
                if edge.child_alias != current or edge.parent_alias in closure:
                    continue
                if filtering and not edge.filters_child():
                    continue
                closure.add(edge.parent_alias)
                frontier.append(edge.parent_alias)
        return closure


def _output_owners(
    node: PlanNode, schema: Schema, owners: Dict[int, Dict[str, str]]
) -> Dict[str, str]:
    """Column name -> owning scan alias, for this node's output; the
    children's maps are read from ``owners``.  A column a projection
    renames or computes has no owner."""
    if isinstance(node, ScanNode):
        table = schema.table(node.table)
        return {node.prefix + c: node.alias for c in table.column_names}
    if isinstance(node, (FilterNode, SortNode, LimitNode)):
        return owners[id(node.input)]
    if isinstance(node, ProjectNode):
        inner = owners[id(node.input)]
        out: Dict[str, str] = {}
        for name, expr in node.exprs:
            if isinstance(expr, Col) and expr.name == name and name in inner:
                out[name] = inner[name]
        return out
    if isinstance(node, JoinNode):
        left = owners[id(node.left)]
        if node.how in ("semi", "anti"):
            return left
        merged = dict(left)
        merged.update(owners[id(node.right)])
        return merged
    if isinstance(node, GroupByNode):
        inner = owners[id(node.input)]
        return {k: inner[k] for k in node.keys if k in inner}
    raise TypeError(f"unknown node {type(node).__name__}")


def _collect_edges(node: PlanNode, schema: Schema, analysis: PlanAnalysis) -> None:
    for n in walk(node):
        if not isinstance(n, JoinNode):
            continue
        lals = {analysis.owners[id(n.left)].get(c) for c in n.left_cols}
        rals = {analysis.owners[id(n.right)].get(c) for c in n.right_cols}
        if len(lals) != 1 or len(rals) != 1 or None in lals or None in rals:
            continue
        left = (lals.pop(), n.left_cols)
        right = (rals.pop(), n.right_cols)
        # try left = child, then right = child
        for (child, child_cols), (parent, parent_cols), child_is_left in (
            (left, right, True), (right, left, False)
        ):
            c_scan, p_scan = analysis.scans[child], analysis.scans[parent]
            c_base = tuple(strip_prefix(c, c_scan.prefix) for c in child_cols)
            p_base = tuple(strip_prefix(c, p_scan.prefix) for c in parent_cols)
            fk = schema.find_foreign_key(c_scan.table, c_base)
            if fk is None or fk.parent_table != p_scan.table:
                continue
            pairs = dict(zip(fk.child_columns, fk.parent_columns))
            if all(pairs.get(cc) == pc for cc, pc in zip(c_base, p_base)):
                edge = FKEdge(child, parent, fk.name, n.how, child_is_left)
                analysis.edges.append(edge)
                analysis.join_edges[id(n)] = edge
                break


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
    """Aliases, column owners, FK edges and per-scan column demands of
    one plan.  Owners are keyed by node identity: the analysis holds for
    as long as the plan it was made from."""
    analysis = PlanAnalysis(schema)
    nodes = list(walk(node))
    for n in nodes:
        if isinstance(n, ScanNode):
            if n.alias in analysis.scans:
                raise ValueError(f"duplicate scan alias {n.alias!r} in plan")
            analysis.scans[n.alias] = n
    for n in reversed(nodes):  # reversed pre-order: children first
        analysis.owners[id(n)] = _output_owners(n, schema, analysis.owners)
    _collect_edges(node, schema, analysis)
    _demand(node, None, schema, analysis)
    return analysis
