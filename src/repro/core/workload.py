"""Workload-aware dimension-use selection (the paper's future work (i)).

Algorithm 2 is deliberately workload-agnostic, but the paper notes that
on very large schemas it "will identify too many dimension uses for a
table" and suggests as a future direction to *ignore dimension uses with
less impact on a workload*.  This module implements that extension: given
a set of representative logical plans, each candidate use is scored by
how often a query could actually exploit it —

* **pushdown/propagation benefit**: the use's dimension path is realised
  by the query's (filtering) joins and predicates sit on the dimension's
  host (or its filtering ancestors);
* **sandwich benefit**: some join in the query runs along the use's
  leading foreign key (or on the host key itself), so the use can
  pre-group that join;
* **partitioned-aggregation benefit**: a grouping key set covers the
  use's leading foreign key or the table's primary key.

``prune_design`` then keeps, per table, the ``max_uses`` best-scoring
uses (ties broken by discovery order, preserving Algorithm 2 semantics
for untouched tables).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from ..catalog import Schema
from ..planner.analysis import analyse_plan
from ..planner.logical import GroupByNode, Plan, PlanNode, walk
from .advisor import SchemaDesign
from .dimension_use import DimensionUse

__all__ = ["UseScore", "WorkloadAnalyzer", "prune_design"]


@dataclass
class UseScore:
    """Benefit tally for one dimension use of one table."""

    table: str
    dimension: str
    path: Tuple[str, ...]
    pushdown: int = 0
    sandwich: int = 0
    aggregation: int = 0

    @property
    def total(self) -> int:
        return self.pushdown + self.sandwich + self.aggregation


class WorkloadAnalyzer:
    """Scores a design's dimension uses against a plan workload."""

    def __init__(self, schema: Schema):
        self.schema = schema

    def score(
        self, design: SchemaDesign, workload: Iterable[object]
    ) -> Dict[Tuple[str, str, Tuple[str, ...]], UseScore]:
        scores: Dict[Tuple[str, str, Tuple[str, ...]], UseScore] = {}
        for table, uses in design.table_uses.items():
            for use in uses:
                key = (table, use.dimension.name, use.path)
                scores[key] = UseScore(table, use.dimension.name, use.path)
        for plan in workload:
            node = plan.node if isinstance(plan, Plan) else plan
            self._score_plan(node, design, scores)
        return scores

    # ------------------------------------------------------------ internals
    def _score_plan(self, node: PlanNode, design: SchemaDesign, scores) -> None:
        analysis = analyse_plan(node, self.schema)
        predicated = {
            alias
            for alias, scan_node in analysis.scans.items()
            if scan_node.predicate is not None
        }
        joined_fks = {(edge.child_alias, edge.fk_name) for edge in analysis.edges}
        # (alias, fk name) pairs a group-by's keys cover; None = the primary key
        grouped_fk_covers = set()
        for n in walk(node):
            if isinstance(n, GroupByNode):
                for cover in analysis.covers(n.input, n.keys):
                    grouped_fk_covers.update((cover.alias, fk.name) for fk in cover.fks)
                    if cover.pk:
                        grouped_fk_covers.add((cover.alias, None))

        for alias, scan_node in analysis.scans.items():
            for use in design.uses_for(scan_node.table):
                key = (scan_node.table, use.dimension.name, use.path)
                score = scores.get(key)
                if score is None:
                    continue
                host = analysis.walk_path(alias, use.path)
                # the host, or a filtering ancestor of it, is predicated
                if host is not None and analysis.parents(host, filtering=True) & predicated:
                    score.pushdown += 1
                lead = use.path[0] if use.path else None
                if lead is not None and (alias, lead) in joined_fks:
                    score.sandwich += 1
                if (alias, lead) in grouped_fk_covers or (alias, None) in grouped_fk_covers:
                    score.aggregation += 1


def prune_design(
    design: SchemaDesign,
    scores: Dict[Tuple[str, str, Tuple[str, ...]], UseScore],
    max_uses_per_table: int,
) -> SchemaDesign:
    """A design keeping only each table's ``max_uses_per_table``
    highest-impact uses.  Uses with zero workload benefit are dropped
    even under the cap only if the table exceeds it."""
    if max_uses_per_table < 1:
        raise ValueError("must keep at least one use per table")
    new_uses: Dict[str, List[DimensionUse]] = {}
    for table, uses in design.table_uses.items():
        if len(uses) <= max_uses_per_table:
            new_uses[table] = list(uses)
            continue
        ranked = sorted(
            enumerate(uses),
            key=lambda pair: (
                -scores[(table, pair[1].dimension.name, pair[1].path)].total,
                pair[0],
            ),
        )
        keep = sorted(idx for idx, _ in ranked[:max_uses_per_table])
        new_uses[table] = [uses[i] for i in keep]
    return SchemaDesign(dimensions=dict(design.dimensions), table_uses=new_uses)
