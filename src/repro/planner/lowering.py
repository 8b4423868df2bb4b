"""Lowering: logical plan -> physical plan, all strategies decided.

This is the planning half of the engine.  One walk over the logical plan
— armed with :class:`PlanAnalysis`, selection propagation and the cost
model — resolves every strategy decision the paper's evaluation turns
on, and emits a typed physical plan of
:mod:`repro.execution.operators` nodes:

* **Scans** become :class:`PhysicalScan` with resolved replica choice,
  count-table restrictions (pushdown + propagation) and zone-map ranges;
* **Joins** become a :class:`Join` whose strategy is ``merge`` (both
  inputs ordered), ``sandwich`` (co-clustered streams share a dimension
  over the join key) or ``hash``;
* **Aggregations** become an :class:`Aggregate` whose strategy is
  ``stream`` (input ordered on the keys), ``sandwich`` (keys
  functionally determine a carried dimension use) or ``hash``.

Decisions rest on *guaranteed* physical stream properties (sort order,
carried dimension uses) that follow from the schema design and are
inferred here, in :class:`_Stream`, and nowhere else — no batch carries
them at run time; who owns a column and which keys a column set covers
are asked of :class:`PlanAnalysis`.  That a plan never claims an order
or a co-clustering the data will not have is checked against executed
data by ``tests/planner/test_stream_claims.py``.  Cardinalities, in
contrast, are *estimates* (count-table and zone-map metadata plus
predicate-shape selectivities); they only tip performance choices such
as the hash-join build side.

Lowering is pure: it reads table metadata (count tables, zone maps,
schema, and — for tables with pending updates — the delta store's keys,
deletion bitmaps and per-run zone maps) but never touches row data,
charges no metrics, and lowering the same plan twice against the same
update epoch yields equal physical plans — the basis for EXPLAIN without
execution and for plan caching (cache keys carry the epoch, so a commit
can never serve a stale plan).

Besides strategies, lowering attaches the plan's *result contracts*
(:func:`repro.planner.propagation.compute_order_contracts`): a
per-operator admissibility map saying where a reordering exchange — the
co-partitioned join split of the fragmenting pass — may be introduced
without breaking an order-requiring ancestor.  See
``docs/execution-model.md`` for the bit-identical vs order-insensitive
contract semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.selection import Selection
from ..execution.expressions import (
    And,
    Between,
    Cmp,
    Col,
    Expr,
    InList,
    Like,
    Not,
    Or,
)
from ..execution.operators import (
    Aggregate,
    Join,
    Limit,
    PhysicalFilter,
    PhysicalOp,
    PhysicalProject,
    PhysicalScan,
    Sort,
    walk_physical,
)
from ..execution.relation import StreamUse, value_bytes
from ..schemes.base import PhysicalDatabase
from .analysis import PlanAnalysis, analyse_plan, strip_prefix
from .logical import (
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
from .predicates import column_ranges, conjuncts
from .propagation import ResultContract, compute_order_contracts, compute_restrictions

__all__ = ["ExecutionOptions", "PhysicalPlan", "lower"]


@dataclass(frozen=True)
class ExecutionOptions:
    """Feature switches (for ablations), sandwich tuning and the
    parallel-execution knobs.  The ablation switches are honoured at
    *lowering* time: flipping one changes the emitted physical plan, not
    the behaviour of the operators.  ``workers`` and
    ``min_partition_rows`` are honoured by the *fragmenting* pass
    (``repro.parallel``), which derives partition fragments from the
    serially lowered plan — the lowering itself is worker-agnostic.

    Frozen: an executor's options never change, so its caches key on
    the plan and the update epoch alone.  Other options mean another
    executor (``dataclasses.replace(options, ...)``)."""

    enable_pushdown: bool = True      # BDCC group pruning from local predicates
    enable_propagation: bool = True   # ... and from co-clustered neighbours
    enable_minmax: bool = True        # zone-map page pruning
    enable_sandwich: bool = True      # pre-grouped joins/aggregations
    enable_merge: bool = True         # merge joins on ordered inputs
    max_sandwich_bits: int = 8        # cap on combined sandwich group bits
    workers: int = 1                  # simulated workers (1 = serial)
    min_partition_rows: int = 2048    # smallest scan partition worth a fragment
    #: split *both* sides of sandwich joins along shared dimension bits
    #: (reordering Repartition) instead of broadcasting the build side;
    #: such plans trade the bit-identical result contract for the
    #: order-insensitive one (see docs/execution-model.md)
    enable_copartition: bool = True
    #: lower eligible aggregations into per-fragment partial aggregates
    #: below the exchange plus one merge above it (two-phase aggregation);
    #: with False every parallel aggregate gathers first and the plan
    #: keeps the bit-identical contract.  A fragment-level knob like
    #: ``enable_copartition``: the serial lowering is untouched, so the
    #: ablation is bit-identical to the serial plan by construction.
    enable_partial_agg: bool = True
    #: where parallel fragments execute: "simulated" (in-process under
    #: the deterministic scheduler) or "process" (a real
    #: ``multiprocessing`` pool forked over the stored tables; see
    #: ``repro.parallel.backends``).  Results are bit-identical either
    #: way; the process backend additionally records measured wall
    #: clock.  Purely a runtime knob: it touches neither the lowering
    #: nor the fragment plan.
    backend: str = "simulated"

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass
class PhysicalPlan:
    """A fully lowered query: the operator tree plus the context it was
    planned for.

    ``contracts`` maps operator identity to its
    :class:`~repro.planner.propagation.ResultContract` — whether a
    reordering exchange may be introduced at/below each node.  Computed
    once at lowering (pure, like everything else here) and consulted by
    the fragmenting pass when it considers a co-partitioned join split.
    """

    root: PhysicalOp
    scheme_name: str
    contracts: Dict[int, ResultContract]

    def operators(self):
        return walk_physical(self.root)


# ------------------------------------------------------------ selectivity
def _selectivity(expr: Optional[Expr]) -> float:
    """Crude predicate-shape selectivity; only used to tip performance
    choices (hash-join build side), never correctness."""
    if expr is None:
        return 1.0
    if isinstance(expr, Cmp):
        if expr.op == "==":
            return 0.15
        if expr.op == "!=":
            return 0.85
        return 0.35
    if isinstance(expr, Between):
        return 0.25
    if isinstance(expr, InList):
        return min(0.8, 0.15 * max(len(expr.values), 1))
    if isinstance(expr, Like):
        return 0.15
    if isinstance(expr, Not):
        return 1.0 - _selectivity(expr.operand)
    if isinstance(expr, And):
        return _selectivity(expr.left) * _selectivity(expr.right)
    if isinstance(expr, Or):
        s1, s2 = _selectivity(expr.left), _selectivity(expr.right)
        return min(1.0, s1 + s2 - s1 * s2)
    return 0.5


def _resolve_selection(stored, restrictions, minmax_ranges):
    """Resolve a scan's selected row set from metadata only.

    Applies count-table group pruning (``restrictions``) and zone-map
    block pruning (``minmax_ranges``) to the whole table; returns
    ``(selection, rationale_bits)``.  Computed once here and carried on the
    :class:`PhysicalScan` for every run."""
    n = stored.stored_rows
    bdcc = stored.bdcc
    bits: List[str] = []
    selection = stored.logical_selection()
    if bdcc is not None and restrictions:
        entries = bdcc.entries_matching(list(restrictions))
        bits.append(f"pushdown {len(entries)}/{bdcc.count_table.num_groups} groups")
        selection = bdcc.count_table.selection(entries)

    if minmax_ranges and n > 0:
        # lowering keeps only ranges that prune some block of this table
        zones = Selection.whole(n)
        for column, low, high in minmax_ranges:
            zones = zones.intersect(stored.minmax_for(column).select(low, high, n))
        selection = selection.intersect(zones)
        bits.append(f"minmax {len(zones)}/{n} rows")
    return selection, bits


@dataclass
class _Stream:
    """Statically inferred physical properties of an operator's output,
    and their only owner: the operators are emitted with the decisions
    these imply already taken, and a run-time
    :class:`~repro.execution.relation.Relation` carries none of them.
    ``columns`` maps every output column (including hidden group
    columns) to estimated engine bytes per value.  Column ownership is
    not a stream property but the analysis's (``PlanAnalysis.owners``)."""

    op: PhysicalOp
    columns: Dict[str, float]
    sorted_on: Tuple[str, ...]
    uses: List[StreamUse]
    est_rows: float

    def uses_for_alias(self, alias: str) -> List[StreamUse]:
        return [u for u in self.uses if u.alias == alias]

    def est_bytes(self) -> float:
        return self.est_rows * sum(self.columns.values())


class _Lowering:
    def __init__(self, pdb: PhysicalDatabase, options: ExecutionOptions):
        self.pdb = pdb
        self.options = options
        self.analysis: PlanAnalysis = None  # set in lower()
        self._restrictions = {}
        self._replica_choice = {}

    # ------------------------------------------------------------- driver
    def lower(self, node: PlanNode) -> PhysicalPlan:
        self.analysis = analyse_plan(node, self.pdb.schema)
        self._restrictions = {}
        self._replica_choice = {}
        if self.options.enable_pushdown:
            bdcc_tables = self.pdb.bdcc_tables()
            if bdcc_tables:
                alias_tables = {a: s.table for a, s in self.analysis.scans.items()}
                self._restrictions = compute_restrictions(
                    self.pdb.database,
                    self.analysis,
                    bdcc_tables,
                    alias_tables,
                    local_only=not self.options.enable_propagation,
                )
                self._choose_replicas(bdcc_tables, alias_tables)
        stream = self._lower(node)
        return PhysicalPlan(
            stream.op,
            self.pdb.scheme_name,
            contracts=compute_order_contracts(stream.op),
        )

    def _choose_replicas(self, bdcc_tables, alias_tables) -> None:
        """Per scan, pick the physical copy whose count-table groups the
        query's restrictions prune hardest (future-work (ii): which
        dimensions to use for which replica)."""
        if not self.pdb.replicas:
            return
        for alias, scan_node in self.analysis.scans.items():
            copies = self.pdb.replicas.get(scan_node.table)
            if not copies:
                continue
            primary = self.pdb.table(scan_node.table)
            candidates = [(primary, self._restrictions.get(alias, []))]
            for copy in copies:
                variant = dict(bdcc_tables)
                variant[scan_node.table] = copy.bdcc
                restr = compute_restrictions(
                    self.pdb.database,
                    self.analysis,
                    variant,
                    alias_tables,
                    local_only=not self.options.enable_propagation,
                )
                candidates.append((copy, restr.get(alias, [])))

            def selected_fraction(candidate):
                stored, restrictions = candidate
                if stored.bdcc is None or not restrictions:
                    return 1.0
                entries = stored.bdcc.entries_matching(restrictions)
                rows = float(stored.bdcc.count_table.counts[entries].sum())
                return rows / max(stored.bdcc.logical_rows, 1)

            best = min(candidates, key=selected_fraction)
            if best[0] is not primary:
                index = next(i for i, c in enumerate(copies) if c is best[0])
                reason = (
                    f"replica #{index + 1} selected "
                    f"({selected_fraction(best):.0%} of rows vs "
                    f"{selected_fraction(candidates[0]):.0%} on the primary)"
                )
                self._replica_choice[alias] = (best[0], best[1], reason)

    # ----------------------------------------------------------- dispatch
    def _lower(self, node: PlanNode) -> _Stream:
        if isinstance(node, ScanNode):
            return self._lower_scan(node)
        if isinstance(node, FilterNode):
            return self._lower_filter(node)
        if isinstance(node, ProjectNode):
            return self._lower_project(node)
        if isinstance(node, JoinNode):
            return self._lower_join(node)
        if isinstance(node, GroupByNode):
            return self._lower_groupby(node)
        if isinstance(node, SortNode):
            return self._lower_sort(node)
        if isinstance(node, LimitNode):
            return self._lower_limit(node)
        raise TypeError(f"unknown node {type(node).__name__}")

    # --------------------------------------------------------------- scan
    def _lower_scan(self, node: ScanNode) -> _Stream:
        rationale_bits = []
        chosen = self._replica_choice.get(node.alias)
        if chosen is not None:
            stored, restrictions, reason = chosen
            rationale_bits.append(reason)
        else:
            stored = self.pdb.table(node.table)
            restrictions = self._restrictions.get(node.alias, [])
        wanted = self.analysis.demands.get(node.alias, set())
        demanded = [c for c in stored.definition.column_names if c in wanted]
        if not demanded:  # count-only scans still need one column
            demanded = [stored.definition.column_names[0]]
        n = stored.stored_rows
        bdcc = stored.bdcc
        prefix = node.prefix

        # zone-map decisions: keep only the ranges that actually prune
        minmax_ranges: List[Tuple[str, float, float]] = []
        if self.options.enable_minmax and node.predicate is not None and n > 0:
            for column, (low, high) in column_ranges(node.predicate).items():
                base = strip_prefix(column, prefix)
                if base not in stored.columns:
                    continue
                if stored.columns.dtype(base).kind not in "iuf":
                    continue
                index = stored.minmax_for(base)
                if index.blocks_overlapping(low, high).all():
                    continue
                minmax_ranges.append((base, low, high))

        selection, selection_bits = _resolve_selection(stored, restrictions, minmax_ranges)
        rationale_bits.extend(selection_bits)

        # ---- merge-on-read: mask deletions, select delta-run rows -------
        delta_selected: Optional[Tuple[Tuple[int, Selection], ...]] = None
        delta_live = 0
        has_delta = stored.has_delta
        if has_delta:
            delta = stored.delta
            if delta.base_deleted.any():
                selection = selection.intersect(Selection.from_mask(~delta.base_deleted))
                rationale_bits.append(f"{delta.deleted_base_rows} deleted rows masked")
            delta_selected, delta_live = self._select_delta_rows(
                stored, restrictions, minmax_ranges
            )
            rationale_bits.append(
                f"+{delta_live}/{delta.live_delta_rows} delta rows "
                f"({len(delta.runs)} runs, epoch {stored.epoch})"
            )
        num_selected = len(selection) + delta_live
        # block pruning yields a superset of the qualifying rows; the
        # value-based estimate bounds the residual predicate's effect
        total_rows = n + (stored.delta.total_delta_rows if has_delta else 0)
        est_rows = min(
            float(num_selected),
            total_rows * self._scan_selectivity(stored, prefix, node.predicate),
        )

        sandwich_uses: List[Tuple[int, int, str]] = []
        uses: List[StreamUse] = []
        if bdcc is not None and self.options.enable_sandwich:
            for idx, use in enumerate(bdcc.uses):
                eff_bits = bdcc.effective_bits(idx)
                if eff_bits == 0:
                    continue
                column_name = f"__grp__{node.alias}__{idx}"
                sandwich_uses.append((idx, eff_bits, column_name))
                uses.append(
                    StreamUse(node.alias, use.dimension, use.path, eff_bits, column_name)
                )

        if uses:
            rationale_bits.append(
                "carries " + "+".join(u.dimension.name for u in uses)
            )

        op = PhysicalScan(
            table=node.table,
            alias=node.alias,
            prefix=prefix,
            stored=stored,
            demanded=tuple(demanded),
            predicate=node.predicate,
            restrictions=tuple(restrictions),
            minmax_ranges=tuple(minmax_ranges),
            selection=selection,
            sandwich_uses=tuple(sandwich_uses),
            est_rows=est_rows,
            rationale=", ".join(rationale_bits),
            delta_selected=delta_selected,
        )
        columns = {prefix + c: value_bytes(stored.columns.dtype(c)) for c in demanded}
        for _, _, column_name in sandwich_uses:
            columns[column_name] = 8.0
        sorted_on = tuple(prefix + c for c in stored.sort_columns)
        return _Stream(op, columns, sorted_on, uses, max(est_rows, 1.0))

    def _select_delta_rows(
        self, stored, restrictions, minmax_ranges
    ) -> Tuple[Tuple[Tuple[int, Selection], ...], int]:
        """Per delta run, the row positions surviving the scan's
        count-table restrictions and zone-map ranges (the same superset
        semantics as the base selection: the residual predicate still
        runs after the merge).

        BDCC restrictions are applied per row over the run's zone tags —
        mirroring :meth:`~repro.core.bdcc_table.BDCCTable.entries_matching`
        on the key prefixes — so delta rows binned into brand-new zones
        (absent from the base count table) are still kept when their bins
        match.  Zone-map ranges prune via per-run MinMax blocks.
        """
        delta = stored.delta
        bdcc = stored.bdcc
        selected = []
        total = 0
        for run_index, run in enumerate(delta.runs):
            keep = ~run.deleted
            if bdcc is not None and restrictions and run.keys is not None:
                keep &= bdcc.restriction_mask(bdcc.zone_of(run.keys), restrictions)
            sel = Selection.from_mask(keep)
            for column, low, high in minmax_ranges:
                block_rows = stored.page_model.rows_per_page(
                    stored.stored_bytes_per_value(column)
                )
                index = run.minmax_for(column, block_rows)
                sel = sel.intersect(index.select(low, high, run.num_rows))
            total += len(sel)
            selected.append((run_index, sel))
        return tuple(selected), total

    def _scan_selectivity(self, stored, prefix: str, predicate: Optional[Expr]) -> float:
        """Predicate selectivity against one stored table: range
        conjuncts use the column's actual min/max (zone-map statistics),
        everything else falls back to predicate-shape heuristics."""
        if predicate is None:
            return 1.0
        sel = 1.0
        range_cols: Set[str] = set()
        for column, (low, high) in column_ranges(predicate).items():
            base = strip_prefix(column, prefix)
            if base not in stored.columns or stored.stored_rows == 0:
                continue
            if stored.columns.dtype(base).kind not in "iuf":
                continue
            index = stored.minmax_for(base)
            gmin, gmax = float(index.mins.min()), float(index.maxs.max())
            lo = gmin if low is None else max(float(low), gmin)
            hi = gmax if high is None else min(float(high), gmax)
            if hi < lo:
                frac = 0.0
            elif gmax <= gmin:
                frac = 1.0
            elif low is not None and high is not None and low == high:
                frac = 1.0 / max(gmax - gmin, 1.0)  # point lookup
            else:
                frac = (hi - lo) / (gmax - gmin)
            sel *= min(max(frac, 1e-4), 1.0)
            range_cols.add(column)
        for conj in conjuncts(predicate):
            if conj.columns() & range_cols:
                continue
            sel *= _selectivity(conj)
        return sel

    # ------------------------------------------------------------- filter
    def _lower_filter(self, node: FilterNode) -> _Stream:
        inp = self._lower(node.input)
        op = PhysicalFilter(inp.op, node.predicate)
        est = inp.est_rows * _selectivity(node.predicate)
        return _Stream(op, dict(inp.columns), inp.sorted_on, list(inp.uses), max(est, 1.0))

    # ------------------------------------------------------------ project
    def _lower_project(self, node: ProjectNode) -> _Stream:
        inp = self._lower(node.input)
        # the hidden group columns of the uses the input still carries
        # are what the sandwich operators above will read
        carry = tuple(use.column for use in inp.uses)
        op = PhysicalProject(inp.op, node.exprs, carry=carry)
        columns: Dict[str, float] = {}
        for name, expr in node.exprs:
            if isinstance(expr, Col):
                columns[name] = inp.columns.get(expr.name, 8.0)
            else:
                columns[name] = 8.0
        for name in carry:
            columns[name] = 8.0
        sorted_on = inp.sorted_on if all(c in columns for c in inp.sorted_on) else ()
        return _Stream(op, columns, sorted_on, list(inp.uses), inp.est_rows)

    # --------------------------------------------------------------- join
    def _lower_join(self, node: JoinNode) -> _Stream:
        left = self._lower(node.left)
        right = self._lower(node.right)
        k = len(node.left_cols)

        merge_ok = (
            self.options.enable_merge
            and node.how in ("inner", "semi", "anti")
            and node.residual is None
            and len(left.sorted_on) >= k
            and len(right.sorted_on) >= k
            and tuple(left.sorted_on[:k]) == tuple(node.left_cols)
            and tuple(right.sorted_on[:k]) == tuple(node.right_cols)
        )
        pairs: List[Tuple[StreamUse, StreamUse]] = []
        if not merge_ok and self.options.enable_sandwich:
            pairs = self._match_uses(left, right, node)

        est = self._join_estimate(node, left, right)

        if merge_ok:
            op = Join(
                left.op, right.op, node.left_cols, node.right_cols,
                node.how, node.residual, strategy="merge",
                rationale="both inputs ordered on the join keys",
            )
            return self._join_stream(node, op, left, right, probe="left", est=est)

        # build on the (estimated) smaller side for inner joins; outer/
        # semi/anti always build the right side (results assemble left)
        if node.how == "inner":
            build = "left" if left.est_bytes() < right.est_bytes() else "right"
        else:
            build = "right"

        granted: List[Tuple[StreamUse, StreamUse, int]] = []
        budget = self.options.max_sandwich_bits
        total_bits = 0
        for left_use, right_use in pairs:
            g = min(left_use.bits, right_use.bits, max(budget, 0))
            budget -= g
            total_bits += g
            granted.append((left_use, right_use, g))

        if granted and total_bits > 0:
            op = Join(
                left.op, right.op, node.left_cols, node.right_cols,
                node.how, node.residual, build_side=build,
                pairs=tuple(granted), strategy="sandwich",
                rationale=(
                    "co-clustered via "
                    + "+".join(p[0].dimension.name for p in granted)
                    + f" @{total_bits} bits, build={build}"
                ),
            )
        else:
            op = Join(
                left.op, right.op, node.left_cols, node.right_cols,
                node.how, node.residual, build_side=build, strategy="hash",
                rationale=f"build={build}",
            )
        probe = "right" if build == "left" else "left"
        return self._join_stream(node, op, left, right, probe=probe, est=est)

    def _join_estimate(self, node: JoinNode, left: _Stream, right: _Stream) -> float:
        if node.how in ("semi", "anti"):
            return max(left.est_rows * 0.5, 1.0)
        est = max(left.est_rows, right.est_rows)
        edge = self.analysis.join_edges.get(id(node))
        if edge is not None:
            child, parent = (left, right) if edge.child_is_left else (right, left)
            parent_scan = self.analysis.scans[edge.parent_alias]
            parent_rows = max(self.pdb.table(parent_scan.table).logical_rows, 1)
            est = child.est_rows * (parent.est_rows / parent_rows)
        if node.residual is not None:
            est *= _selectivity(node.residual)
        if node.how == "left":
            est = max(est, left.est_rows)
        return max(est, 1.0)

    def _join_stream(
        self, node: JoinNode, op: PhysicalOp, left: _Stream, right: _Stream,
        probe: str, est: float,
    ) -> _Stream:
        if node.how in ("semi", "anti"):
            return _Stream(op, dict(left.columns), left.sorted_on, list(left.uses), est)
        columns = dict(left.columns)
        for name, width in right.columns.items():
            columns.setdefault(name, width)
        if node.how == "left":
            # right-side uses are not valid on unmatched rows; drop them
            return _Stream(op, columns, left.sorted_on, list(left.uses), est)
        sorted_on = left.sorted_on if probe == "left" else right.sorted_on
        uses = list(left.uses) + list(right.uses)
        return _Stream(op, columns, sorted_on, uses, est)

    # ------------------------------------------------------ use matching
    def _use_anchors(self, stream: _Stream, node: PlanNode,
                     join_cols: Tuple[str, ...], other_cols: Tuple[str, ...]):
        """Dimension uses of ``stream`` whose group is determined by (a
        subset of) the join columns, with their co-clustering identity.

        Two flavours per Section II of the paper:

        * *via a foreign key*: the join columns cover an outgoing FK's
          child columns and the use's path starts with that FK — the key
          value determines the referenced row, hence the use's bins.  The
          anchor identity is (dimension, path-after-the-FK, referenced
          table+key, the other side's columns carrying that key).
        * *the table itself hosts the key*: the join columns cover the
          table's primary key — the row is fixed, every carried use
          qualifies, identified by its full path.

        Anchors with equal identities on both sides are co-clustered even
        when the two tables are not FK-connected at all (the paper's
        tables A and C sharing D1), which covers fact-fact self joins
        (Q21) and composite-key joins (LINEITEM-PARTSUPP in Q9).
        """
        other = dict(zip(join_cols, other_cols))
        anchors = []
        for cover in self.analysis.covers(node, join_cols):
            uses = stream.uses_for_alias(cover.alias)
            # via an outgoing foreign key covered by the join columns
            for fk in cover.fks:
                own = tuple(cover.columns[c] for c in fk.child_columns)
                carrier = tuple(other[c] for c in own)
                for use in uses:
                    if use.path and use.path[0] == fk.name:
                        identity = (
                            use.dimension.name, use.path[1:],
                            fk.parent_table, fk.parent_columns,
                        )
                        anchors.append((identity, own, carrier, use))
            # the table itself is the referenced side (join on its PK)
            if cover.pk:
                own = tuple(cover.columns[c] for c in cover.pk)
                carrier = tuple(other[c] for c in own)
                for use in uses:
                    identity = (
                        use.dimension.name, use.path, cover.table, cover.pk,
                    )
                    anchors.append((identity, own, carrier, use))
        return anchors

    def _match_uses(
        self, left: _Stream, right: _Stream, node: JoinNode
    ) -> List[Tuple[StreamUse, StreamUse]]:
        """Pairs of co-clustered dimension uses across the join inputs.

        A left anchor and a right anchor match when they denote the same
        dimension over the same residual path anchored at the same
        referenced key, *and* the key travels over the same join columns
        — then equal join keys imply equal dimension bins on both sides,
        the precondition for sandwiched (pre-grouped) execution [3].
        """
        left_anchors = self._use_anchors(left, node.left, node.left_cols, node.right_cols)
        right_anchors = self._use_anchors(right, node.right, node.right_cols, node.left_cols)
        pairs: List[Tuple[StreamUse, StreamUse]] = []
        seen = set()
        for l_identity, l_own, l_carrier, left_use in left_anchors:
            for r_identity, r_own, r_carrier, right_use in right_anchors:
                if l_identity != r_identity:
                    continue
                # the key must travel over the same join-column pairing
                if l_carrier != r_own or r_carrier != l_own:
                    continue
                if l_identity in seen:
                    continue
                seen.add(l_identity)
                pairs.append((left_use, right_use))
                break
        return pairs

    # ------------------------------------------------------------ groupby
    def _lower_groupby(self, node: GroupByNode) -> _Stream:
        inp = self._lower(node.input)
        streaming = bool(node.keys) and self._streaming_ok(inp, node.input, node.keys)
        partition_uses: List[StreamUse] = []
        if not streaming and node.keys and self.options.enable_sandwich:
            partition_uses = self._partition_uses(inp, node.input, node.keys)

        # recorded on the operator for the fragmenter's partial-agg cost
        # rule (estimated groups vs input rows); the estimate itself is
        # this stream's est_rows, computed the same way below
        est = 1.0 if not node.keys else min(
            inp.est_rows, max(inp.est_rows ** 0.75, 1.0),
            self._group_domain(node.input, node.keys),
        )
        out_uses: List[StreamUse] = []
        if streaming:
            op = Aggregate(
                inp.op, node.keys, node.aggs, strategy="stream",
                rationale="input ordered on (a determinant of) the keys",
                est_groups=est, est_input_rows=inp.est_rows,
            )
        elif partition_uses:
            granted: List[Tuple[StreamUse, int]] = []
            budget = self.options.max_sandwich_bits
            total_bits = 0
            for use in partition_uses:
                g = min(use.bits, max(budget - total_bits, 0))
                total_bits += g
                granted.append((use, g))
            op = Aggregate(
                inp.op, node.keys, node.aggs, strategy="sandwich",
                partition_uses=tuple(granted),
                rationale=(
                    "keys determine "
                    + "+".join(u.dimension.name for u, _ in granted)
                    + f" @{total_bits} bits"
                ),
                est_groups=est, est_input_rows=inp.est_rows,
            )
            out_uses = [u for u, _ in granted]
        else:
            op = Aggregate(
                inp.op, node.keys, node.aggs, strategy="hash",
                est_groups=est, est_input_rows=inp.est_rows,
            )

        columns: Dict[str, float] = {}
        for key in node.keys:
            columns[key] = inp.columns.get(key, 8.0)
        for spec in node.aggs:
            columns[spec.name] = 8.0
        for use in out_uses:
            columns[use.column] = 8.0
        return _Stream(op, columns, tuple(node.keys), out_uses, est)

    def _group_domain(self, node: PlanNode, keys: Tuple[str, ...]) -> float:
        """Upper bound on the number of groups from key domains: a
        single grouping key that is a table's primary key or a
        single-column foreign key cannot have more distinct values than
        the (referenced) table has rows."""
        if len(keys) != 1:
            return float("inf")
        for cover in self.analysis.covers(node, keys):
            if cover.pk:
                return float(self.pdb.table(cover.table).logical_rows)
            if cover.fks:
                return float(self.pdb.table(cover.fks[0].parent_table).logical_rows)
        return float("inf")

    def _streaming_ok(self, stream: _Stream, node: PlanNode, keys: Tuple[str, ...]) -> bool:
        """Can the aggregation stream over the input's sort order?

        Either the keys literally are a prefix of the sort order, or the
        leading sort column is a single-column primary key among the keys
        and every other key is functionally determined by it — owned by
        the same scan, or by a scan reachable from it over the query's
        foreign-key joins (the PK scheme's Q18: LINEITEM sorted on
        ``o_orderkey`` streams a group-by over order + customer columns).
        """
        if tuple(stream.sorted_on[: len(keys)]) == tuple(keys):
            return True
        if not stream.sorted_on:
            return False
        lead = stream.sorted_on[0]
        if lead not in keys:
            return False
        keyed = [c.alias for c in self.analysis.covers(node, (lead,)) if c.pk]
        if not keyed:
            return False
        # aliases whose rows (hence columns) the lead key determines
        determined = self.analysis.parents(keyed[0])
        owners = self.analysis.owners[id(node)]
        return all(owners.get(k) in determined for k in keys)

    def _partition_uses(self, stream: _Stream, node: PlanNode,
                        keys: Sequence[str]) -> List[StreamUse]:
        """Stream uses whose group id is functionally determined by the
        grouping keys: the keys contain the child columns of the use's
        leading foreign key, or the primary key of the use's own table.

        This is the paper's Q13/Q18 effect: grouping ORDERS by
        ``o_custkey``-determined keys (or LINEITEM by ``l_orderkey``)
        pre-partitions the aggregation along the carried D_NATION /
        D_DATE groups."""
        result: List[StreamUse] = []
        seen = set()
        for cover in self.analysis.covers(node, keys):
            covered_fks = {fk.name for fk in cover.fks}
            for use in stream.uses_for_alias(cover.alias):
                if use.instance_key() in seen:
                    continue
                if cover.pk or (use.path and use.path[0] in covered_fks):
                    result.append(use)
                    seen.add(use.instance_key())
        return result

    # --------------------------------------------------------- sort/limit
    def _lower_sort(self, node: SortNode) -> _Stream:
        inp = self._lower(node.input)
        op = Sort(inp.op, node.keys)
        sorted_on = tuple(c for c, asc in node.keys) if all(asc for _, asc in node.keys) else ()
        return _Stream(op, dict(inp.columns), sorted_on, list(inp.uses), inp.est_rows)

    def _lower_limit(self, node: LimitNode) -> _Stream:
        inp = self._lower(node.input)
        op = Limit(inp.op, node.count)
        return _Stream(op, dict(inp.columns), inp.sorted_on, list(inp.uses),
                       min(inp.est_rows, float(node.count)))


def lower(
    pdb: PhysicalDatabase,
    plan,
    options: Optional[ExecutionOptions] = None,
) -> PhysicalPlan:
    """Lower a logical plan against one physical database.

    Pure: reads metadata only, charges nothing, and is deterministic —
    the same (plan, scheme, options) always yields an equal physical
    plan."""
    node = plan.node if isinstance(plan, Plan) else plan
    return _Lowering(pdb, options or ExecutionOptions()).lower(node)
