"""Physical operators: the executable form of a lowered query plan.

Each operator is one node of a *physical plan* as emitted by
:mod:`repro.planner.lowering`: the strategy decisions (a join's merge vs
sandwich vs hash strategy, an aggregation's streaming vs sandwich vs
hash, scan pruning) are plan fields, resolved before execution — running
a plan never re-plans.  Operators are composable batch transformers over
:class:`~repro.execution.relation.Relation`; ``run`` recurses through
``children`` and charges simulated IO/CPU/memory to the
:class:`ExecutionContext`.

The split matters for two reasons:

* EXPLAIN can render a physical plan — with its per-operator strategy
  rationale — without executing anything;
* the same lowered plan can be run repeatedly (plan caching) and each
  operator is a natural unit for per-operator metrics and, later,
  parallel execution.

Results are identical under every scheme and every strategy: a
:class:`Join` or :class:`Aggregate` runs one result body over the
kernels in :mod:`.join_utils`, :mod:`.aggregate` and
:mod:`repro.storage.keys`; its
strategy (a row of ``STRATEGIES``) fixes only ``kind``, the ordered
inputs and the cost/memory accounting, as in the paper's evaluation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..core.bits import gather_use_bits
from ..core.selection import Selection
from ..errors import DataflowError
from ..storage.io_model import DiskModel
from ..storage.keys import encode_join_keys, factorize
from ..storage.stored_table import StoredTable
from .aggregate import (
    AggSpec,
    MergeSpec,
    apply_aggregate,
    distinct_per_partition,
    group_rows,
    merge_partial_aggregates,
)
from .cost import CostModel
from .expressions import Col, Expr, fill_nulls
from .join_utils import inner_join_pairs, left_join_pairs, semi_join_mask
from .metrics import ExecutionMetrics, OperatorActuals
from .relation import Relation, StreamUse

__all__ = [
    "ExecutionContext",
    "PhysicalOp",
    "PhysicalScan",
    "PhysicalFilter",
    "PhysicalProject",
    "Join",
    "Aggregate",
    "Sort",
    "Limit",
    "group_ids",
    "walk_physical",
]

_HASH_ENTRY_OVERHEAD = 16.0   # bytes per hash-table entry
_AGG_STATE_BYTES = 8.0        # bytes per aggregate per group
_GROUP_HEADER_BYTES = 32.0    # per-group bookkeeping of sandwiched operators


class ExecutionContext:
    """Shared runtime state of one plan execution: the simulated device,
    the CPU cost model and the metrics being accumulated.

    Blocking state (hash builds, aggregation tables, sort buffers) is
    held until the fragment ends, approximating the concurrent footprint
    of a pipelined engine: :meth:`hold` only adds, so a fragment's peak
    (the paper's Figure 3 quantity) is the sum of its holds, and overlap
    across fragments is the scheduler's ``concurrent_peak``.

    Every charge (:meth:`charge_io`, :meth:`charge_runs`,
    :meth:`charge_cpu`, :meth:`scanned`, :meth:`hold`) adds to the query
    totals and to the :class:`OperatorActuals` of the innermost running
    operator, the top of ``running`` — whose bottom record takes charges
    made outside any operator and is never kept — so the per-operator
    actuals of ``EXPLAIN ANALYZE`` are exclusive by construction."""

    def __init__(
        self,
        disk: DiskModel,
        costs: CostModel,
        metrics: ExecutionMetrics,
        fragment_results: Optional[Dict[int, Relation]] = None,
    ):
        self.disk = disk
        self.costs = costs
        self.metrics = metrics
        #: producer-fragment outputs visible to Exchange/Repartition
        #: leaves when this context runs one fragment of a parallel plan.
        self.fragment_results = fragment_results
        #: the actuals of the running operators, innermost last
        self.running: List[OperatorActuals] = [OperatorActuals("", "")]

    def fragment_result(self, index: int) -> Relation:
        """The output of a producer fragment (parallel execution only)."""
        if self.fragment_results is None or index not in self.fragment_results:
            raise DataflowError(
                f"fragment {index} result not available: exchange operators "
                "only run under the parallel scheduler"
            )
        return self.fragment_results[index]

    def charge_io(self, num_bytes: float, num_accesses: int, seconds: float) -> None:
        self.metrics.charge_io(num_bytes, num_accesses, seconds)
        actuals = self.running[-1]
        actuals.io_bytes += num_bytes
        actuals.io_accesses += num_accesses
        actuals.io_seconds += seconds

    def charge_runs(self, run_bytes: List[float]) -> None:
        """One disk access per entry of ``run_bytes``, timed by the disk model."""
        self.charge_io(float(sum(run_bytes)), len(run_bytes), self.disk.time_for_runs(run_bytes))

    def charge_cpu(self, seconds: float, counter: str) -> None:
        self.metrics.charge_cpu(seconds, counter)
        self.running[-1].cpu_seconds += seconds

    def scanned(self, num_rows: int, delta: bool = False) -> None:
        """Count ``num_rows`` read from the store (``delta``: from delta
        runs) — the reading operator's rows in."""
        totals = self.metrics
        totals.rows_scanned += num_rows
        if delta:
            totals.delta_rows_scanned += num_rows
        self.running[-1].rows_in += num_rows

    def hold(self, tag: str, num_bytes: float) -> None:
        """Reserve ``num_bytes`` of blocking state until the fragment
        ends: nothing is released earlier, so the peak is the sum."""
        if num_bytes > 0:
            num_bytes = float(num_bytes)
            by_tag = self.metrics.peak_memory_by_tag
            self.metrics.peak_memory_bytes += num_bytes
            by_tag[tag] = by_tag.get(tag, 0.0) + num_bytes
            self.running[-1].reserved_bytes += num_bytes


@dataclass(eq=False)
class PhysicalOp:
    """Base class for physical plan nodes.

    Besides execution, every operator declares its *result contract*
    toward row order (consumed by :func:`repro.planner.propagation.compute_order_contracts`
    and the fragmenting pass):

    * ``ordered_inputs`` names the child attributes whose input must
      arrive in the exact serial order for this operator to be correct
      or deterministic (both sides of a merge-strategy join, a streaming
      aggregation's input, a :class:`Limit`'s prefix).  A reordering
      gather may never be introduced below such a child.
    * ``restores_order`` marks operators that re-establish a
      deterministic row order of their own (:class:`Sort`): a reordering
      below them cannot escape past them, except through tie-breaks,
      which resolve deterministically by the gather's canonical order.
    """

    kind = "Op"
    #: child attribute names that require serially-ordered input
    #: (plain class attribute, not a dataclass field).
    ordered_inputs = ()
    #: True when the operator re-sorts, containing reorderings below it.
    restores_order = False
    #: why lowering (or the fragmenter) chose this node, shown by verbose
    #: EXPLAIN; never part of ``describe()``.
    rationale: str = field(default="", kw_only=True)

    def children(self) -> Tuple["PhysicalOp", ...]:
        """The input operators: whichever of ``input``, ``left`` and
        ``right`` the node has (none for a leaf)."""
        return tuple(
            getattr(self, name) for name in ("input", "left", "right")
            if isinstance(getattr(self, name, None), PhysicalOp)
        )

    def run(self, ctx: ExecutionContext) -> Relation:
        """Execute this operator (recursing through ``children``): what
        ``execute`` charges lands on a fresh :class:`OperatorActuals`,
        recorded on the context's metrics with the rows out, which are
        the parent's rows in.  The host clock is attributed the same
        way: this run's inclusive seconds are added here and taken off
        the parent's, whose clock so pauses while a child runs."""
        actuals = OperatorActuals(self.kind, self.describe())
        ctx.running.append(actuals)
        started = time.perf_counter()
        rel = self.execute(ctx)
        inclusive = time.perf_counter() - started
        ctx.running.pop()
        parent = ctx.running[-1]
        actuals.host_seconds += inclusive
        parent.host_seconds -= inclusive
        actuals.rows_out = rel.num_rows
        parent.rows_in += rel.num_rows
        ctx.metrics.operators[id(self)] = actuals
        return rel

    def execute(self, ctx: ExecutionContext) -> Relation:
        raise NotImplementedError

    def describe(self) -> str:
        """One-line structural description (no rationale)."""
        return self.kind


def walk_physical(op: PhysicalOp):
    """Yield every operator of a physical plan, pre-order."""
    yield op
    for child in op.children():
        yield from walk_physical(child)


# ------------------------------------------------------------------ scan
@dataclass(eq=False)
class PhysicalScan(PhysicalOp):
    """A table scan with all access-path decisions resolved at lowering:
    the physical copy to read (replica selection), the demanded columns,
    the count-table restrictions (pushdown + propagation), the zone-map
    ranges that prune, the row runs they leave (``selection``) and the
    BDCC uses to carry as hidden group columns for downstream sandwich
    operators.

    The selection is a :class:`~repro.core.selection.Selection` on every
    scan — a whole table is the one run ``(0, n)`` — and is charged run
    by run.  The scan hands its consumers the stored columns at the
    selection's indexer, each gathered when an operator first reads it:
    a selection of at most one run (a whole table, contiguous surviving
    groups, most fragment partitions) reads *views* of the stored
    columns — operators never write into the arrays they are handed;
    more runs share one row expansion.  A carried use's group column is a per-entry fact
    read off the count table, per piece of the selection; only merged
    delta rows, which have no entry, extract it from their ``_bdcc_``
    keys.

    A table with pending updates is read merge-on-read, and
    ``delta_selected`` is set: per delta run, the rows that survive the
    same count-table restrictions and zone-map ranges the base selection
    went through (superset semantics — the residual predicate still
    runs), so pushdown keeps pruning deltas zone-wise.  An
    order-preserving merge unions them with the base selection in the
    scheme's storage order — ``_bdcc_``-key order (stable: base rows
    before delta rows, runs in commit order) on BDCC, primary-key order
    on PK, arrival order on Plain — so every stream property lowering
    inferred (sort order, carried dimension uses) holds with deltas
    present and merge/sandwich strategies keep firing.  Plans, query
    logs and metrics name such a scan ``DeltaMergeScan``."""

    table: str
    alias: str
    prefix: str
    stored: StoredTable
    demanded: Tuple[str, ...]
    #: the stored rows left by restrictions + minmax + delete masking,
    #: in storage order.  Resolved once at lowering from metadata and
    #: reused on every run.
    selection: Selection
    predicate: Optional[Expr] = None
    #: (use_index, allowed_bins, bin_bits) count-table restrictions.
    restrictions: Tuple[Tuple[int, np.ndarray, int], ...] = ()
    #: (base_column, low, high) ranges whose zone maps prune blocks.
    minmax_ranges: Tuple[Tuple[str, float, float], ...] = ()
    #: (use_index, effective_bits, hidden_column) BDCC uses to surface.
    sandwich_uses: Tuple[Tuple[int, int, str], ...] = ()
    est_rows: float = 0.0
    #: (run_index, selected positions within the run) per delta run,
    #: resolved at lowering from the delta store's keys/zone maps; None
    #: for a table with no pending delta state.
    delta_selected: Optional[Tuple[Tuple[int, Selection], ...]] = None

    @property
    def kind(self) -> str:
        return "Scan" if self.delta_selected is None else "DeltaMergeScan"

    def describe(self) -> str:
        alias = "" if self.alias == self.table else f" as {self.alias}"
        pred = " WHERE ..." if self.predicate is not None else ""
        return f"{self.kind} {self.table}{alias}{pred}"

    def execute(self, ctx: ExecutionContext) -> Relation:
        stored = self.stored
        demanded = list(self.demanded)
        bdcc = stored.bdcc

        # --- IO ----------------------------------------------------------
        base_n = len(self.selection)
        run_bytes = stored.io_run_bytes(self.selection, demanded)
        if bdcc is not None:
            # the stored _bdcc_ column (needed for group ids) compresses
            # to ~1 byte/tuple: the table is sorted on it, so RLE applies;
            # plus the count table itself
            for length in self.selection.lengths.tolist():
                run_bytes.append(length * 1.0)
            run_bytes.append(bdcc.count_table.num_entries * 8.0)
        ctx.charge_runs(run_bytes)
        ctx.scanned(base_n)

        # --- materialise (each column when an operator first reads it) ---
        prefix = self.prefix
        rows = self.selection.indexer()
        base = Relation.at({prefix + c: stored.columns[c] for c in demanded}, rows)
        ctx.charge_cpu(base_n * len(demanded) * ctx.costs.scan_value, "scan")
        if self.delta_selected is None:
            return self._finish(ctx, base, None, base_n)

        # --- merge-on-read: the delta runs' selected rows ----------------
        # merge keys may need columns beyond the demanded set (a PK scan
        # does not have to materialise its sort columns to be ordered,
        # but merging deltas into that order does need the values read)
        merge_cols = [c for c in stored.sort_columns if bdcc is None and c not in demanded]
        if merge_cols:
            self._charge_columns(ctx, base_n, merge_cols)
        reads = []  # (run, indexer) of every delta run some row is read from
        for run_index, sel in self.delta_selected:
            if len(sel) == 0:
                continue
            # plus the run's key column on BDCC, ~1 byte/row
            key_bytes = () if bdcc is None else (float(len(sel)),)
            self._charge_columns(ctx, len(sel), demanded + merge_cols, *key_bytes)
            reads.append((stored.delta.runs[run_index], sel.indexer()))
        delta_n = sum(len(s) for _, s in self.delta_selected)
        ctx.scanned(delta_n, delta=True)
        total = base_n + delta_n

        # --- order-preserving merge --------------------------------------
        if delta_n == 0:
            merged, merged_keys = base, None  # base rows: groups per entry
        else:
            columns = {
                prefix + c: [base.column(prefix + c)] + [run.columns[c][at] for run, at in reads]
                for c in demanded
            }
            sort_values = {
                c: [stored.columns[c][rows]] + [run.columns[c][at] for run, at in reads]
                if c in merge_cols else columns[prefix + c]
                for c in stored.sort_columns
            }
            keys = None if bdcc is None else [bdcc.keys[rows]] + [run.keys[at] for run, at in reads]
            merged, merged_keys = stored.merge_pieces(columns, keys, sort_values)
            merged = Relation(columns=merged)
            ctx.charge_cpu(total * ctx.costs.merge_row, "scan")
        return self._finish(ctx, merged, merged_keys, total)

    def _finish(self, ctx: ExecutionContext, rel, keys, num_selected):
        """Surface hidden group columns (from ``keys`` when given, else
        per count-table entry) beside ``rel``, apply the residual
        predicate."""
        if self.sandwich_uses:
            bdcc = self.stored.bdcc
            if keys is None:
                # each piece's entry: the valid entries' offsets ascend in
                # entry order, the consolidated region last
                _, lengths, bucket = self.selection.pieces(bdcc.valid_offsets)
                group_of_row = np.repeat(bdcc.valid_entries[bucket - 1], lengths)
                per_group = {
                    name: bdcc.entry_group_values(use_index, eff_bits)
                    for use_index, eff_bits, name in self.sandwich_uses
                }
            else:
                # the merged keys ascend, so each zone is one run of rows
                # (a merge reads at least one row); the top eff_bits
                # positions of the full mask are the use's bits that
                # survive at count-table granularity, read off each run head
                zones = bdcc.zone_of(keys)
                heads = np.flatnonzero(np.concatenate([[True], zones[1:] != zones[:-1]]))
                group_of_row = np.repeat(
                    np.arange(len(heads)), np.diff(heads, append=len(keys))
                )
                per_group = {
                    name: gather_use_bits(keys[heads], bdcc.uses[use_index].mask, eff_bits)
                    for use_index, eff_bits, name in self.sandwich_uses
                }
            # one value per group, gathered to the rows when first read
            rel = rel.beside(Relation.at(per_group, group_of_row))
            ctx.charge_cpu(
                num_selected * ctx.costs.sandwich_row_overhead * len(self.sandwich_uses),
                "scan",
            )
        if self.predicate is not None:
            rel = _filter(ctx, rel, self.predicate)
        return rel

    def _charge_columns(self, ctx: ExecutionContext, num_rows: int, cols, *extra_bytes):
        """Charge reading ``num_rows`` values of each of ``cols`` (one
        access per column, plus one per ``extra_bytes``) and their scan CPU."""
        run_bytes = [num_rows * self.stored.stored_bytes_per_value(c) for c in cols]
        run_bytes.extend(extra_bytes)
        ctx.charge_runs(run_bytes)
        ctx.charge_cpu(num_rows * len(cols) * ctx.costs.scan_value, "scan")


# ---------------------------------------------------------------- filter
@dataclass(eq=False)
class PhysicalFilter(PhysicalOp):
    input: PhysicalOp
    predicate: Expr

    kind = "Filter"

    def execute(self, ctx: ExecutionContext) -> Relation:
        return _filter(ctx, self.input.run(ctx), self.predicate)


def _filter(ctx: ExecutionContext, rel: Relation, predicate: Expr) -> Relation:
    """The rows ``predicate`` keeps (a scan's residual or a filter's),
    charged per input row and column read."""
    mask = predicate.holds(rel)
    ctx.charge_cpu(
        rel.num_rows * max(len(predicate.columns()), 1) * ctx.costs.expr_value, "filter"
    )
    return rel.filter(mask)


# --------------------------------------------------------------- project
@dataclass(eq=False)
class PhysicalProject(PhysicalOp):
    """Evaluates ``exprs`` and forwards ``carry``: the hidden group
    columns of the dimension uses the input stream still carries, as
    inferred at lowering — the sandwich operators above read them.  Not
    "every ``__grp__`` column": a null-extended left-join side's group
    columns stay in ``columns`` after their uses were dropped, and are
    not forwarded."""

    input: PhysicalOp
    exprs: Tuple[Tuple[str, Expr], ...]
    carry: Tuple[str, ...] = ()

    kind = "Project"

    def describe(self) -> str:
        return f"Project [{', '.join(name for name, _ in self.exprs)}]"

    def execute(self, ctx: ExecutionContext) -> Relation:
        rel = self.input.run(ctx)
        columns: Dict[str, np.ndarray] = {}
        valid: Dict[str, np.ndarray] = {}
        expr_cost = 0.0
        for name, expr in self.exprs:
            columns[name], valid[name] = expr.eval(rel)
            if not isinstance(expr, Col):
                expr_cost += rel.num_rows * ctx.costs.expr_value
        ctx.charge_cpu(expr_cost, "project")
        for name in self.carry:
            columns[name] = rel.column(name)
        return Relation(columns=columns, valid=valid)


# ------------------------------------------------------------ strategies
class _Strategy(NamedTuple):
    """A strategy's contract: its ``kind``, the inputs it needs in serial
    order, and the cost/memory accounting run before the result body."""

    kind: str
    ordered_inputs: Tuple[str, ...]
    account: Callable


class _ByStrategy:
    """``kind`` and ``ordered_inputs`` of an operator whose strategy is a
    plan field: that strategy's row of the class's ``STRATEGIES``."""

    def __post_init__(self) -> None:
        if self.strategy not in self.STRATEGIES:
            raise ValueError(
                f"unknown {type(self).__name__} strategy {self.strategy!r}; "
                f"expected one of {', '.join(self.STRATEGIES)}"
            )

    @property
    def kind(self) -> str:
        return self.STRATEGIES[self.strategy].kind

    @property
    def ordered_inputs(self) -> Tuple[str, ...]:
        return self.STRATEGIES[self.strategy].ordered_inputs


def group_ids(rel: Relation, on) -> np.ndarray:
    """Per-row sandwich group ids of a stream.

    ``on`` holds ``(hidden group column, column bit width, bits taken)``
    per dimension; the id concatenates the *top* ``taken`` bits of each
    column, dimension-major (a dimension granted no bits adds none).
    Equal join keys yield equal ids on both sides of a sandwich join, so
    the join's per-group tables, the sandwich aggregate's partitions and
    the rebinning :class:`~repro.parallel.exchange.Repartition` of a
    co-partitioned join all cut streams by this one id."""
    ids = np.zeros(rel.num_rows, dtype=np.uint64)
    for column, bits, take in on:
        if take > 0:
            values = rel.column(column).astype(np.uint64, copy=False)
            ids = (ids << np.uint64(take)) | (values >> np.uint64(bits - take))
    return ids


# ----------------------------------------------------------------- joins
def _account_merge_join(op, ctx, left, right) -> None:
    """Both inputs arrive ordered on the join keys (the PK scheme's
    LINEITEM/ORDERS and PART/PARTSUPP cases); state-free."""
    ctx.charge_cpu((left.num_rows + right.num_rows) * ctx.costs.merge_row, "join")


def _account_hash_join(op, ctx, left, right) -> None:
    """A hash table over the build side; a sandwich join holds per-group
    tables sized by the largest group rather than the full build [3]."""
    costs = ctx.costs
    build_is_left = op.build_side == "left"
    build_rel, probe_rel = (left, right) if build_is_left else (right, left)
    if op.how in ("semi", "anti"):
        build_bytes = build_rel.row_bytes(list(op.right_cols)) * build_rel.num_rows
    else:
        build_bytes = build_rel.data_bytes()
    build_bytes += _HASH_ENTRY_OVERHEAD * build_rel.num_rows

    state_bytes, num_groups, sandwich_cpu = build_bytes, 1, 0.0
    if op.strategy == "sandwich":
        build_uses = [(l if build_is_left else r, g) for l, r, g in op.pairs]
        build_gid = group_ids(build_rel, [(u.column, u.bits, g) for u, g in build_uses])
        total_bits = sum(g for _, g in build_uses if g > 0)
        if total_bits and len(build_gid):
            counts = np.bincount(factorize(build_gid)[0])  # rows per group id
            per_row = build_bytes / len(build_gid)
            state_bytes = float(counts.max()) * per_row
            num_groups = int(np.count_nonzero(counts))
            ctx.metrics.bump("sandwich_joins")
        # the model of scatter-order delivery (the paper's §II scan) for
        # both inputs: one random access per group and input instead of
        # a straight sequential pass — no scan computes the exact runs
        ctx.charge_io(0.0, 2 * num_groups, 2 * num_groups * ctx.disk.access_latency)
        sandwich_cpu = (
            num_groups * costs.sandwich_group_overhead
            + (left.num_rows + right.num_rows) * costs.sandwich_row_overhead
        )
    ctx.hold(f"join:{op.left_cols}", state_bytes + num_groups * _GROUP_HEADER_BYTES)
    factor = costs.cache_factor(state_bytes)
    ctx.charge_cpu(
        build_rel.num_rows * costs.hash_build_row * factor
        + probe_rel.num_rows * costs.hash_probe_row * factor
        + sandwich_cpu,
        "join",
    )


@dataclass(eq=False)
class Join(_ByStrategy, PhysicalOp):
    """An equi-join in the strategy lowering chose: ``merge``,
    ``sandwich`` (``pairs``: the co-clustered uses and the group bits
    granted to each) or ``hash``.  ``build_side`` is the hashed input —
    a pipelined engine builds on the smaller input and streams the
    larger one, which is also what preserves the probe side's order."""

    STRATEGIES = {
        "merge": _Strategy("MergeJoin", ("left", "right"), _account_merge_join),
        "hash": _Strategy("HashJoin", (), _account_hash_join),
        "sandwich": _Strategy("SandwichJoin", (), _account_hash_join),
    }

    left: PhysicalOp
    right: PhysicalOp
    left_cols: Tuple[str, ...]
    right_cols: Tuple[str, ...]
    how: str = "inner"
    residual: Optional[Expr] = None
    build_side: str = "right"  # "left" | "right"
    #: (left_use, right_use, granted_bits) per co-clustered dimension.
    pairs: Tuple[Tuple[StreamUse, StreamUse, int], ...] = ()
    strategy: str = field(kw_only=True)

    def describe(self) -> str:
        on = ", ".join(f"{l}={r}" for l, r in zip(self.left_cols, self.right_cols))
        extra = " + residual" if self.residual is not None else ""
        return f"{self.kind} {self.how} ON {on}{extra}"

    def execute(self, ctx: ExecutionContext) -> Relation:
        left = self.left.run(ctx)
        right = self.right.run(ctx)
        lkeys, rkeys = encode_join_keys(
            [left.column(c) for c in self.left_cols],
            [right.column(c) for c in self.right_cols],
        )
        lvalid, rvalid = _keys_valid(left, self.left_cols), _keys_valid(right, self.right_cols)
        self.STRATEGIES[self.strategy].account(self, ctx, left, right)
        costs = ctx.costs
        how = self.how
        if how == "inner":
            # output follows the probe side's order, as a pipelined hash
            # join does — this is what lets a later merge join see the
            # PK scheme's key order through an earlier N:1 join
            if self.build_side == "left":
                ridx, lidx = inner_join_pairs(rkeys, lkeys, rvalid, lvalid)
            else:
                lidx, ridx = inner_join_pairs(lkeys, rkeys, lvalid, rvalid)
            joined = _assemble_inner(left, right, lidx, ridx)
            if self.residual is not None:
                mask = self.residual.holds(joined)
                ctx.charge_cpu(len(lidx) * costs.expr_value, "join")
                joined = joined.filter(mask)
            ctx.charge_cpu(joined.num_rows * costs.join_output_row, "join")
            return joined
        if how == "left":
            lidx, ridx = left_join_pairs(lkeys, rkeys, lvalid, rvalid)
            ctx.charge_cpu(len(lidx) * costs.join_output_row, "join")
            return _assemble_left(left, right, lidx, ridx)
        if how in ("semi", "anti"):
            if self.residual is not None:
                lidx, ridx = inner_join_pairs(lkeys, rkeys, lvalid, rvalid)
                joined = _assemble_inner(left, right, lidx, ridx)
                mask_pairs = self.residual.holds(joined)
                ctx.charge_cpu(len(lidx) * costs.expr_value, "join")
                matched = np.zeros(left.num_rows, dtype=bool)
                matched[lidx[mask_pairs]] = True
            else:
                matched = semi_join_mask(lkeys, rkeys, lvalid, rvalid)
            keep = matched if how == "semi" else ~matched
            ctx.charge_cpu(int(keep.sum()) * costs.join_output_row, "join")
            return left.filter(keep)
        raise AssertionError(how)


# ----------------------------------------------------- join assembly
def _keys_valid(rel: Relation, cols: Tuple[str, ...]) -> Optional[np.ndarray]:
    """Where none of a join side's key columns is NULL; None when no
    key column has a NULL."""
    masks = [rel.valid[c] for c in cols if c in rel.valid]
    return np.logical_and.reduce(masks) if masks else None


def _assemble_inner(left, right, lidx, ridx) -> Relation:
    return left.take(lidx).beside(right.take(ridx))


def _assemble_left(left, right, lidx, ridx) -> Relation:
    matched = ridx >= 0
    if right.num_rows == 0:
        # nothing to gather: null-extend with typed placeholders
        rpart = Relation(
            columns={
                name: np.zeros(len(lidx), dtype=arr.dtype)
                for name, arr in right.columns.items()
            },
        )
    else:
        rpart = right.take(np.where(matched, ridx, 0))
    rpart.valid = {
        name: matched if name not in rpart.valid else (matched & rpart.valid[name])
        for name in rpart.columns
    }
    return left.take(lidx).beside(rpart)


# ----------------------------------------------------------- aggregation
def _account_table_agg(op, ctx, rel, group_index, num_groups, state_row) -> None:
    """One table of every group: a hash aggregate's, a partial's (of one
    partition) or a merge's (of the gathered partial rows)."""
    total_state = num_groups * state_row
    ctx.hold(f"agg:{op.strategy}", total_state)
    factor = ctx.costs.cache_factor(total_state)
    ctx.charge_cpu(rel.num_rows * ctx.costs.agg_update_row * factor, "aggregate")
    if op.strategy == "partial":
        ctx.metrics.bump("partial_agg_rows", num_groups)


def _account_stream_agg(op, ctx, rel, group_index, num_groups, state_row) -> None:
    """The input arrives ordered on (a functional determinant of) the
    grouping keys: one live group at a time."""
    ctx.charge_cpu(rel.num_rows * ctx.costs.stream_agg_row, "aggregate")
    ctx.hold("agg:stream", state_row)  # one live group


def _account_sandwich_agg(op, ctx, rel, group_index, num_groups, state_row) -> None:
    """The grouping keys functionally determine carried dimension uses
    (the paper's Q13/Q18 effect): the aggregation pre-partitions along
    those groups and holds only the largest partition's table."""
    n = rel.num_rows
    on = [(use.column, use.bits, g) for use, g in op.partition_uses]
    per_part = distinct_per_partition(group_ids(rel, on), group_index)
    max_state = float(per_part.max()) * state_row if len(per_part) else 0.0
    num_partitions = len(per_part)
    ctx.hold("agg:sandwich", max_state + num_partitions * _GROUP_HEADER_BYTES)
    factor = ctx.costs.cache_factor(max_state)
    ctx.charge_cpu(
        n * ctx.costs.agg_update_row * factor
        + num_partitions * ctx.costs.sandwich_group_overhead
        + n * ctx.costs.sandwich_row_overhead,
        "aggregate",
    )
    ctx.charge_io(0.0, num_partitions, num_partitions * ctx.disk.access_latency)
    ctx.metrics.bump("sandwich_aggs")


@dataclass(eq=False)
class Aggregate(_ByStrategy, PhysicalOp):
    """A grouped aggregation in the strategy lowering chose — ``stream``,
    ``sandwich`` (``partition_uses``: the carried uses and their granted
    bits) or ``hash`` — or a phase of the fragmenter's two-phase
    aggregation: ``partial`` runs the decomposed partial specs
    (:func:`repro.execution.aggregate.decompose_aggs`) over one
    partition below the gather; ``merge`` recombines the gathered
    partial-state rows (``merges``) above it.  A merge's input arrives
    partition-major and its output is key-sorted like every
    aggregation's, so only float summation order differs from the
    serial aggregate (order-insensitive result contract)."""

    STRATEGIES = {
        "hash": _Strategy("HashAgg", (), _account_table_agg),
        "stream": _Strategy("StreamAgg", ("input",), _account_stream_agg),
        "sandwich": _Strategy("SandwichAgg", (), _account_sandwich_agg),
        "partial": _Strategy("PartialAgg", (), _account_table_agg),
        "merge": _Strategy("MergeAgg", (), _account_table_agg),
    }

    input: PhysicalOp
    keys: Tuple[str, ...] = ()
    aggs: Tuple[AggSpec, ...] = ()
    merges: Tuple[MergeSpec, ...] = ()
    #: (use, granted_bits) per carried dimension, capped at lowering.
    partition_uses: Tuple[Tuple[StreamUse, int], ...] = ()
    #: lowering's cardinality estimates, recorded for the fragmenter's
    #: partial-aggregation cost rule (group count vs input rows); 0.0
    #: when the operator was built outside the lowering pass.
    est_groups: float = 0.0
    est_input_rows: float = 0.0
    strategy: str = field(kw_only=True)

    def describe(self) -> str:
        specs = ", ".join(f"{s.name}={s.fn}" for s in (*self.aggs, *self.merges))
        keys = ", ".join(self.keys) if self.keys else "<scalar>"
        return f"{self.kind} [{keys}] -> {specs}"

    def execute(self, ctx: ExecutionContext) -> Relation:
        rel = self.input.run(ctx)
        n = rel.num_rows
        ranks = {key: _key_ranks(rel, key) for key in self.keys}
        if self.keys:  # NULL keys form one group, numbered first
            group_index, first_rows, num_groups = group_rows(
                [rank for key in self.keys for rank in ranks[key]]
            )
        else:  # no keys is one group, no rows is no group
            group_index = np.zeros(n, dtype=np.int64)
            first_rows = np.zeros(1 if n else 0, dtype=np.int64)
            num_groups = 1 if n else 0
        # one group's table entry: its keys, one state per aggregate (a
        # merge has merges, the others aggs) and the hash-entry overhead
        state_row = (
            (rel.row_bytes(list(self.keys)) if self.keys else 0.0)
            + (len(self.aggs) + len(self.merges)) * _AGG_STATE_BYTES
            + _HASH_ENTRY_OVERHEAD
        )
        account = self.STRATEGIES[self.strategy].account
        account(self, ctx, rel, group_index, num_groups, state_row)

        # ---- execute (strategy-independent kernels) ---------------------
        columns = {key: ranks[key][-1][first_rows] for key in self.keys}
        valid = {key: rel.valid[key][first_rows] for key in self.keys if key in rel.valid}
        results = {}
        if self.strategy == "merge":
            results = merge_partial_aggregates(self.merges, group_index, num_groups, rel)
        for spec in self.aggs:
            values = mask = None
            if spec.expr is not None:
                values, mask = spec.expr.eval(rel)  # NULL inputs skip the row
                ctx.charge_cpu(n * ctx.costs.expr_value, "aggregate")
            results[spec.name] = apply_aggregate(spec, group_index, num_groups, values, mask)
        for name, (values, mask) in results.items():
            columns[name], valid[name] = values, mask
        # a sandwich aggregate's output keeps its uses' hidden group columns
        for use, _ in self.partition_uses:
            columns[use.column] = rel.column(use.column)[first_rows]
        return Relation(columns=columns, valid=valid)


# ------------------------------------------------------------ sort/limit
def _key_ranks(rel: Relation, column: str) -> List[np.ndarray]:
    """What orders a grouping or sort key, most significant first: its
    validity where it has NULLs (False ranks first: NULL leads ascending
    and trails descending), then its values with every NULL on the
    column's one placeholder, so NULL keys tie whatever lies under them."""
    valid = rel.valid.get(column)
    values = fill_nulls(rel.column(column), valid)
    return [values] if valid is None else [valid, values]


@dataclass(eq=False)
class Sort(PhysicalOp):
    input: PhysicalOp
    keys: Tuple[Tuple[str, bool], ...] = ()

    kind = "Sort"
    restores_order = True

    def describe(self) -> str:
        keys = ", ".join(f"{c}{'' if asc else ' desc'}" for c, asc in self.keys)
        return f"Sort [{keys}]"

    def execute(self, ctx: ExecutionContext) -> Relation:
        rel = self.input.run(ctx)
        n = rel.num_rows
        if n:
            sort_keys = []
            # np.lexsort's last key is its first: keys and ranks reversed
            for column, ascending in reversed(self.keys):
                for values in reversed(_key_ranks(rel, column)):
                    if not ascending:
                        # ~ reverses every integer width (and bool) exactly;
                        # a trip through float64 would tie keys beyond 2**53
                        if values.dtype.kind in "iub":
                            values = ~values
                        elif values.dtype.kind == "f":
                            values = -values
                        else:
                            values = -factorize(values)[0]
                    sort_keys.append(values)
            order = np.lexsort(tuple(sort_keys))
            rel = rel.take(order)
        ctx.hold("sort", rel.data_bytes())
        ctx.charge_cpu(
            n * max(math.log2(max(n, 2)), 1.0) * ctx.costs.sort_row, "sort"
        )
        return rel


@dataclass(eq=False)
class Limit(PhysicalOp):
    input: PhysicalOp
    count: int = 0

    kind = "Limit"
    ordered_inputs = ("input",)

    def describe(self) -> str:
        return f"Limit {self.count}"

    def execute(self, ctx: ExecutionContext) -> Relation:
        rel = self.input.run(ctx)
        if rel.num_rows > self.count:
            rel = rel.take(np.arange(self.count))
        return rel

