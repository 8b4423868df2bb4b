"""Physical operators: the executable form of a lowered query plan.

Each operator is one node of a *physical plan* as emitted by
:mod:`repro.planner.lowering`: the strategy decisions (merge vs sandwich
vs hash join, streaming vs sandwich vs hash aggregation, scan pruning)
are already resolved and recorded on the nodes — running a plan never
re-plans.  Operators are composable batch transformers over
:class:`~repro.execution.relation.Relation`; ``run`` recurses through
``children`` and charges simulated IO/CPU/memory to the
:class:`ExecutionContext`.

The split matters for two reasons:

* EXPLAIN can render a physical plan — with its per-operator strategy
  rationale — without executing anything;
* the same lowered plan can be run repeatedly (plan caching) and each
  operator is a natural unit for per-operator metrics and, later,
  parallel execution.

Results are identical under every scheme and every strategy: the
operators share the logical kernels in :mod:`repro.execution.join_utils`
and :mod:`repro.execution.aggregate`; strategies differ in cost and
memory accounting, exactly as in the paper's evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.bits import gather_use_bits
from ..storage.io_model import DiskModel
from ..storage.stored_table import StoredTable
from .aggregate import (
    AggSpec,
    MergeSpec,
    apply_aggregate,
    distinct_per_partition,
    factorize,
    group_rows,
    merge_partial_aggregates,
)
from .cost import CostModel
from .expressions import Col, Expr
from .join_utils import (
    encode_join_keys,
    inner_join_pairs,
    left_join_pairs,
    semi_join_mask,
)
from .metrics import ExecutionMetrics, OperatorActuals
from .relation import Relation, StreamUse

__all__ = [
    "ExecutionContext",
    "PhysicalOp",
    "PhysicalScan",
    "DeltaMergeScan",
    "PhysicalFilter",
    "PhysicalProject",
    "MergeJoin",
    "HashJoin",
    "SandwichJoin",
    "HashAgg",
    "StreamAgg",
    "SandwichAgg",
    "PartialAgg",
    "MergeAgg",
    "Sort",
    "Limit",
    "walk_physical",
]

_HASH_ENTRY_OVERHEAD = 16.0   # bytes per hash-table entry
_AGG_STATE_BYTES = 8.0        # bytes per aggregate per group
_GROUP_HEADER_BYTES = 32.0    # per-group bookkeeping of sandwiched operators


class _OpFrame:
    """Open attribution window of one operator invocation: snapshots of
    the shared metrics at entry, plus the inclusive consumption of the
    operator's children (subtracted out on exit, so per-operator actuals
    are exclusive and sum to the query totals)."""

    __slots__ = (
        "op", "io_bytes", "io_accesses", "io_seconds", "cpu_seconds",
        "rows_scanned", "held_bytes",
        "child_rows", "child_io_bytes", "child_io_accesses",
        "child_io_seconds", "child_cpu_seconds",
    )

    def __init__(self, op: "PhysicalOp", metrics: ExecutionMetrics):
        self.op = op
        self.io_bytes = metrics.io_bytes
        self.io_accesses = metrics.io_accesses
        self.io_seconds = metrics.io_seconds
        self.cpu_seconds = metrics.cpu_seconds
        self.rows_scanned = metrics.rows_scanned
        self.held_bytes = 0.0
        self.child_rows = 0
        self.child_io_bytes = 0.0
        self.child_io_accesses = 0
        self.child_io_seconds = 0.0
        self.child_cpu_seconds = 0.0


class ExecutionContext:
    """Shared runtime state of one plan execution: the simulated device,
    the CPU cost model and the metrics being accumulated.

    Memory reservations for blocking state (hash builds, aggregation
    tables, sort buffers) are held until the end of the query,
    approximating the concurrent footprint of a pipelined engine; the
    peak is the paper's Figure 3 quantity.

    The context also maintains the operator frame stack through which
    every charge is attributed to the operator that incurred it — the
    per-operator actuals surfaced by ``EXPLAIN ANALYZE`` and the
    workload differential report."""

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
        self._live_reservations: List = []
        self._frames: List[_OpFrame] = []

    def fragment_result(self, index: int) -> Relation:
        """The output of a producer fragment (parallel execution only)."""
        if self.fragment_results is None or index not in self.fragment_results:
            raise RuntimeError(
                f"fragment {index} result not available: exchange operators "
                "only run under the parallel scheduler"
            )
        return self.fragment_results[index]

    def hold(self, tag: str, num_bytes: float) -> None:
        if num_bytes > 0:
            self._live_reservations.append(self.metrics.memory.allocate(tag, num_bytes))
            if self._frames:
                self._frames[-1].held_bytes += float(num_bytes)

    def release_all(self) -> None:
        for reservation in self._live_reservations:
            reservation.release()
        self._live_reservations = []

    # ----------------------------------------------- operator attribution
    def enter_operator(self, op: "PhysicalOp") -> _OpFrame:
        frame = _OpFrame(op, self.metrics)
        self._frames.append(frame)
        return frame

    def exit_operator(self, frame: _OpFrame, output: Relation) -> None:
        metrics = self.metrics
        popped = self._frames.pop()
        assert popped is frame, "operator frames must nest"
        inclusive_io_bytes = metrics.io_bytes - frame.io_bytes
        inclusive_io_accesses = metrics.io_accesses - frame.io_accesses
        inclusive_io_seconds = metrics.io_seconds - frame.io_seconds
        inclusive_cpu_seconds = metrics.cpu_seconds - frame.cpu_seconds
        rows_out = output.num_rows
        if frame.op.children():
            rows_in = frame.child_rows
        else:  # leaves read the store: rows in = rows scanned
            rows_in = metrics.rows_scanned - frame.rows_scanned
        metrics.operators[id(frame.op)] = OperatorActuals(
            kind=frame.op.kind,
            description=frame.op.describe(),
            rows_in=rows_in,
            rows_out=rows_out,
            io_bytes=inclusive_io_bytes - frame.child_io_bytes,
            io_accesses=inclusive_io_accesses - frame.child_io_accesses,
            io_seconds=inclusive_io_seconds - frame.child_io_seconds,
            cpu_seconds=inclusive_cpu_seconds - frame.child_cpu_seconds,
            reserved_bytes=frame.held_bytes,
        )
        if self._frames:
            parent = self._frames[-1]
            parent.child_rows += rows_out
            parent.child_io_bytes += inclusive_io_bytes
            parent.child_io_accesses += inclusive_io_accesses
            parent.child_io_seconds += inclusive_io_seconds
            parent.child_cpu_seconds += inclusive_cpu_seconds


@dataclass(eq=False)
class PhysicalOp:
    """Base class for physical plan nodes.

    Besides execution, every class declares its *result contract* toward
    row order (consumed by :func:`repro.planner.propagation.compute_order_contracts`
    and the fragmenting pass):

    * ``ordered_inputs`` names the child attributes whose input must
      arrive in the exact serial order for this operator to be correct
      or deterministic (a :class:`MergeJoin`'s two sides, a
      :class:`StreamAgg`'s input, a :class:`Limit`'s prefix).  A
      reordering gather may never be introduced below such a child.
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

    def children(self) -> Tuple["PhysicalOp", ...]:
        return ()

    def run(self, ctx: ExecutionContext) -> Relation:
        """Execute this operator (recursing through ``children``) and
        record its per-operator actuals on the context's metrics."""
        frame = ctx.enter_operator(self)
        rel = self.execute(ctx)
        ctx.exit_operator(frame, rel)
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
    ranges that prune, the row selection they leave (``selected_rows``)
    and the BDCC uses to carry as hidden group columns for downstream
    sandwich operators.

    A selection of the whole table is no selection: ``selected_rows`` is
    ``None`` whenever the scan reads every stored row in storage order,
    on every scheme, and the scan then hands its consumers *views* of
    the stored columns — operators never write into the arrays they are
    handed.  Row indices exist only for scans that really select: pruned
    groups or blocks, masked deletes, a consolidated BDCC table, a
    fragment's partition.  A carried use's group column is a per-entry
    fact read off the count table; only merged delta rows, which have no
    entry, extract it from their ``_bdcc_`` keys."""

    table: str
    alias: str
    prefix: str
    stored: StoredTable
    demanded: Tuple[str, ...]
    predicate: Optional[Expr] = None
    #: (use_index, allowed_bins, bin_bits) count-table restrictions.
    restrictions: Tuple[Tuple[int, np.ndarray, int], ...] = ()
    #: (base_column, low, high) ranges whose zone maps prune blocks.
    minmax_ranges: Tuple[Tuple[str, float, float], ...] = ()
    #: sorted int64 stored-row indices left by restrictions + minmax +
    #: delete masking; None = every stored row in storage order, on
    #: every scheme.  Resolved once at lowering from metadata and reused
    #: on every run.
    selected_rows: Optional[np.ndarray] = None
    selection_notes: Tuple[str, ...] = ()
    #: (use_index, effective_bits, hidden_column) BDCC uses to surface.
    sandwich_uses: Tuple[Tuple[int, int, str], ...] = ()
    est_rows: float = 0.0
    rationale: str = ""
    replica_note: str = ""

    kind = "Scan"

    def describe(self) -> str:
        alias = "" if self.alias == self.table else f" as {self.alias}"
        pred = " WHERE ..." if self.predicate is not None else ""
        return f"{self.kind} {self.table}{alias}{pred}"

    # ------------------------------------------------------- base reading
    def _read_base(self, ctx: ExecutionContext):
        """Charge and materialise the base storage's selected rows.

        Returns ``(columns, num_selected)`` where ``columns`` maps
        prefixed demanded names to gathered arrays.  Shared between the
        plain scan and the delta-merging subclass.
        """
        stored = self.stored
        demanded = list(self.demanded)
        n = stored.stored_rows
        bdcc = stored.bdcc
        rows = self.selected_rows

        # --- IO ----------------------------------------------------------
        if rows is None:
            runs = stored.full_scan_runs()
            num_selected = n
        else:
            runs = _rows_to_runs(rows)
            num_selected = len(rows)
        run_bytes = stored.io_run_bytes(runs, demanded)
        if bdcc is not None:
            # the stored _bdcc_ column (needed for group ids) compresses
            # to ~1 byte/tuple: the table is sorted on it, so RLE applies;
            # plus the count table itself
            for _, length in runs:
                run_bytes.append(length * 1.0)
            run_bytes.append(bdcc.count_table.num_entries * 8.0)
        io_seconds = ctx.disk.time_for_runs(run_bytes)
        ctx.metrics.charge_io(float(sum(run_bytes)), len(run_bytes), io_seconds)
        ctx.metrics.rows_scanned += num_selected

        # --- materialise -------------------------------------------------
        prefix = self.prefix
        if rows is None:
            columns = {prefix + c: stored.columns[c] for c in demanded}
        else:
            columns = {prefix + c: stored.columns[c][rows] for c in demanded}
        ctx.metrics.charge_cpu(
            num_selected * len(demanded) * ctx.costs.scan_value, "scan"
        )
        return columns, num_selected

    def _finish(self, ctx: ExecutionContext, columns, keys, num_selected, note_bits):
        """Surface hidden group columns (from ``keys`` when given, else
        per count-table entry), assemble the relation, apply the residual
        predicate."""
        if self.sandwich_uses:
            bdcc, rows = self.stored.bdcc, self.selected_rows
            ct = bdcc.count_table
            if keys is None and rows is not None:
                # each row's entry: the valid entries' offsets ascend in
                # entry order, the consolidated region last
                valid = np.flatnonzero(ct.valid)
                entry = valid[np.searchsorted(ct.offsets[valid], rows, side="right") - 1]
            for use_index, eff_bits, column_name in self.sandwich_uses:
                if keys is not None:
                    # top eff_bits positions of the full mask == the use's
                    # bits that survive at count-table granularity
                    values = gather_use_bits(keys, bdcc.uses[use_index].mask, eff_bits)
                else:  # per entry; a dense count table's entries tile storage
                    values = bdcc.entry_group_values(use_index, eff_bits)
                    values = np.repeat(values, ct.counts) if rows is None else values[entry]
                columns[column_name] = values
            ctx.metrics.charge_cpu(
                num_selected * ctx.costs.sandwich_row_overhead * len(self.sandwich_uses),
                "scan",
            )
        rel = Relation(columns=columns)
        if note_bits:
            ctx.metrics.note(f"scan {self.alias}: " + ", ".join(note_bits))
        if self.predicate is not None:
            rel = _filter(ctx, rel, self.predicate)
        return rel

    def execute(self, ctx: ExecutionContext) -> Relation:
        if self.replica_note:
            ctx.metrics.note(self.replica_note)
        columns, num_selected = self._read_base(ctx)
        return self._finish(
            ctx, columns, None, num_selected, list(self.selection_notes)
        )


@dataclass(eq=False)
class DeltaMergeScan(PhysicalScan):
    """Merge-on-read scan: the base scan unioned with the table's live
    delta runs through an order-preserving merge.

    The lowering resolves, per delta run, which rows survive the same
    count-table restrictions and zone-map ranges the base selection went
    through (superset semantics — the residual predicate still runs), so
    pushdown keeps pruning deltas zone-wise.  The merged stream restores
    the scheme's storage order — ``_bdcc_``-key order (stable: base rows
    before delta rows, runs in commit order) on BDCC, primary-key order
    on PK, arrival order on Plain — so every stream property lowering
    inferred (sort order, carried dimension uses) holds with deltas
    present and merge/sandwich strategies keep firing.
    """

    #: (run_index, selected positions within the run), resolved at
    #: lowering from the delta store's keys/zone maps.
    delta_selected: Tuple[Tuple[int, np.ndarray], ...] = ()

    kind = "DeltaMergeScan"

    def execute(self, ctx: ExecutionContext) -> Relation:
        if self.replica_note:
            ctx.metrics.note(self.replica_note)
        stored = self.stored
        bdcc = stored.bdcc
        demanded = list(self.demanded)
        prefix = self.prefix
        columns, base_n = self._read_base(ctx)

        # merge keys may need columns beyond the demanded set (a PK scan
        # does not have to materialise its sort columns to be ordered,
        # but merging deltas into that order does need the values read)
        merge_cols = [
            c for c in stored.sort_columns if bdcc is None and prefix + c not in columns
        ]
        base_rows = self.selected_rows
        merge_values: Dict[str, List[np.ndarray]] = {
            c: [stored.columns[c] if base_rows is None else stored.columns[c][base_rows]]
            for c in merge_cols
        }
        if merge_cols:
            extra_bytes = [
                base_n * stored.stored_bytes_per_value(c) for c in merge_cols
            ]
            ctx.metrics.charge_io(
                float(sum(extra_bytes)), len(extra_bytes),
                ctx.disk.time_for_runs(extra_bytes),
            )
            ctx.metrics.charge_cpu(
                base_n * len(merge_cols) * ctx.costs.scan_value, "scan"
            )

        # --- read the delta runs ----------------------------------------
        pieces: Dict[str, List[np.ndarray]] = {name: [arr] for name, arr in columns.items()}
        key_pieces = None  # base keys: merged on only when delta rows join them
        if bdcc is not None and any(len(s) for _, s in self.delta_selected):
            key_pieces = [bdcc.keys if base_rows is None else bdcc.keys[base_rows]]
        delta_n = 0
        delta = stored.delta
        for run_index, sel in self.delta_selected:
            run = delta.runs[run_index]
            if len(sel) == 0:
                continue
            delta_n += len(sel)
            run_bytes = [
                len(sel) * stored.stored_bytes_per_value(c)
                for c in demanded + merge_cols
            ]
            if bdcc is not None:
                run_bytes.append(float(len(sel)))  # the run's key column
            ctx.metrics.charge_io(
                float(sum(run_bytes)), len(run_bytes),
                ctx.disk.time_for_runs(run_bytes),
            )
            ctx.metrics.charge_cpu(
                len(sel) * (len(demanded) + len(merge_cols)) * ctx.costs.scan_value,
                "scan",
            )
            for c in demanded:
                pieces[prefix + c].append(run.columns[c][sel])
            for c in merge_cols:
                merge_values[c].append(run.columns[c][sel])
            if key_pieces is not None:
                key_pieces.append(run.keys[sel])
        ctx.metrics.rows_scanned += delta_n
        ctx.metrics.delta_rows_scanned += delta_n
        total = base_n + delta_n

        # --- order-preserving merge --------------------------------------
        if delta_n == 0:
            merged, merged_keys = columns, None  # base rows: groups per entry
        else:
            merged, merged_keys = stored.merge_pieces(
                pieces, key_pieces,
                {
                    c: merge_values[c] if c in merge_values else pieces[prefix + c]
                    for c in stored.sort_columns
                },
            )
            ctx.metrics.charge_cpu(total * ctx.costs.merge_row, "scan")

        note_bits = list(self.selection_notes)
        note_bits.append(
            f"delta merge {delta_n} rows from "
            f"{sum(1 for _, s in self.delta_selected if len(s))} runs"
        )
        return self._finish(ctx, merged, merged_keys, total, note_bits)


# ---------------------------------------------------------------- filter
@dataclass(eq=False)
class PhysicalFilter(PhysicalOp):
    input: PhysicalOp
    predicate: Expr
    rationale: str = ""

    kind = "Filter"

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.input,)

    def execute(self, ctx: ExecutionContext) -> Relation:
        return _filter(ctx, self.input.run(ctx), self.predicate)


def _filter(ctx: ExecutionContext, rel: Relation, predicate: Expr) -> Relation:
    """The rows ``predicate`` keeps (a scan's residual or a filter's),
    charged per input row and column read."""
    mask = np.asarray(predicate.eval(rel), dtype=bool)
    ctx.metrics.charge_cpu(
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
    rationale: str = ""

    kind = "Project"

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.input,)

    def describe(self) -> str:
        return f"Project [{', '.join(name for name, _ in self.exprs)}]"

    def execute(self, ctx: ExecutionContext) -> Relation:
        rel = self.input.run(ctx)
        columns: Dict[str, np.ndarray] = {}
        valid: Dict[str, np.ndarray] = {}
        expr_cost = 0.0
        for name, expr in self.exprs:
            columns[name] = np.asarray(expr.eval(rel))
            if not isinstance(expr, Col):
                expr_cost += rel.num_rows * ctx.costs.expr_value
            elif expr.name in rel.valid:
                valid[name] = rel.valid[expr.name]
        ctx.metrics.charge_cpu(expr_cost, "project")
        for name in self.carry:
            columns[name] = rel.columns[name]
        return Relation(columns=columns, valid=valid)


# ----------------------------------------------------------------- joins
@dataclass(eq=False)
class _JoinOp(PhysicalOp):
    left: PhysicalOp
    right: PhysicalOp
    left_cols: Tuple[str, ...]
    right_cols: Tuple[str, ...]
    how: str = "inner"
    residual: Optional[Expr] = None
    rationale: str = ""

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.left, self.right)

    def describe(self) -> str:
        on = ", ".join(f"{l}={r}" for l, r in zip(self.left_cols, self.right_cols))
        extra = " + residual" if self.residual is not None else ""
        return f"{self.kind} {self.how} ON {on}{extra}"

    def _join_keys(self, left: Relation, right: Relation):
        return encode_join_keys(
            [left.column(c) for c in self.left_cols],
            [right.column(c) for c in self.right_cols],
        )


@dataclass(eq=False)
class MergeJoin(_JoinOp):
    """Both inputs arrive ordered on the join keys (the PK scheme's
    LINEITEM/ORDERS and PART/PARTSUPP cases); state-free."""

    kind = "MergeJoin"
    ordered_inputs = ("left", "right")

    def execute(self, ctx: ExecutionContext) -> Relation:
        left = self.left.run(ctx)
        right = self.right.run(ctx)
        lkeys, rkeys = self._join_keys(left, right)
        ctx.metrics.note(
            f"merge join on {self.left_cols} ({self.how}, "
            f"{left.num_rows}x{right.num_rows})"
        )
        ctx.metrics.charge_cpu(
            (left.num_rows + right.num_rows) * ctx.costs.merge_row, "join"
        )
        if self.how in ("semi", "anti"):
            matched = semi_join_mask(lkeys, rkeys)
            keep = matched if self.how == "semi" else ~matched
            ctx.metrics.charge_cpu(int(keep.sum()) * ctx.costs.join_output_row, "join")
            return left.filter(keep)
        lidx, ridx = inner_join_pairs(lkeys, rkeys)
        ctx.metrics.charge_cpu(len(lidx) * ctx.costs.join_output_row, "join")
        return _assemble_inner(left, right, lidx, ridx)


@dataclass(eq=False)
class HashJoin(_JoinOp):
    """Plain hash join; the build side was fixed at lowering (a pipelined
    engine builds on the smaller input and streams the larger one, which
    is also what preserves the probe side's physical order)."""

    build_side: str = "right"  # "left" | "right"

    kind = "HashJoin"

    # -- accounting hooks overridden by SandwichJoin ----------------------
    def _state(self, ctx, left, right, build_rel, build_bytes) -> Tuple[float, int]:
        ctx.metrics.note(
            f"hash join on {self.left_cols} ({self.how}), build "
            f"{build_rel.num_rows} rows / {build_bytes/1e6:.2f} MB"
        )
        return build_bytes, 1

    def _extra_charges(self, ctx, left, right, num_groups) -> float:
        return 0.0

    def execute(self, ctx: ExecutionContext) -> Relation:
        left = self.left.run(ctx)
        right = self.right.run(ctx)
        lkeys, rkeys = self._join_keys(left, right)
        costs = ctx.costs
        how = self.how
        build_is_left = self.build_side == "left"
        build_rel = left if build_is_left else right
        probe_rel = right if build_is_left else left
        if how in ("semi", "anti"):
            build_bytes = build_rel.row_bytes(list(self.right_cols)) * build_rel.num_rows
        else:
            build_bytes = build_rel.data_bytes()
        build_bytes += _HASH_ENTRY_OVERHEAD * build_rel.num_rows

        state_bytes, num_groups = self._state(ctx, left, right, build_rel, build_bytes)
        ctx.hold(f"join:{self.left_cols}", state_bytes + num_groups * _GROUP_HEADER_BYTES)
        factor = costs.cache_factor(state_bytes)
        cpu = (
            build_rel.num_rows * costs.hash_build_row * factor
            + probe_rel.num_rows * costs.hash_probe_row * factor
        )
        cpu += self._extra_charges(ctx, left, right, num_groups)
        ctx.metrics.charge_cpu(cpu, "join")

        # ---- execute ----------------------------------------------------
        if how == "inner":
            # output follows the probe side's order, as a pipelined hash
            # join does — this is what lets a later merge join see the
            # PK scheme's key order through an earlier N:1 join
            if build_is_left:
                ridx, lidx = inner_join_pairs(rkeys, lkeys)
            else:
                lidx, ridx = inner_join_pairs(lkeys, rkeys)
            if self.residual is not None:
                joined = _assemble_inner(left, right, lidx, ridx)
                mask = np.asarray(self.residual.eval(joined), dtype=bool)
                ctx.metrics.charge_cpu(len(lidx) * costs.expr_value, "join")
                joined = joined.filter(mask)
                ctx.metrics.charge_cpu(joined.num_rows * costs.join_output_row, "join")
                return joined
            ctx.metrics.charge_cpu(len(lidx) * costs.join_output_row, "join")
            return _assemble_inner(left, right, lidx, ridx)
        if how == "left":
            lidx, ridx = left_join_pairs(lkeys, rkeys)
            ctx.metrics.charge_cpu(len(lidx) * costs.join_output_row, "join")
            return _assemble_left(left, right, lidx, ridx)
        if how in ("semi", "anti"):
            if self.residual is not None:
                lidx, ridx = inner_join_pairs(lkeys, rkeys)
                joined = _assemble_inner(left, right, lidx, ridx)
                mask_pairs = np.asarray(self.residual.eval(joined), dtype=bool)
                ctx.metrics.charge_cpu(len(lidx) * costs.expr_value, "join")
                matched = np.zeros(left.num_rows, dtype=bool)
                matched[lidx[mask_pairs]] = True
            else:
                matched = semi_join_mask(lkeys, rkeys)
            keep = matched if how == "semi" else ~matched
            ctx.metrics.charge_cpu(int(keep.sum()) * costs.join_output_row, "join")
            return left.filter(keep)
        raise AssertionError(how)


@dataclass(eq=False)
class SandwichJoin(HashJoin):
    """Hash join over co-clustered inputs: per-group hash tables sized by
    the largest group rather than the full build side [3].  ``pairs``
    holds the matched dimension uses with the group bits granted to each
    at lowering (capped by ``max_sandwich_bits``)."""

    #: (left_use, right_use, granted_bits) per co-clustered dimension.
    pairs: Tuple[Tuple[StreamUse, StreamUse, int], ...] = ()

    kind = "SandwichJoin"

    def _state(self, ctx, left, right, build_rel, build_bytes) -> Tuple[float, int]:
        """Per-group peak state and group count of the sandwiched build."""
        build_is_left = self.build_side == "left"
        build_gid = np.zeros(build_rel.num_rows, dtype=np.uint64)
        total_bits = 0
        for left_use, right_use, g in self.pairs:
            if g <= 0:
                continue
            total_bits += g
            use = left_use if build_is_left else right_use
            rel = left if build_is_left else right
            vals = rel.columns[use.column] >> np.uint64(use.bits - g)
            build_gid = (build_gid << np.uint64(g)) | vals
        if total_bits == 0 or len(build_gid) == 0:
            return build_bytes, 1
        counts = np.bincount(factorize(build_gid)[0])  # rows per group id
        build_rows = max(len(build_gid), 1)
        per_row = build_bytes / build_rows
        state_bytes = float(counts.max()) * per_row
        num_groups = int(np.count_nonzero(counts))
        ctx.metrics.note(
            f"sandwich join on {self.left_cols} via "
            + "+".join(p[0].dimension.name for p in self.pairs)
            + f" @{total_bits} bits: {num_groups} groups, "
            f"max group {state_bytes/1e6:.3f} MB (full build {build_bytes/1e6:.2f} MB)"
        )
        ctx.metrics.bump("sandwich_joins")
        return state_bytes, num_groups

    def _extra_charges(self, ctx, left, right, num_groups) -> float:
        # scatter-order delivery of both inputs: one random access per
        # group run instead of a straight sequential pass
        ctx.metrics.charge_io(0.0, 2 * num_groups, 2 * num_groups * ctx.disk.access_latency)
        return (
            num_groups * ctx.costs.sandwich_group_overhead
            + (left.num_rows + right.num_rows) * ctx.costs.sandwich_row_overhead
        )


# ----------------------------------------------------- join assembly
def _assemble_inner(left, right, lidx, ridx) -> Relation:
    lpart = left.take(lidx)
    rpart = right.take(ridx)
    columns = dict(lpart.columns)
    valid = dict(lpart.valid)
    for name, arr in rpart.columns.items():
        if name not in columns:
            columns[name] = arr
    for name, mask in rpart.valid.items():
        if name not in valid:
            valid[name] = mask
    return Relation(columns=columns, valid=valid)


def _assemble_left(left, right, lidx, ridx) -> Relation:
    matched = ridx >= 0
    safe_ridx = np.where(matched, ridx, 0)
    lpart = left.take(lidx)
    if right.num_rows == 0:
        # nothing to gather: null-extend with typed placeholders
        rpart = Relation(
            columns={
                name: np.zeros(len(lidx), dtype=arr.dtype)
                for name, arr in right.columns.items()
            },
        )
    else:
        rpart = right.take(safe_ridx)
    columns = dict(lpart.columns)
    valid = dict(lpart.valid)
    for name, arr in rpart.columns.items():
        if name not in columns:
            columns[name] = arr
            prior = rpart.valid.get(name)
            valid[name] = matched if prior is None else (matched & prior)
    return Relation(columns=columns, valid=valid)


# ----------------------------------------------------------- aggregation
def _group_by(rel: Relation, keys: Tuple[str, ...]):
    """``(group index per row, representative row per group, number of
    groups)`` of ``rel`` under ``keys``; no keys is one group, no rows is
    no group.  Shared by every aggregation operator."""
    n = rel.num_rows
    if keys:
        return group_rows([rel.column(k) for k in keys])
    group_index = np.zeros(n, dtype=np.int64)
    first_rows = np.zeros(1 if n else 0, dtype=np.int64)
    return group_index, first_rows, 1 if n else 0


def _state_row_bytes(rel: Relation, keys: Tuple[str, ...], num_states: int) -> float:
    """Bytes of one group's entry in an aggregation table."""
    return (
        (rel.row_bytes(list(keys)) if keys else 0.0)
        + num_states * _AGG_STATE_BYTES
        + _HASH_ENTRY_OVERHEAD
    )


@dataclass(eq=False)
class _AggOp(PhysicalOp):
    input: PhysicalOp
    keys: Tuple[str, ...] = ()
    aggs: Tuple[AggSpec, ...] = ()
    rationale: str = ""
    #: lowering's cardinality estimates, recorded for the fragmenter's
    #: partial-aggregation cost rule (group count vs input rows); 0.0
    #: when the operator was built outside the lowering pass.
    est_groups: float = 0.0
    est_input_rows: float = 0.0

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.input,)

    def describe(self) -> str:
        aggs = ", ".join(f"{s.name}={s.fn}" for s in self.aggs)
        keys = ", ".join(self.keys) if self.keys else "<scalar>"
        return f"{self.kind} [{keys}] -> {aggs}"

    def _account(self, ctx, rel, group_index, num_groups, state_row) -> List[StreamUse]:
        """Strategy-specific cost/memory accounting; returns the stream
        uses whose hidden group columns the output keeps."""
        raise NotImplementedError

    def execute(self, ctx: ExecutionContext) -> Relation:
        rel = self.input.run(ctx)
        n = rel.num_rows
        group_index, first_rows, num_groups = _group_by(rel, self.keys)
        state_row = _state_row_bytes(rel, self.keys, len(self.aggs))
        out_uses = self._account(ctx, rel, group_index, num_groups, state_row)

        # ---- execute (strategy-independent kernels) ---------------------
        columns = {key: rel.column(key)[first_rows] for key in self.keys}
        for spec in self.aggs:
            values = None
            valid = None
            if spec.expr is not None:
                values = np.asarray(spec.expr.eval(rel))
                if isinstance(spec.expr, Col):
                    valid = rel.valid.get(spec.expr.name)
                ctx.metrics.charge_cpu(n * ctx.costs.expr_value, "aggregate")
            columns[spec.name] = apply_aggregate(spec, group_index, num_groups, values, valid)

        for use in out_uses:
            columns[use.column] = rel.columns[use.column][first_rows]
        return Relation(columns=columns)


@dataclass(eq=False)
class HashAgg(_AggOp):
    kind = "HashAgg"

    def _account(self, ctx, rel, group_index, num_groups, state_row) -> List[StreamUse]:
        total_state = num_groups * state_row
        ctx.hold("agg:hash", total_state)
        factor = ctx.costs.cache_factor(total_state)
        ctx.metrics.charge_cpu(rel.num_rows * ctx.costs.agg_update_row * factor, "aggregate")
        if self.keys:
            ctx.metrics.note(
                f"hash aggregation on {self.keys}: {num_groups} groups, "
                f"{total_state/1e6:.2f} MB"
            )
        return []


@dataclass(eq=False)
class StreamAgg(_AggOp):
    """The input arrives ordered on (a functional determinant of) the
    grouping keys: one live group at a time."""

    kind = "StreamAgg"
    ordered_inputs = ("input",)

    def _account(self, ctx, rel, group_index, num_groups, state_row) -> List[StreamUse]:
        ctx.metrics.note(f"streaming aggregation on {self.keys}")
        ctx.metrics.charge_cpu(rel.num_rows * ctx.costs.stream_agg_row, "aggregate")
        ctx.hold("agg:stream", state_row)  # one live group
        return []


@dataclass(eq=False)
class SandwichAgg(_AggOp):
    """The grouping keys functionally determine carried dimension uses
    (the paper's Q13/Q18 effect): the aggregation pre-partitions along
    those groups and holds only the largest partition's table."""

    #: (use, granted_bits) per carried dimension, capped at lowering.
    partition_uses: Tuple[Tuple[StreamUse, int], ...] = ()

    kind = "SandwichAgg"

    def _account(self, ctx, rel, group_index, num_groups, state_row) -> List[StreamUse]:
        n = rel.num_rows
        pid = np.zeros(n, dtype=np.uint64)
        total_bits = 0
        for use, g in self.partition_uses:
            if g <= 0:
                continue
            pid = (pid << np.uint64(g)) | (rel.columns[use.column] >> np.uint64(use.bits - g))
            total_bits += g
        per_part = distinct_per_partition(pid, group_index)
        max_state = float(per_part.max()) * state_row if len(per_part) else 0.0
        num_partitions = len(per_part)
        ctx.hold("agg:sandwich", max_state + num_partitions * _GROUP_HEADER_BYTES)
        factor = ctx.costs.cache_factor(max_state)
        ctx.metrics.charge_cpu(
            n * ctx.costs.agg_update_row * factor
            + num_partitions * ctx.costs.sandwich_group_overhead
            + n * ctx.costs.sandwich_row_overhead,
            "aggregate",
        )
        ctx.metrics.charge_io(0.0, num_partitions, num_partitions * ctx.disk.access_latency)
        ctx.metrics.note(
            f"sandwich aggregation on {self.keys} via "
            + "+".join(u.dimension.name for u, _ in self.partition_uses)
            + f": {num_partitions} partitions, max state "
            f"{max_state/1e6:.3f} MB (full {num_groups * state_row/1e6:.2f} MB)"
        )
        ctx.metrics.bump("sandwich_aggs")
        return [use for use, _ in self.partition_uses]


@dataclass(eq=False)
class PartialAgg(_AggOp):
    """Per-fragment pre-aggregation below the gather (phase one of the
    two-phase aggregation): runs decomposed partial specs (see
    :func:`repro.execution.aggregate.decompose_aggs`) over one
    partition's rows, holding only that partition's group table, and
    emits one row per locally seen group.  The shrunken partial stream
    is what the exchange ships; :class:`MergeAgg` above the gather
    recombines it."""

    kind = "PartialAgg"

    def _account(self, ctx, rel, group_index, num_groups, state_row) -> List[StreamUse]:
        total_state = num_groups * state_row
        ctx.hold("agg:partial", total_state)
        factor = ctx.costs.cache_factor(total_state)
        ctx.metrics.charge_cpu(rel.num_rows * ctx.costs.agg_update_row * factor, "aggregate")
        ctx.metrics.bump("partial_agg_rows", num_groups)
        return []


@dataclass(eq=False)
class MergeAgg(PhysicalOp):
    """Phase two of the two-phase aggregation: the serial tail above the
    gather that recombines the partial-state rows of every fragment's
    :class:`PartialAgg` into the final aggregates.  Input rows arrive
    partition-major (each partition's partials key-sorted, the gathered
    stream not globally sorted); output is key-sorted like every
    aggregation, so the operator reproduces the serial aggregate's row
    order — only float summation order differs (order-insensitive
    result contract)."""

    input: PhysicalOp
    keys: Tuple[str, ...] = ()
    merges: Tuple[MergeSpec, ...] = ()
    rationale: str = ""

    kind = "MergeAgg"

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.input,)

    def describe(self) -> str:
        merges = ", ".join(f"{m.name}={m.fn}" for m in self.merges)
        keys = ", ".join(self.keys) if self.keys else "<scalar>"
        return f"MergeAgg [{keys}] -> {merges}"

    def execute(self, ctx: ExecutionContext) -> Relation:
        rel = self.input.run(ctx)
        n = rel.num_rows
        group_index, first_rows, num_groups = _group_by(rel, self.keys)
        total_state = num_groups * _state_row_bytes(rel, self.keys, len(self.merges))
        ctx.hold("agg:merge", total_state)
        factor = ctx.costs.cache_factor(total_state)
        ctx.metrics.charge_cpu(n * ctx.costs.agg_update_row * factor, "aggregate")
        if self.keys:
            ctx.metrics.note(
                f"merge aggregation on {self.keys}: {num_groups} groups "
                f"from {n} partial rows"
            )
        columns = {key: rel.column(key)[first_rows] for key in self.keys}
        columns.update(
            merge_partial_aggregates(self.merges, group_index, num_groups, rel.columns)
        )
        return Relation(columns=columns)


# ------------------------------------------------------------ sort/limit
@dataclass(eq=False)
class Sort(PhysicalOp):
    input: PhysicalOp
    keys: Tuple[Tuple[str, bool], ...] = ()
    rationale: str = ""

    kind = "Sort"
    restores_order = True

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.input,)

    def describe(self) -> str:
        keys = ", ".join(f"{c}{'' if asc else ' desc'}" for c, asc in self.keys)
        return f"Sort [{keys}]"

    def execute(self, ctx: ExecutionContext) -> Relation:
        rel = self.input.run(ctx)
        n = rel.num_rows
        if n:
            sort_keys = []
            for column, ascending in reversed(self.keys):
                values = rel.column(column)
                if not ascending:
                    if values.dtype.kind in "iuf":
                        values = -values.astype(np.float64)
                    else:
                        values = -factorize(values)[0]
                sort_keys.append(values)
            order = np.lexsort(tuple(sort_keys))
            rel = rel.take(order)
        ctx.hold("sort", rel.data_bytes())
        ctx.metrics.charge_cpu(
            n * max(math.log2(max(n, 2)), 1.0) * ctx.costs.sort_row, "sort"
        )
        return rel


@dataclass(eq=False)
class Limit(PhysicalOp):
    input: PhysicalOp
    count: int = 0
    rationale: str = ""

    kind = "Limit"
    ordered_inputs = ("input",)

    def children(self) -> Tuple[PhysicalOp, ...]:
        return (self.input,)

    def describe(self) -> str:
        return f"Limit {self.count}"

    def execute(self, ctx: ExecutionContext) -> Relation:
        rel = self.input.run(ctx)
        if rel.num_rows > self.count:
            rel = rel.take(np.arange(self.count))
        return rel


def _rows_to_runs(rows: np.ndarray) -> List[Tuple[int, int]]:
    """Sorted row indices -> (start, length) runs."""
    if len(rows) == 0:
        return []
    breaks = np.flatnonzero(np.diff(rows) != 1)
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks, [len(rows) - 1]])
    first = rows[starts]
    return list(zip(first.tolist(), (rows[ends] - first + 1).tolist()))
