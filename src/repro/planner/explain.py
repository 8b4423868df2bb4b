"""EXPLAIN: render the physical plan a scheme picks — without running it.

``explain(executor, plan)`` lowers the plan (planning is pure: it reads
count-table / zone-map / schema metadata but never touches row data) and
renders the physical operator tree with each operator's strategy
rationale — merge vs sandwich vs hash joins, streaming vs sandwich vs
hash aggregation, pushdown/minmax scan pruning and replica choice.

``explain(executor, plan, analyze=True)`` additionally *runs* the plan
and annotates every physical node with its per-operator actuals — rows
in/out, exclusive simulated IO and CPU seconds, and reserved operator
memory — plus the query totals and the peak memory per tag, like SQL's
``EXPLAIN ANALYZE``.  A decision is read off its operator's rationale
and a number off its operator's actuals: a sandwich join's group count
is its ``io`` accesses (one per group and input), a hash aggregate's
group count its ``rows`` out.  :func:`format_explain` renders that text
for one lowered plan; ``python -m repro.tpch --explain`` calls it once
per query stage.

When the executor's options ask for ``workers > 1`` the rendering
switches to the *fragment* view: every plan fragment with its role
(``partition`` / ``broadcast`` / ``source`` / ``copartition`` /
``final``), partition note and dependencies, and under ``analyze`` the
scheduler's verdict per fragment — assigned worker, makespan
contribution and queue wait — plus the makespan/speedup totals.  When
the run used a measuring backend (``ExecutionOptions(backend="process")``)
each fragment header additionally carries its measured wall clock
(``measured=...ms``) and a ``measured:`` totals line sits under the
simulated makespan, so modelled and real time read side by side.  A
co-partitioned join renders its rebinning ``Repartition`` leaves and a
``UnionAll [... canonical order]`` gather, making the order-insensitive
result contract visible in the plan text.
"""

from __future__ import annotations

from typing import List, Optional

from ..execution.metrics import ExecutionMetrics
from ..parallel.fragments import ParallelPlan

from .executor import Executor
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
from .lowering import PhysicalPlan

__all__ = [
    "format_plan",
    "format_physical_plan",
    "format_parallel_plan",
    "format_explain",
    "explain",
]


def _describe(node: PlanNode) -> str:
    if isinstance(node, ScanNode):
        alias = "" if node.alias == node.table else f" as {node.alias}"
        pred = " WHERE ..." if node.predicate is not None else ""
        return f"Scan {node.table}{alias}{pred}"
    if isinstance(node, FilterNode):
        return "Filter"
    if isinstance(node, ProjectNode):
        return f"Project [{', '.join(name for name, _ in node.exprs)}]"
    if isinstance(node, JoinNode):
        on = ", ".join(f"{l}={r}" for l, r in zip(node.left_cols, node.right_cols))
        extra = " + residual" if node.residual is not None else ""
        return f"Join {node.how} ON {on}{extra}"
    if isinstance(node, GroupByNode):
        aggs = ", ".join(f"{s.name}={s.fn}" for s in node.aggs)
        keys = ", ".join(node.keys) if node.keys else "<scalar>"
        return f"GroupBy [{keys}] -> {aggs}"
    if isinstance(node, SortNode):
        keys = ", ".join(f"{c}{'' if asc else ' desc'}" for c, asc in node.keys)
        return f"Sort [{keys}]"
    if isinstance(node, LimitNode):
        return f"Limit {node.count}"
    return type(node).__name__


def format_plan(plan) -> str:
    """ASCII tree of a logical plan."""
    node = plan.node if isinstance(plan, Plan) else plan
    lines: List[str] = []

    def render(current: PlanNode, depth: int) -> None:
        lines.append("  " * depth + _describe(current))
        for child in current.children():
            render(child, depth + 1)

    render(node, 0)
    return "\n".join(lines)


def format_physical_plan(
    pplan: PhysicalPlan,
    verbose: bool = True,
    metrics: Optional[ExecutionMetrics] = None,
) -> str:
    """ASCII tree of a physical plan.

    With ``verbose`` each operator's strategy rationale is appended in
    brackets; without, only the structural skeleton (operator kinds, join
    keys, grouping keys) is printed — the stable form golden tests pin.
    With ``metrics`` (from a run of this plan) each node is annotated
    with its per-operator actuals: rows in/out, exclusive IO/CPU time and
    reserved memory.
    """
    lines: List[str] = []
    _render_op(pplan.root, 0, lines, verbose, metrics)
    return "\n".join(lines)


def _render_op(op, depth: int, lines: List[str], verbose: bool,
               metrics: Optional[ExecutionMetrics]) -> None:
    line = "  " * depth + op.describe()
    if verbose and op.rationale:
        line += f"  [{op.rationale}]"
    if metrics is not None:
        actuals = metrics.actuals_for(op)
        if actuals is not None:
            line += f"  {actuals.summary()}"
    lines.append(line)
    for child in op.children():
        _render_op(child, depth + 1, lines, verbose, metrics)


def format_parallel_plan(
    parallel: ParallelPlan,
    verbose: bool = True,
    metrics: Optional[ExecutionMetrics] = None,
) -> str:
    """ASCII rendering of a fragmented plan: one block per fragment —
    role, partition note, dependencies, and (with ``metrics`` from a
    scheduled run) the assigned worker, makespan contribution and queue
    wait — each followed by the fragment's operator tree."""
    actuals_by_index = {}
    if metrics is not None:
        actuals_by_index = {f.index: f for f in metrics.fragments}
    lines: List[str] = []
    for fragment in parallel.fragments:
        header = f"fragment {fragment.index} [{fragment.role}]"
        if fragment.note:
            header += f" {fragment.note}"
        if fragment.depends_on:
            header += " <- " + ", ".join(f"f{d}" for d in fragment.depends_on)
        actual = actuals_by_index.get(fragment.index)
        if actual is not None:
            header += f"  {actual.summary()}"
        lines.append(header)
        _render_op(fragment.root, 1, lines, verbose, metrics)
    if metrics is not None and metrics.makespan_seconds > 0.0:
        lines.append(
            "makespan: %.3f ms over %d workers (%.3f ms resource-seconds, "
            "speedup %.2fx)"
            % (
                metrics.makespan_seconds * 1e3,
                metrics.workers,
                metrics.total_seconds * 1e3,
                metrics.parallel_speedup,
            )
        )
        if metrics.measured_wall_seconds > 0.0:
            # a measuring backend ran: show real wall clock next to the
            # simulated makespan (per-fragment measured=...ms values sit
            # in the headers above)
            lines.append(
                "measured: %.3f ms wall on the %s backend"
                % (metrics.measured_wall_seconds * 1e3, metrics.backend)
            )
    return "\n".join(lines)


def _decisions(pplan: PhysicalPlan) -> List[str]:
    out: List[str] = []
    for op in pplan.operators():
        if op.rationale:
            out.append(f"{op.describe()}: {op.rationale}")
    return out


def format_explain(
    executor: Executor,
    pplan: PhysicalPlan,
    metrics: Optional[ExecutionMetrics] = None,
) -> str:
    """The EXPLAIN text of one lowered plan: the operator tree with each
    operator's rationale — as its fragments when ``executor``'s options
    make the plan parallel — and, with ``metrics`` from a run of it,
    every operator's actuals, the cost line and the peak memory per
    tag (EXPLAIN ANALYZE)."""
    parallel = executor.execution_plan(pplan)
    if parallel.is_parallel:
        tree = format_parallel_plan(parallel, verbose=True, metrics=metrics)
    else:
        tree = format_physical_plan(pplan, verbose=True, metrics=metrics)
    if metrics is None:
        return tree
    parts = [
        tree,
        "cost: %.3f ms simulated (IO %.3f ms / %.2f MB in %d accesses, "
        "CPU %.3f ms), peak memory %.3f MB, %d rows out"
        % (
            metrics.total_seconds * 1e3,
            metrics.io_seconds * 1e3,
            metrics.io_bytes / 1e6,
            metrics.io_accesses,
            metrics.cpu_seconds * 1e3,
            metrics.peak_memory_bytes / 1e6,
            metrics.rows_produced,
        ),
    ]
    if metrics.peak_memory_by_tag:
        # per-tag peaks are each tag's own concurrent maximum; they
        # attribute the overall peak but need not sum to it
        parts.append("memory by tag (per-tag peak):")
        ordered = sorted(
            metrics.peak_memory_by_tag.items(), key=lambda item: -item[1]
        )
        parts.extend(
            f"  - {tag}: {peak / 1e6:.3f} MB" for tag, peak in ordered
        )
    return "\n".join(parts)


def explain(executor: Executor, plan, analyze: bool = False) -> str:
    """Physical plan + strategy decisions; with ``analyze``, also run the
    query and report its actuals and simulated costs
    (:func:`format_explain`).  With ``options.workers > 1`` the plan is
    rendered as its fragments."""
    pplan = executor.lower(plan)
    metrics = executor.run(pplan).metrics if analyze else None
    scheme_line = f"scheme: {executor.pdb.scheme_name}"
    parallel = executor.execution_plan(pplan)
    if parallel.is_parallel:
        scheme_line += f", workers: {parallel.workers}"
    parts = [scheme_line, format_explain(executor, pplan, metrics), "", "decisions:"]
    decisions = _decisions(pplan)
    if decisions:
        parts.extend(f"  - {d}" for d in decisions)
    else:
        parts.append("  - (none: plain scans and default strategies)")
    return "\n".join(parts)
