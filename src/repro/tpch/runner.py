"""Query runner: multi-stage execution with merged metrics.

Several TPC-H queries decorrelate into a scalar pre-query plus a main
plan (Q11's threshold, Q15's max revenue, Q22's average balance).  The
runner executes each stage through one :class:`Executor` and merges the
stage metrics: times and IO add up, peak memory is the maximum across
stages (stages run one after another).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..execution.metrics import ExecutionMetrics
from ..planner.executor import ExecutionOptions, Executor, QueryResult
from ..planner.lowering import PhysicalPlan
from ..schemes.base import PhysicalDatabase
from ..storage.database import Database
from ..storage.io_model import DiskModel

__all__ = ["QueryRunner", "run_query"]


class QueryRunner:
    """Executes plan stages and accumulates one query's total cost.

    Stages go through the two-phase entry points — ``executor.lower``
    then ``executor.run`` — and each stage's plan as submitted and its
    lowering are kept in ``logical_plans`` and ``physical_plans``, so
    callers (EXPLAIN, tests, the CLI, serving's TPC-H capture) can
    inspect what was asked and planned per stage without re-running the
    query."""

    def __init__(self, executor: Executor):
        self.executor = executor
        self.metrics = ExecutionMetrics()
        self.logical_plans: List[object] = []
        self.physical_plans: List[PhysicalPlan] = []
        #: per-stage metrics, parallel to ``physical_plans`` (the merged
        #: ``metrics`` mixes stages; fragment timelines are per stage)
        self.stage_metrics: List[ExecutionMetrics] = []

    @property
    def database(self) -> Database:
        return self.executor.pdb.database

    @property
    def scale_factor(self) -> float:
        sf = self.database.scale_factor
        return 1.0 if sf is None else sf

    def execute(self, plan) -> QueryResult:
        self.logical_plans.append(plan)
        pplan = plan if isinstance(plan, PhysicalPlan) else self.executor.lower(plan)
        self.physical_plans.append(pplan)
        result = self.executor.run(pplan)
        self.stage_metrics.append(result.metrics)
        self._merge(result.metrics)
        return result

    def _merge(self, stage: ExecutionMetrics) -> None:
        merged = self.metrics
        # stages hold distinct operator trees, so absorbing keeps every
        # stage's actuals
        merged.absorb(stage)
        merged.rows_produced = stage.rows_produced
        # stages run sequentially, so the query's peaks, overall and
        # per tag, are their maxima over the stages (never sums)
        merged.peak_memory_bytes = max(merged.peak_memory_bytes, stage.peak_memory_bytes)
        by_tag = merged.peak_memory_by_tag
        for tag, peak in stage.peak_memory_by_tag.items():
            if peak > by_tag.get(tag, 0.0):
                by_tag[tag] = peak
        # stages run one after another: wall clocks add up, and the
        # per-stage fragment timelines are kept for inspection
        merged.makespan_seconds += stage.makespan_seconds
        merged.workers = max(merged.workers, stage.workers)
        merged.fragments.extend(stage.fragments)
        merged.measured_wall_seconds += stage.measured_wall_seconds
        if stage.backend != "simulated":
            merged.backend = stage.backend


def run_query(
    physical_db: PhysicalDatabase,
    query: Callable[[QueryRunner], QueryResult],
    disk: Optional[DiskModel] = None,
    options: Optional[ExecutionOptions] = None,
    costs=None,
    tracer=None,
    observer: Optional[Callable[[QueryRunner, QueryResult], None]] = None,
) -> tuple:
    """Run one query function; returns (QueryResult, merged metrics).

    ``tracer`` (a :class:`repro.observe.SpanTracer`) is handed to the
    executor; ``observer`` is called with ``(runner, result)`` after the
    query finishes but before the executor is closed, so observability
    sinks (trace builders, query logs) can read the runner's stage
    metrics and lowered plans while they are still live.
    """
    executor = Executor(
        physical_db, disk=disk, costs=costs, options=options, tracer=tracer
    )
    try:
        runner = QueryRunner(executor)
        result = query(runner)
        if observer is not None:
            observer(runner, result)
        return result, runner.metrics
    finally:
        executor.close()
