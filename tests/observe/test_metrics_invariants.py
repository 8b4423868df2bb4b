"""Accounting invariants the observability layer leans on: exclusive
operator actuals summing to query totals (both backends) and holding
exactly the charges each operator made, the exclusive host clock beside
them (carried home by process workers, moving no simulated number), the
counter/note merge rules of ``merge_parallel_metrics``, a fragment's
held memory as the sum of its holds, per-tag memory attribution, and
its surfacing in ``explain(analyze=True)``."""

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from repro.parallel.backends import SimulatedBackend
from repro.parallel.scheduler import concurrent_peak, merge_parallel_metrics
from repro.execution.aggregate import AggSpec
from repro.execution.cost import DEFAULT_COSTS
from repro.execution.expressions import col
from repro.execution.metrics import ExecutionMetrics, OperatorActuals
from repro.execution.operators import ExecutionContext, PhysicalOp
from repro.execution.relation import Relation
from repro.planner.executor import ExecutionOptions, Executor, QueryResult
from repro.planner.explain import explain
from repro.planner.logical import scan
from repro.storage.io_model import PAPER_SSD
from repro.tpch.dates import days
from repro.tpch.queries import QUERIES
from repro.tpch.runner import QueryRunner


def _q6_plan():
    lo, hi = days("1994-01-01"), days("1995-01-01")
    return scan(
        "lineitem",
        predicate=(
            col("l_shipdate").ge(lo)
            & col("l_shipdate").lt(hi)
            & col("l_discount").between(0.05, 0.07)
            & col("l_quantity").lt(24)
        ),
    ).groupby(
        [], [AggSpec("revenue", "sum", col("l_extendedprice") * col("l_discount"))]
    )


def _run(pdb, environment, qname, workers=1, backend="simulated", result=False):
    executor = Executor(
        pdb, disk=environment.disk, costs=environment.cost_model,
        options=ExecutionOptions(
            workers=workers, min_partition_rows=256, backend=backend
        ),
    )
    try:
        runner = QueryRunner(executor)
        relation = QUERIES[qname](runner).relation
        return (relation, runner.metrics) if result else runner.metrics
    finally:
        executor.close()


def _assert_operators_sum_to_totals(metrics):
    assert metrics.operators
    io = sum(a.io_seconds for a in metrics.operators.values())
    cpu = sum(a.cpu_seconds for a in metrics.operators.values())
    assert io == pytest.approx(metrics.io_seconds, rel=1e-9, abs=1e-12)
    assert cpu == pytest.approx(metrics.cpu_seconds, rel=1e-9, abs=1e-12)


class TestOperatorSumInvariant:
    @pytest.mark.parametrize("qname", ["Q01", "Q06"])
    def test_serial(self, physical_dbs, environment, qname):
        for pdb in physical_dbs.values():
            _assert_operators_sum_to_totals(_run(pdb, environment, qname))

    @pytest.mark.parametrize("qname", ["Q01", "Q06"])
    def test_parallel_simulated(self, bdcc_db, environment, qname):
        metrics = _run(bdcc_db, environment, qname, workers=4)
        assert metrics.workers > 1
        _assert_operators_sum_to_totals(metrics)

    @pytest.mark.backend
    @pytest.mark.parametrize("qname", ["Q01", "Q06"])
    def test_parallel_process_backend(self, bdcc_db, environment, qname):
        metrics = _run(
            bdcc_db, environment, qname, workers=4, backend="process"
        )
        assert metrics.measured_wall_seconds > 0.0
        _assert_operators_sum_to_totals(metrics)


@dataclass(eq=False)
class _Charging(PhysicalOp):
    """A fake operator: charges ``before`` CPU seconds (and ``reads``
    rows read from the store), sleeps ``sleep`` host seconds, runs its
    input if it has one, charges ``after``, and emits ``rows`` rows."""

    before: float = 0.0
    after: float = 0.0
    reads: int = 0
    rows: int = 0
    sleep: float = 0.0
    input: Optional[PhysicalOp] = None

    kind = "Charging"

    def execute(self, ctx):
        ctx.charge_cpu(self.before, "test")
        ctx.scanned(self.reads)
        time.sleep(self.sleep)
        if self.input is not None:
            self.input.run(ctx)
        ctx.charge_cpu(self.after, "test")
        return Relation(columns={"x": np.zeros(self.rows)})


def _context():
    return ExecutionContext(PAPER_SSD, DEFAULT_COSTS, ExecutionMetrics())


class TestExclusiveByConstruction:
    """Each operator's actuals are the sum of its own charges — no
    snapshot of the totals is subtracted, so no float residue of the
    other operators' charges reaches them."""

    def test_each_operator_holds_exactly_its_own_charges(self):
        child = _Charging(before=0.2, reads=5, rows=3)
        parent = _Charging(before=0.1, after=0.3, rows=1, input=child)
        ctx = _context()
        parent.run(ctx)
        metrics = ctx.metrics
        assert metrics.actuals_for(child).cpu_seconds == 0.2
        assert metrics.actuals_for(parent).cpu_seconds == 0.1 + 0.3
        # what subtracting the totals at the child's start from those at
        # its end reads instead
        assert (0.1 + 0.2) - 0.1 == 0.20000000000000004
        assert metrics.cpu_seconds == 0.1 + 0.2 + 0.3
        assert metrics.counters["test"] == 0.1 + 0.2 + 0.3
        # a leaf's rows in are the rows it read; a parent's, its
        # children's rows out
        leaf, top = metrics.actuals_for(child), metrics.actuals_for(parent)
        assert (leaf.rows_in, leaf.rows_out) == (5, 3)
        assert (top.rows_in, top.rows_out) == (3, 1)
        assert metrics.rows_scanned == 5
        # recorded as each operator finishes: children first
        assert list(metrics.operators) == [id(child), id(parent)]

    def test_charges_outside_any_operator_reach_only_the_totals(self):
        ctx = _context()
        ctx.charge_cpu(0.5, "test")
        ctx.charge_io(100.0, 2, 0.25)
        ctx.scanned(7, delta=True)
        ctx.hold("test", 64)
        metrics = ctx.metrics
        assert (metrics.cpu_seconds, metrics.io_bytes, metrics.io_accesses) == (0.5, 100.0, 2)
        assert (metrics.io_seconds, metrics.peak_memory_bytes) == (0.25, 64.0)
        assert (metrics.rows_scanned, metrics.delta_rows_scanned) == (7, 7)
        assert metrics.operators == {}
        # an operator that runs afterwards starts from nothing
        op = _Charging(before=0.2, rows=1)
        op.run(ctx)
        actuals = metrics.actuals_for(op)
        assert (actuals.cpu_seconds, actuals.io_seconds, actuals.io_accesses) == (0.2, 0.0, 0)
        assert (actuals.rows_in, actuals.reserved_bytes) == (0, 0.0)
        assert list(metrics.operators) == [id(op)]


class TestHostClock:
    """``host_seconds`` is the host time of an operator's own
    ``execute``: its clock pauses while a child runs."""

    def test_a_parent_does_not_pay_for_its_sleeping_child(self):
        child = _Charging(sleep=0.02, rows=1)
        parent = _Charging(rows=1, input=child)
        ctx = _context()
        parent.run(ctx)
        assert ctx.metrics.actuals_for(child).host_seconds >= 0.02
        assert ctx.metrics.actuals_for(parent).host_seconds < 0.02

    @pytest.mark.parametrize("qname", ["Q01", "Q03", "Q13"])
    def test_exclusive_times_fit_in_the_serial_wall(
        self, physical_dbs, environment, qname
    ):
        for pdb in physical_dbs.values():
            started = time.perf_counter()
            metrics = _run(pdb, environment, qname)
            wall = time.perf_counter() - started
            hosts = [a.host_seconds for a in metrics.operators.values()]
            assert hosts and min(hosts) >= 0.0
            assert sum(hosts) <= wall

    def test_process_workers_carry_host_seconds_home(self, bdcc_db, environment):
        metrics = _run(bdcc_db, environment, "Q06", workers=2, backend="process")
        assert metrics.backend == "process" and len(metrics.fragments) > 1
        assert all(a.host_seconds > 0.0 for a in metrics.operators.values())

    def test_repeats_add_up_and_equality_ignores_the_host(self):
        one = OperatorActuals("Scan", "Scan t", cpu_seconds=0.5, host_seconds=1.0)
        two = OperatorActuals("Scan", "Scan t", cpu_seconds=0.5, host_seconds=2.0)
        assert one == two
        assert one.plus(two).host_seconds == 3.0
        assert "host=1000.000ms" in one.summary()

    @pytest.mark.parametrize("workers", [1, 4])
    def test_charges_and_results_do_not_depend_on_the_host_clock(
        self, bdcc_db, environment, workers
    ):
        """Two runs of one query take different host times and charge
        bit-identically: the simulated clock never reads the host's."""
        rel_a, a = _run(bdcc_db, environment, "Q01", workers=workers, result=True)
        rel_b, b = _run(bdcc_db, environment, "Q01", workers=workers, result=True)
        assert rel_a.column_names == rel_b.column_names
        for name in rel_a.column_names:
            assert np.array_equal(rel_a.column(name), rel_b.column(name))
        for name in ("total_seconds", "makespan_seconds", "io_bytes", "peak_memory_bytes"):
            assert getattr(a, name) == getattr(b, name)
        assert list(a.operators.values()) == list(b.operators.values())


class TestMergeParallelMetrics:
    def _fragment_run(self, bdcc_db, environment):
        executor = Executor(
            bdcc_db, disk=environment.disk, costs=environment.cost_model,
            options=ExecutionOptions(workers=4, min_partition_rows=256),
        )
        pplan = executor.lower(_q6_plan())
        parallel = executor.parallel_plan(pplan)
        assert parallel.is_parallel
        results, fragment_metrics = SimulatedBackend().execute_fragments(
            parallel, environment.disk, environment.cost_model
        )
        return parallel, results, fragment_metrics

    def test_counters_sum(self, bdcc_db, environment):
        parallel, results, fragment_metrics = self._fragment_run(
            bdcc_db, environment
        )
        for index, metrics in fragment_metrics.items():
            metrics.counters["test.marker"] = 1.0
        _, merged = merge_parallel_metrics(
            parallel, results, fragment_metrics, environment.disk
        )
        assert merged.counters["test.marker"] == float(len(parallel.fragments))
        for key in {k for m in fragment_metrics.values() for k in m.counters}:
            expected = sum(
                m.counters.get(key, 0.0) for m in fragment_metrics.values()
            )
            assert merged.counters[key] == pytest.approx(expected)

    def test_tag_peaks_use_the_concurrent_peak_rule(self, bdcc_db, environment):
        parallel, results, fragment_metrics = self._fragment_run(
            bdcc_db, environment
        )
        _, merged = merge_parallel_metrics(
            parallel, results, fragment_metrics, environment.disk
        )
        # every merged tag peak is bounded by the sum of the fragment
        # peaks (concurrency can only lose overlap, never invent bytes)
        for tag, peak in merged.peak_memory_by_tag.items():
            if tag == "exchange":
                continue  # exchange buffers exist only after the merge
            total = sum(
                m.peak_memory_by_tag.get(tag, 0.0)
                for m in fragment_metrics.values()
            )
            biggest = max(
                m.peak_memory_by_tag.get(tag, 0.0)
                for m in fragment_metrics.values()
            )
            assert biggest <= peak <= total + 1e-9


class TestConcurrentPeak:
    def test_overlap_and_handoff(self):
        assert concurrent_peak([]) == 0.0
        assert concurrent_peak([(0.0, 1.0, 100.0), (2.0, 3.0, 50.0)]) == 100.0
        assert concurrent_peak([(0.0, 2.0, 100.0), (1.0, 3.0, 50.0)]) == 150.0
        # at equal timestamps the allocation applies before the release,
        # so a producer->consumer handoff counts as overlap
        assert concurrent_peak([(0.0, 1.0, 100.0), (1.0, 2.0, 50.0)]) == 150.0
        assert concurrent_peak([(0.0, 1.0, -5.0)]) == 0.0


class _FragmentMemoryChecker(QueryRunner):
    """A runner whose stages run their fragments on the simulated
    backend, checking every fragment's held memory against the holds
    recorded while it ran, before the merge."""

    def __init__(self, executor, holds):
        super().__init__(executor)
        self.holds = holds
        self.fragments = 0
        self.parallel_stages = 0

    def execute(self, plan):
        executor = self.executor
        fplan = executor.execution_plan(executor.lower(plan))
        self.parallel_stages += fplan.is_parallel
        results, per_fragment = SimulatedBackend().execute_fragments(
            fplan, executor.disk, executor.costs
        )
        for metrics in per_fragment.values():
            self.fragments += 1
            held = self.holds.pop(id(metrics), {})
            # a fragment holds everything until it ends: its peaks are sums
            assert metrics.peak_memory_by_tag == {
                tag: sum(values) for tag, values in held.items()
            }
            reserved = sum(a.reserved_bytes for a in metrics.operators.values())
            assert metrics.peak_memory_bytes == pytest.approx(reserved, rel=1e-12)
        assert not self.holds
        relation, metrics = merge_parallel_metrics(
            fplan, results, per_fragment, executor.disk
        )
        return QueryResult(relation, metrics)


class TestMemoryTags:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_fragment_peaks_are_sums_of_holds(
        self, physical_dbs, environment, monkeypatch, workers
    ):
        holds = {}
        hold = ExecutionContext.hold

        def recording_hold(ctx, tag, num_bytes):
            if num_bytes > 0:
                by_tag = holds.setdefault(id(ctx.metrics), {})
                by_tag.setdefault(tag, []).append(float(num_bytes))
            hold(ctx, tag, num_bytes)

        monkeypatch.setattr(ExecutionContext, "hold", recording_hold)
        options = ExecutionOptions(workers=workers, min_partition_rows=256)
        for pdb in physical_dbs.values():
            executor = Executor(
                pdb, disk=environment.disk, costs=environment.cost_model,
                options=options,
            )
            checker = _FragmentMemoryChecker(executor, holds)
            for query in QUERIES.values():
                query(checker)
            assert checker.fragments >= len(QUERIES)
            assert (checker.parallel_stages > 0) == (workers > 1)

    def test_real_queries_attribute_their_peak(self, bdcc_db, environment):
        metrics = _run(bdcc_db, environment, "Q01")
        assert metrics.peak_memory_by_tag
        assert max(metrics.peak_memory_by_tag.values()) <= metrics.peak_memory_bytes

    def test_explain_analyze_reports_tag_peaks(self, bdcc_db, environment):
        executor = Executor(
            bdcc_db, disk=environment.disk, costs=environment.cost_model
        )
        text = explain(executor, _q6_plan(), analyze=True)
        assert "memory by tag (per-tag peak)" in text
