"""EXPLAIN rendering: logical trees, physical trees, analyze mode."""

import pytest

from repro.execution.aggregate import AggSpec
from repro.execution.expressions import col
from repro.planner.executor import Executor
from repro.planner.explain import explain, format_physical_plan, format_plan
from repro.planner.logical import scan
from repro.tpch.dates import days


def _plan():
    return (
        scan("orders", predicate=col("o_orderdate").lt(days("1994-01-01")))
        .join(scan("lineitem"), on=[("o_orderkey", "l_orderkey")])
        .groupby(["o_orderpriority"], [AggSpec("n", "count")])
        .sort([("o_orderpriority", True)])
        .limit(5)
    )


class TestFormatPlan:
    def test_tree_structure(self):
        text = format_plan(_plan())
        lines = text.splitlines()
        assert lines[0].startswith("Limit 5")
        assert any("Join inner ON o_orderkey=l_orderkey" in l for l in lines)
        assert any("Scan orders WHERE ..." in l for l in lines)
        assert any("GroupBy [o_orderpriority] -> n=count" in l for l in lines)
        # children indented under parents
        join_depth = next(l for l in lines if "Join" in l).index("Join") // 2
        scan_depth = next(l for l in lines if "Scan orders" in l).index("Scan") // 2
        assert scan_depth == join_depth + 1

    def test_alias_and_sort_rendering(self):
        plan = scan("lineitem", alias="l2").sort([("l2.l_quantity", False)])
        text = format_plan(plan)
        assert "Scan lineitem as l2" in text
        assert "Sort [l2.l_quantity desc]" in text


class TestFormatPhysicalPlan:
    def test_skeleton_mirrors_tree(self, plain_db):
        pplan = Executor(plain_db).lower(_plan())
        text = format_physical_plan(pplan, verbose=False)
        lines = text.splitlines()
        assert lines[0].startswith("Limit 5")
        assert any(l.strip().startswith("HashJoin inner ON") for l in lines)
        assert any("Scan orders WHERE ..." in l for l in lines)
        # the skeleton carries no rationale brackets
        assert "[" not in text.replace("Sort [o_orderpriority]", "").replace(
            "HashAgg [o_orderpriority] -> n=count", ""
        )


class TestExplain:
    def test_bdcc_explain_mentions_strategies_without_running(
        self, bdcc_db, environment
    ):
        from repro.observe import REGISTRY

        executor = Executor(bdcc_db, disk=environment.disk, costs=environment.cost_model)
        executed = REGISTRY.get("queries_executed")
        text = explain(executor, _plan())
        assert "scheme: bdcc" in text
        assert "decisions:" in text
        assert "pushdown" in text
        # no execution happened: explain is lowering + rendering only
        assert "cost:" not in text
        assert REGISTRY.get("queries_executed") == executed

    def test_explain_analyze_runs_and_reports_costs(self, bdcc_db, environment):
        executor = Executor(bdcc_db, disk=environment.disk, costs=environment.cost_model)
        text = explain(executor, _plan(), analyze=True)
        assert "(actual " in text
        assert "cost:" in text and "simulated" in text


class TestPerOperatorActuals:
    def _run(self, pdb, environment):
        executor = Executor(pdb, disk=environment.disk, costs=environment.cost_model)
        pplan = executor.lower(_plan())
        result = executor.run(pplan)
        return executor, pplan, result

    def test_every_physical_node_annotated(self, bdcc_db, environment):
        executor = Executor(bdcc_db, disk=environment.disk, costs=environment.cost_model)
        num_ops = len(list(executor.lower(_plan()).operators()))
        text = explain(executor, _plan(), analyze=True)
        assert text.count("(actual ") == num_ops
        assert "rows=" in text and "io=" in text and "cpu=" in text and "mem=" in text

    def test_plain_explain_has_no_actuals(self, bdcc_db, environment):
        executor = Executor(bdcc_db, disk=environment.disk, costs=environment.cost_model)
        assert "(actual " not in explain(executor, _plan())

    def test_actuals_recorded_for_every_operator(self, plain_db, environment):
        _, pplan, result = self._run(plain_db, environment)
        for op in pplan.operators():
            assert result.metrics.actuals_for(op) is not None

    def test_exclusive_charges_sum_to_totals(self, bdcc_db, environment):
        _, pplan, result = self._run(bdcc_db, environment)
        metrics = result.metrics
        actuals = [metrics.actuals_for(op) for op in pplan.operators()]
        assert sum(a.io_seconds for a in actuals) == pytest.approx(metrics.io_seconds)
        assert sum(a.cpu_seconds for a in actuals) == pytest.approx(metrics.cpu_seconds)
        assert sum(a.io_bytes for a in actuals) == pytest.approx(metrics.io_bytes)

    def test_rows_flow(self, plain_db, environment):
        _, pplan, result = self._run(plain_db, environment)
        root = pplan.root
        root_actuals = result.metrics.actuals_for(root)
        assert root_actuals.rows_out == result.metrics.rows_produced
        # a parent's rows_in is the sum of its children's rows_out
        for op in pplan.operators():
            children = op.children()
            if not children:
                continue
            parent = result.metrics.actuals_for(op)
            assert parent.rows_in == sum(
                result.metrics.actuals_for(c).rows_out for c in children
            )

    def test_io_attributed_to_scans_not_joins(self, plain_db, environment):
        from repro.execution.operators import PhysicalScan

        _, pplan, result = self._run(plain_db, environment)
        for op in pplan.operators():
            actuals = result.metrics.actuals_for(op)
            if isinstance(op, PhysicalScan):
                assert actuals.io_seconds > 0
            elif op.kind == "HashJoin":
                assert actuals.io_seconds == 0  # the scans' IO is the scans'
                assert actuals.reserved_bytes > 0  # build side held

    def test_runner_merges_stage_actuals(self, bdcc_db, environment):
        from repro.tpch import queries
        from repro.tpch.runner import QueryRunner

        executor = Executor(bdcc_db, disk=environment.disk, costs=environment.cost_model)
        runner = QueryRunner(executor)
        queries.QUERIES["Q11"](runner)  # decorrelates into two stages
        assert len(runner.physical_plans) > 1
        expected = sum(
            len(list(p.operators())) for p in runner.physical_plans
        )
        assert len(runner.metrics.operators) == expected

    def test_plain_explain_lists_strategies(self, plain_db, environment):
        executor = Executor(plain_db, disk=environment.disk)
        text = explain(executor, _plan())
        assert "scheme: plain" in text
        assert "HashJoin" in text
