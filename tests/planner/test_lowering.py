"""The physical-plan layer: golden plans, lowering purity, ablations.

Golden tests pin the *skeleton* of the lowered plans (operator kinds —
which ARE the strategy decisions — plus join/grouping keys) for the
paper's showcase queries under all three schemes, without executing
anything.  Rationale assertions check the strategy reasoning is carried
on the nodes.
"""

import dataclasses
import textwrap

import pytest

from repro.planner.executor import ExecutionOptions, Executor
from repro.planner.explain import format_physical_plan
from repro.planner.lowering import lower
from repro.execution.operators import PhysicalScan, walk_physical
from repro.tpch import queries


class _PlanGrabber:
    """Stands in for a QueryRunner: lowers each stage instead of running
    it — golden plans are produced without any execution."""

    def __init__(self, executor):
        self.executor = executor
        self.plans = []

    def execute(self, plan):
        self.plans.append(self.executor.lower(plan))
        return None


def _lowered(pdb, qname):
    grabber = _PlanGrabber(Executor(pdb))
    queries.QUERIES[qname](grabber)
    return grabber.plans[-1]


def _skeleton(pplan) -> str:
    return format_physical_plan(pplan, verbose=False)


_Q01_SKELETON = """
    Sort [l_returnflag, l_linestatus]
      HashAgg [l_returnflag, l_linestatus] -> sum_qty=sum, sum_base_price=sum, sum_disc_price=sum, sum_charge=sum, avg_qty=avg, avg_price=avg, avg_disc=avg, count_order=count
        Scan lineitem WHERE ...
    """

_Q06_SKELETON = """
    HashAgg [<scalar>] -> revenue=sum
      Scan lineitem WHERE ...
    """

GOLDEN = {
    # Q1: the heavy-aggregation scan no indexing scheme accelerates —
    # the plan skeleton is identical under all three schemes (grouping
    # keys are plain columns, so neither PK order nor BDCC helps)
    ("Q01", "plain"): _Q01_SKELETON,
    ("Q01", "pk"): _Q01_SKELETON,
    ("Q01", "bdcc"): _Q01_SKELETON,
    # Q6: pure scan + scalar aggregate; schemes differ only in scan
    # pruning (zone maps / pushdown), which the skeleton hides and the
    # rationale tests below pin
    ("Q06", "plain"): _Q06_SKELETON,
    ("Q06", "pk"): _Q06_SKELETON,
    ("Q06", "bdcc"): _Q06_SKELETON,
    ("Q03", "plain"): """
        Limit 10
          Sort [revenue desc, o_orderdate]
            HashAgg [l_orderkey, o_orderdate, o_shippriority] -> revenue=sum
              HashJoin inner ON o_orderkey=l_orderkey
                HashJoin inner ON c_custkey=o_custkey
                  Scan customer WHERE ...
                  Scan orders WHERE ...
                Scan lineitem WHERE ...
        """,
    ("Q03", "pk"): """
        Limit 10
          Sort [revenue desc, o_orderdate]
            HashAgg [l_orderkey, o_orderdate, o_shippriority] -> revenue=sum
              MergeJoin inner ON o_orderkey=l_orderkey
                HashJoin inner ON c_custkey=o_custkey
                  Scan customer WHERE ...
                  Scan orders WHERE ...
                Scan lineitem WHERE ...
        """,
    ("Q03", "bdcc"): """
        Limit 10
          Sort [revenue desc, o_orderdate]
            SandwichAgg [l_orderkey, o_orderdate, o_shippriority] -> revenue=sum
              SandwichJoin inner ON o_orderkey=l_orderkey
                SandwichJoin inner ON c_custkey=o_custkey
                  Scan customer WHERE ...
                  Scan orders WHERE ...
                Scan lineitem WHERE ...
        """,
    ("Q13", "plain"): """
        Sort [custdist desc, c_count desc]
          HashAgg [c_count] -> custdist=count
            HashAgg [c_custkey] -> c_count=count
              HashJoin left ON c_custkey=o_custkey
                Scan customer
                Scan orders WHERE ...
        """,
    ("Q13", "pk"): """
        Sort [custdist desc, c_count desc]
          HashAgg [c_count] -> custdist=count
            StreamAgg [c_custkey] -> c_count=count
              HashJoin left ON c_custkey=o_custkey
                Scan customer
                Scan orders WHERE ...
        """,
    ("Q13", "bdcc"): """
        Sort [custdist desc, c_count desc]
          HashAgg [c_count] -> custdist=count
            SandwichAgg [c_custkey] -> c_count=count
              SandwichJoin left ON c_custkey=o_custkey
                Scan customer
                Scan orders WHERE ...
        """,
    ("Q18", "plain"): """
        Limit 100
          Sort [o_totalprice desc, o_orderdate]
            HashAgg [c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice] -> sum_quantity=sum
              HashJoin inner ON o_orderkey=l_orderkey
                HashJoin semi ON o_orderkey=l3.l_orderkey
                  HashJoin inner ON c_custkey=o_custkey
                    Scan customer
                    Scan orders
                  Filter
                    HashAgg [l3.l_orderkey] -> sum_qty=sum
                      Scan lineitem as l3
                Scan lineitem
        """,
    ("Q18", "pk"): """
        Limit 100
          Sort [o_totalprice desc, o_orderdate]
            StreamAgg [c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice] -> sum_quantity=sum
              MergeJoin inner ON o_orderkey=l_orderkey
                MergeJoin semi ON o_orderkey=l3.l_orderkey
                  HashJoin inner ON c_custkey=o_custkey
                    Scan customer
                    Scan orders
                  Filter
                    StreamAgg [l3.l_orderkey] -> sum_qty=sum
                      Scan lineitem as l3
                Scan lineitem
        """,
    ("Q18", "bdcc"): """
        Limit 100
          Sort [o_totalprice desc, o_orderdate]
            SandwichAgg [c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice] -> sum_quantity=sum
              SandwichJoin inner ON o_orderkey=l_orderkey
                SandwichJoin semi ON o_orderkey=l3.l_orderkey
                  SandwichJoin inner ON c_custkey=o_custkey
                    Scan customer
                    Scan orders
                  Filter
                    SandwichAgg [l3.l_orderkey] -> sum_qty=sum
                      Scan lineitem as l3
                Scan lineitem
        """,
    # Q21: the multi-join case — a five-way join with self-joins and
    # residual semi/anti conditions; PK earns one merge join on the
    # L1/ORDERS key chain, BDCC sandwiches the entire join tower
    ("Q21", "plain"): """
        Limit 100
          Sort [numwait desc, s_name]
            HashAgg [s_name] -> numwait=count
              HashJoin anti ON l1.l_orderkey=l3.l_orderkey + residual
                HashJoin semi ON l1.l_orderkey=l2.l_orderkey + residual
                  HashJoin inner ON s_nationkey=n_nationkey
                    HashJoin inner ON l1.l_orderkey=o_orderkey
                      HashJoin inner ON s_suppkey=l1.l_suppkey
                        Scan supplier
                        Scan lineitem as l1 WHERE ...
                      Scan orders WHERE ...
                    Scan nation WHERE ...
                  Scan lineitem as l2
                Scan lineitem as l3 WHERE ...
        """,
    ("Q21", "pk"): """
        Limit 100
          Sort [numwait desc, s_name]
            HashAgg [s_name] -> numwait=count
              HashJoin anti ON l1.l_orderkey=l3.l_orderkey + residual
                HashJoin semi ON l1.l_orderkey=l2.l_orderkey + residual
                  HashJoin inner ON s_nationkey=n_nationkey
                    MergeJoin inner ON l1.l_orderkey=o_orderkey
                      HashJoin inner ON s_suppkey=l1.l_suppkey
                        Scan supplier
                        Scan lineitem as l1 WHERE ...
                      Scan orders WHERE ...
                    Scan nation WHERE ...
                  Scan lineitem as l2
                Scan lineitem as l3 WHERE ...
        """,
    ("Q21", "bdcc"): """
        Limit 100
          Sort [numwait desc, s_name]
            HashAgg [s_name] -> numwait=count
              SandwichJoin anti ON l1.l_orderkey=l3.l_orderkey + residual
                SandwichJoin semi ON l1.l_orderkey=l2.l_orderkey + residual
                  SandwichJoin inner ON s_nationkey=n_nationkey
                    SandwichJoin inner ON l1.l_orderkey=o_orderkey
                      SandwichJoin inner ON s_suppkey=l1.l_suppkey
                        Scan supplier
                        Scan lineitem as l1 WHERE ...
                      Scan orders WHERE ...
                    Scan nation WHERE ...
                  Scan lineitem as l2
                Scan lineitem as l3 WHERE ...
        """,
}


class TestGoldenPlans:
    """The paper's strategy-selection story, pinned per scheme: plain
    hashes everything, PK earns merge joins and streaming aggregates,
    BDCC sandwiches joins and aggregations."""

    @pytest.mark.parametrize(
        "qname,scheme", sorted(GOLDEN), ids=lambda v: v if isinstance(v, str) else None
    )
    def test_skeleton(self, qname, scheme, physical_dbs):
        pplan = _lowered(physical_dbs[scheme], qname)
        expected = textwrap.dedent(GOLDEN[(qname, scheme)]).strip()
        assert _skeleton(pplan) == expected

    def test_bdcc_rationales(self, bdcc_db):
        pplan = _lowered(bdcc_db, "Q03")
        text = format_physical_plan(pplan, verbose=True)
        assert "pushdown" in text            # scan group pruning resolved
        assert "co-clustered via" in text    # sandwich join reasoning
        assert "keys determine" in text      # sandwich aggregation reasoning

    def test_pk_rationales(self, pk_db):
        pplan = _lowered(pk_db, "Q18")
        text = format_physical_plan(pplan, verbose=True)
        assert "both inputs ordered on the join keys" in text
        assert "input ordered on (a determinant of) the keys" in text

    def test_q06_bdcc_scan_pruning_rationale(self, bdcc_db):
        # Q6's whole BDCC story is scan pruning; the skeleton is shared
        # with plain/pk, the zone-map decision shows in the rationale
        pplan = _lowered(bdcc_db, "Q06")
        text = format_physical_plan(pplan, verbose=True)
        assert "minmax" in text


class TestLoweringPurity:
    def test_same_plan_twice_equal_physical_plans(self, bdcc_db):
        grabber = _PlanGrabber(Executor(bdcc_db))
        queries.QUERIES["Q03"](grabber)
        first = grabber.plans[-1]
        again = lower(bdcc_db, _last_logical_plan(bdcc_db, "Q03"))
        assert format_physical_plan(first, verbose=True) == format_physical_plan(
            again, verbose=True
        )

    def test_lowering_runs_nothing(self, bdcc_db):
        from repro.observe import REGISTRY

        executed = REGISTRY.get("queries_executed")
        grabber = _PlanGrabber(Executor(bdcc_db))
        queries.QUERIES["Q18"](grabber)
        assert grabber.plans
        assert REGISTRY.get("queries_executed") == executed

    def test_plan_cache_returns_same_object(self, plain_db):
        from repro.planner.logical import scan

        executor = Executor(plain_db)
        plan = scan("nation")
        assert executor.lower(plan) is executor.lower(plan)

    def test_lower_then_run_matches_direct_execute(self, bdcc_db, environment):
        from repro.tpch.runner import QueryRunner

        executor = Executor(bdcc_db, disk=environment.disk)
        runner = QueryRunner(executor)
        result = queries.QUERIES["Q03"](runner)
        rerun = executor.run(runner.physical_plans[-1])
        assert result.rows == rerun.rows


def _last_logical_plan(pdb, qname):
    """Re-build the query's logical plan by capturing what it submits."""

    class _Logical:
        def __init__(self):
            self.plans = []

        def execute(self, plan):
            self.plans.append(plan)
            return None

    capture = _Logical()
    queries.QUERIES[qname](capture)
    return capture.plans[-1]


class TestAblationSwitchesAtLowering:
    """Feature switches change the emitted plan, not operator behaviour."""

    def test_merge_disabled(self, pk_db):
        executor = Executor(pk_db, options=ExecutionOptions(enable_merge=False))
        grabber = _PlanGrabber(executor)
        queries.QUERIES["Q18"](grabber)
        ops = list(walk_physical(grabber.plans[-1].root))
        assert not any(op.kind == "MergeJoin" for op in ops)

    def test_sandwich_disabled(self, bdcc_db):
        executor = Executor(bdcc_db, options=ExecutionOptions(enable_sandwich=False))
        grabber = _PlanGrabber(executor)
        queries.QUERIES["Q03"](grabber)
        ops = list(walk_physical(grabber.plans[-1].root))
        assert not any(op.kind in ("SandwichJoin", "SandwichAgg") for op in ops)
        scans = [op for op in ops if isinstance(op, PhysicalScan)]
        assert all(not s.sandwich_uses for s in scans)

    def test_pushdown_disabled(self, bdcc_db):
        executor = Executor(bdcc_db, options=ExecutionOptions(enable_pushdown=False))
        grabber = _PlanGrabber(executor)
        queries.QUERIES["Q03"](grabber)
        scans = [
            op for op in walk_physical(grabber.plans[-1].root)
            if isinstance(op, PhysicalScan)
        ]
        assert all(not s.restrictions for s in scans)

    def test_minmax_disabled(self, bdcc_db):
        executor = Executor(bdcc_db, options=ExecutionOptions(enable_minmax=False))
        grabber = _PlanGrabber(executor)
        queries.QUERIES["Q06"](grabber)
        scans = [
            op for op in walk_physical(grabber.plans[-1].root)
            if isinstance(op, PhysicalScan)
        ]
        assert all(not s.minmax_ranges for s in scans)

    def test_different_options_do_not_share_cache(self, pk_db):
        from repro.planner.logical import scan

        executor = Executor(pk_db)
        plan = scan("orders").join(scan("lineitem"), on=[("o_orderkey", "l_orderkey")])
        with_merge = executor.lower(plan)
        other = Executor(pk_db, options=dataclasses.replace(executor.options, enable_merge=False))
        without_merge = other.lower(plan)
        assert any(op.kind == "MergeJoin" for op in with_merge.operators())
        assert not any(op.kind == "MergeJoin" for op in without_merge.operators())
        assert executor.lower(plan) is with_merge


class TestFrozenOptions:
    """An executor's options never change, so its plan cache keys on the
    plan and the update epoch alone: other options are another executor,
    which lowers afresh."""

    def test_flipping_each_field_needs_a_new_executor(self, bdcc_db):
        from repro.planner.logical import scan

        executor = Executor(bdcc_db)
        plan = scan("orders").join(scan("lineitem"), on=[("o_orderkey", "l_orderkey")])
        baseline = executor.lower(plan)
        for spec in dataclasses.fields(ExecutionOptions):
            default = getattr(executor.options, spec.name)
            if isinstance(default, bool):
                flipped = not default
            elif isinstance(default, str):
                flipped = default + "-flipped"
            else:
                flipped = default + 1
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(executor.options, spec.name, flipped)
            assert executor.lower(plan) is baseline, spec.name
            options = dataclasses.replace(executor.options, **{spec.name: flipped})
            assert Executor(bdcc_db, options=options).lower(plan) is not baseline, spec.name

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_are_refused(self, workers):
        with pytest.raises(ValueError, match="workers"):
            ExecutionOptions(workers=workers)


class TestProjectCarry:
    """``PhysicalProject.carry`` is the one stream fact the run time takes
    from lowering: the hidden group columns of the uses the input still
    carries.  A ``__grp__`` name-prefix rule would forward more — a
    null-extended left-join side's group columns stay in the batch after
    lowering dropped their uses — and move ``data_bytes()`` with it."""

    PLANS = 60

    def _projects(self, pdb, tpch_db, **options):
        from repro.execution.operators import PhysicalProject
        from repro.workload.generator import PlanGenerator

        generator = PlanGenerator(tpch_db)
        for index in range(self.PLANS):
            pplan = lower(pdb, generator.generate(0, index).plan, ExecutionOptions(**options))
            for op in walk_physical(pplan.root):
                if isinstance(op, PhysicalProject):
                    yield op

    def test_forwards_exactly_carry_above_a_left_join(self, bdcc_db, tpch_db, environment):
        from repro.execution.metrics import ExecutionMetrics
        from repro.execution.operators import ExecutionContext

        def hidden(rel):
            return {name for name in rel.columns if name.startswith("__grp__")}

        lingering = 0
        for project in self._projects(bdcc_db, tpch_db):
            if not any(
                getattr(op, "how", None) == "left" for op in walk_physical(project.input)
            ):
                continue
            ctx = ExecutionContext(environment.disk, environment.cost_model, ExecutionMetrics())
            fed = project.input.run(ctx)
            out = project.run(ctx)
            assert hidden(out) == set(project.carry)
            assert set(project.carry) <= hidden(fed)
            lingering += bool(hidden(fed) - set(project.carry))
        # the case that tells carry from a name-prefix rule must occur
        assert lingering >= 2

    def test_empty_without_carried_uses(self, plain_db, pk_db, bdcc_db, tpch_db):
        assert any(p.carry for p in self._projects(bdcc_db, tpch_db))
        for pdb, options in (
            (plain_db, {}), (pk_db, {}), (bdcc_db, {"enable_sandwich": False}),
        ):
            projects = list(self._projects(pdb, tpch_db, **options))
            assert projects and all(p.carry == () for p in projects)
