"""The differential runner: normalization, reporting, and seeded sweeps.

The short sweep runs in tier-1 (marked ``fast``); the broader sweep is
marked ``workload`` and runs in its own CI job (deselected by default
via ``addopts``).
"""

import numpy as np
import pytest

from repro.execution.relation import Relation
from repro.planner.executor import ExecutionOptions, Executor
from repro.tpch.queries import QUERIES
from repro.tpch.runner import QueryRunner
from repro.workload.differential import (
    WorkloadReport,
    ablation_variants,
    column_tolerances,
    normalized_rows,
    reference_mismatch,
    rows_match,
    run_differential,
    twin_mismatch,
    worker_count_variants,
    worst_relative_error,
)
from repro.workload.generator import PlanGenerator
from repro.workload.reference import RefRelation


class TestNormalization:
    def test_column_order_is_name_order(self):
        rows = normalized_rows(
            {"b": np.array([1, 2]), "a": np.array([10.0, 20.0])}, ["b", "a"]
        )
        assert rows == [(10.0, 1), (20.0, 2)]

    def test_rows_sorted_as_multiset(self):
        first = normalized_rows({"x": np.array([3, 1, 2])}, ["x"])
        second = normalized_rows({"x": np.array([2, 3, 1])}, ["x"])
        assert first == second

    def test_negative_zero_and_nan(self):
        rows = normalized_rows({"x": np.array([-0.0, np.nan])}, ["x"])
        assert rows[1] == (0.0,)
        assert rows[0][0] < -1e300  # NaN mapped to a sortable sentinel

    def test_float_tolerance(self):
        a = [(1.0, "x"), (102012411.25,)]
        b = [(1.0 + 1e-9, "x"), (102012411.35,)]
        assert rows_match([a[0]], [b[0]])
        assert rows_match([a[1]], [b[1]])  # 1e-9 relative on 1e8
        assert not rows_match([(1.0,)], [(1.5,)])
        assert not rows_match([(1,)], [(2,)])
        assert not rows_match([(1.0,)], [(1.0,), (1.0,)])

    def test_int_float_equality(self):
        assert rows_match([(5,)], [(5.0,)])

    def test_per_dtype_tolerances(self):
        """float32 columns get the loose envelope whenever *either* side
        stored one; float64 keeps the tight default; non-floats compare
        exactly (None)."""
        tols = column_tolerances(
            ["a", "b", "c"],
            {"a": np.zeros(1, np.float64), "b": np.zeros(1, np.float32),
             "c": np.zeros(1, np.int64)},
            {"a": np.zeros(1, np.float32), "b": np.zeros(1, np.float64),
             "c": np.zeros(1, np.int64)},
        )
        assert tols[0] == tols[1]
        assert tols[0][0] > 2e-6  # loosened by the float32 side
        assert tols[2] is None
        # a 3e-5 relative gap: inside the float32 envelope, outside float64
        a, b = [(1.0,)], [(1.00003,)]
        assert rows_match(a, b, [tols[0]])
        assert not rows_match(a, b)

    def test_worst_relative_error(self):
        assert worst_relative_error([(1.0, "x")], [(1.0, "x")]) == 0.0
        got = worst_relative_error([(2.0, 7)], [(2.0 + 2e-7, 7)])
        assert got == pytest.approx(1e-7, rel=1e-3)


def _columns(**columns):
    return {name: np.asarray(values) for name, values in columns.items()}


#: (expected, got, same multiset?, same bit-for-bit?) — every way two
#: results can relate under the two contracts
VERDICT_CASES = {
    "identical": (
        _columns(k=[1, 2], x=[1.5, 2.5]), _columns(k=[1, 2], x=[1.5, 2.5]),
        True, True,
    ),
    "summation-order-noise": (
        _columns(k=[1, 2], x=[1.5, 2.5e8]),
        _columns(k=[1, 2], x=[1.5 * (1 + 1e-11), 2.5e8 * (1 - 1e-11)]),
        True, False,
    ),
    "one-value-outside-tolerance": (
        _columns(k=[1, 2], x=[1.5, 2.5]), _columns(k=[1, 2], x=[1.5, 2.5001]),
        False, False,
    ),
    "nan-and-negative-zero": (
        _columns(x=[np.nan, -0.0]), _columns(x=[np.nan, 0.0]), True, True,
    ),
    # a 3e-5 relative gap: inside the float32 envelope only
    "float32-column": (
        _columns(x=np.array([1.0], np.float32)), _columns(x=[1.00003]),
        True, False,
    ),
    "float64-same-gap": (
        _columns(x=[1.0]), _columns(x=[1.00003]), False, False,
    ),
    "column-name-mismatch": (
        _columns(x=[1.0]), _columns(y=[1.0]), False, False,
    ),
    "row-count-mismatch": (
        _columns(x=[1.0]), _columns(x=[1.0, 1.0]), False, False,
    ),
    "row-permutation": (
        _columns(k=[1, 2], x=[1.5, 2.5]), _columns(k=[2, 1], x=[2.5, 1.5]),
        True, False,
    ),
}


@pytest.mark.parametrize("case", VERDICT_CASES)
class TestVerdicts:
    """The two functions every driver judges results with."""

    def test_reference_mismatch(self, case):
        expected, got, same_multiset, _ = VERDICT_CASES[case]
        detail, worst = reference_mismatch(RefRelation(expected), Relation(got))
        assert (detail is None) == same_multiset, detail
        if case == "identical":
            assert worst == 0.0
        if case == "summation-order-noise":
            assert worst == pytest.approx(1e-11, rel=1e-3)

    def test_twin_mismatch(self, case):
        expected, got, same_multiset, same_bits = VERDICT_CASES[case]
        expected, got = Relation(expected), Relation(got)
        exact = twin_mismatch(expected, got, exact=True)
        assert (exact is None) == same_bits, exact
        multiset = twin_mismatch(expected, got, exact=False)
        assert (multiset is None) == same_multiset, multiset


def test_twin_mismatch_rejects_a_dtype_kind_change():
    """``1498`` and ``1498.0`` compare equal by value, so only the twin
    verdict can see an engine path that turns an integer column into
    floats (a two-phase max over a partition that filtered to nothing
    did) — in both of its modes; a width change within one kind is not
    a divergence, and the reference verdict stays value-only."""
    expected = Relation(_columns(k=[1, 2], mx=[1498, 7]))
    got = Relation(_columns(k=[1, 2], mx=[1498.0, 7.0]))
    for exact in (True, False):
        assert (
            twin_mismatch(expected, got, exact=exact)
            == "column 'mx': dtype int64 vs float64"
        )
    assert reference_mismatch(RefRelation(expected.columns), got)[0] is None
    narrow = Relation(_columns(x=np.array([1.0], np.float32)))
    assert twin_mismatch(narrow, Relation(_columns(x=[1.0])), exact=True) is None


class TestValidityVerdicts:
    """NULL is one value to every verdict: a mask hides the placeholder
    under it, and a missing mask is all valid (a gather adds all-true
    masks that a serial run lacks)."""

    def test_null_normalises_to_one_token_sorting_first(self):
        rows = normalized_rows(
            {"x": np.array([3.0, 7.0, 1.0]), "s": np.array(["b", "?", "a"])},
            ["x", "s"],
            {"s": np.array([True, False, True]), "x": np.array([True, False, True])},
        )
        assert [repr(row) for row in rows] == ["(NULL, NULL)", "('a', 1.0)", "('b', 3.0)"]
        # the two-argument call reads no validity
        assert normalized_rows({"x": np.array([3.0, 7.0])}, ["x"]) == [(3.0,), (7.0,)]

    def test_placeholders_under_null_do_not_matter(self):
        expected = Relation(_columns(k=[1, 2], x=[10.0, 5.0]), {"x": np.array([True, False])})
        got = Relation(_columns(k=[2, 1], x=[7.0, 10.0]), {"x": np.array([False, True])})
        assert twin_mismatch(expected, got, exact=False) is None
        reference = RefRelation(expected.columns, expected.valid)
        assert reference_mismatch(reference, got)[0] is None

    def test_a_missing_mask_is_all_valid(self):
        bare = Relation(_columns(x=[1.0, 2.0]))
        masked = Relation(_columns(x=[1.0, 2.0]), {"x": np.array([True, True])})
        for exact in (True, False):
            assert twin_mismatch(bare, masked, exact=exact) is None
            assert twin_mismatch(masked, bare, exact=exact) is None

    def test_null_against_a_value_is_a_divergence(self):
        bare = Relation(_columns(x=[1.0, 2.0]))
        masked = Relation(_columns(x=[1.0, 2.0]), {"x": np.array([True, False])})
        assert twin_mismatch(bare, masked, exact=True) == (
            "column 'x': row 1 is NULL on one side only (serial valid True)"
        )
        assert twin_mismatch(bare, masked, exact=False) is not None
        assert twin_mismatch(masked, bare, exact=False) is not None
        reference = RefRelation(masked.columns, masked.valid)
        assert reference_mismatch(reference, bare)[0] is not None


class TestOneContractFlag:
    """``reaggregates`` implies ``reorders`` (a partial aggregate's
    streams are gathered unordered), so ``not plan.reorders`` is the
    whole bit-for-bit-or-multiset dispatch."""

    def test_tpch_q1_at_four_workers(self, physical_dbs, environment):
        reaggregating = 0
        for pdb in physical_dbs.values():
            with Executor(
                pdb, disk=environment.disk, costs=environment.cost_model,
                options=ExecutionOptions(workers=4),
            ) as executor:
                runner = QueryRunner(executor)
                QUERIES["Q01"](runner)
                for pplan in runner.physical_plans:
                    plan = executor.execution_plan(pplan)
                    reaggregating += plan.reaggregates
                    assert not plan.reaggregates or plan.reorders
        assert reaggregating, "Q1 no longer pre-aggregates: the test is vacuous"

    def test_every_plan_of_a_seeded_sweep(self, physical_dbs, tpch_db):
        generator = PlanGenerator(tpch_db)
        reaggregating = 0
        for pdb in physical_dbs.values():
            for options in worker_count_variants([2, 4]).values():
                with Executor(pdb, options=options) as executor:
                    for index in range(40):
                        plan = executor.execution_plan(
                            executor.lower(generator.generate(0, index).plan)
                        )
                        reaggregating += plan.reaggregates
                        assert not plan.reaggregates or plan.reorders
        assert reaggregating, "no generated plan pre-aggregates: vacuous"


class TestVariants:
    def test_grid_covers_every_switch(self):
        variants = ablation_variants()
        assert set(variants) >= {
            "default", "no-pushdown", "no-propagation", "no-minmax",
            "no-sandwich", "no-merge", "baseline",
        }
        assert not variants["baseline"].enable_pushdown
        assert not variants["baseline"].enable_merge

    def test_default_only(self):
        assert list(ablation_variants(full=False)) == ["default"]

    def test_grid_sweeps_worker_counts(self):
        variants = ablation_variants()
        assert variants["workers-2"].workers == 2
        assert variants["workers-4"].workers == 4

    def test_worker_variants_name_the_count(self):
        variants = worker_count_variants([1, 2, 4])
        assert list(variants) == ["workers-1", "workers-2", "workers-4"]
        assert variants["workers-1"].workers == 1

    def test_grid_isolates_each_parallel_rewrite(self):
        """`workers-4-gatheragg` keeps co-partitioning but serialises
        aggregation; `workers-4-broadcast` turns both off, keeping the
        fully bit-identical parallel path in the sweep."""
        variants = ablation_variants()
        gatheragg = variants["workers-4-gatheragg"]
        assert gatheragg.workers == 4
        assert gatheragg.enable_copartition and not gatheragg.enable_partial_agg
        broadcast = variants["workers-4-broadcast"]
        assert not broadcast.enable_copartition
        assert not broadcast.enable_partial_agg


@pytest.mark.fast
class TestSmokeSweep:
    """A bounded seeded sweep inside tier-1: few queries, full grid."""

    @pytest.fixture(scope="class")
    def report(self, physical_dbs, environment) -> WorkloadReport:
        return run_differential(
            physical_dbs,
            seed=0,
            num_queries=6,
            disk=environment.disk,
            costs=environment.cost_model,
        )

    def test_no_divergences(self, report):
        assert report.ok, report.render()

    def test_every_scheme_and_variant_ran(self, report, physical_dbs):
        grid = len(physical_dbs) * len(ablation_variants())
        assert report.executions == 6 * grid

    def test_strategies_and_actuals_collected(self, report):
        assert report.strategies.get("Scan", 0) > 0
        assert "Scan" in report.operator_totals
        assert report.operator_totals["Scan"]["io_seconds"] > 0
        assert report.operator_totals["Scan"]["host_seconds"] > 0

    def test_render_mentions_outcome(self, report):
        text = report.render()
        assert "divergences=0" in text
        assert "host ms" in text
        assert text.endswith("PASS")


@pytest.mark.fast
class TestWorkerSweepSmoke:
    """A bounded worker-count sweep inside tier-1: parallel executions
    checked against the reference *and* bit-for-bit against serial."""

    def test_worker_counts_agree(self, physical_dbs, environment):
        variants = {"default": ablation_variants(full=False)["default"]}
        variants.update(worker_count_variants([1, 2, 4]))
        report = run_differential(
            physical_dbs,
            seed=3,
            num_queries=8,
            variants=variants,
            disk=environment.disk,
            costs=environment.cost_model,
        )
        assert report.ok, report.render()
        assert report.executions == 8 * len(physical_dbs) * 4

    def test_divergence_report_names_the_worker_count(
        self, physical_dbs, environment, monkeypatch
    ):
        # force the bit-for-bit comparison to fail: the report must name
        # the diverging worker count, not just "some variant differed"
        import repro.workload.differential as differential

        monkeypatch.setattr(
            differential, "bitwise_mismatch", lambda serial, got: "forced mismatch"
        )
        report = run_differential(
            {"bdcc": physical_dbs["bdcc"]},
            seed=0,
            num_queries=1,
            variants={
                "default": ablation_variants(full=False)["default"],
                **worker_count_variants([2]),
            },
            disk=environment.disk,
            costs=environment.cost_model,
        )
        assert not report.ok
        text = report.render()
        assert "variant=workers-2" in text
        assert "workers=2 diverges bit-for-bit" in text


@pytest.mark.workload
class TestSeededSweep:
    """The broader sweep: 50 queries x 3 schemes x the full grid."""

    def test_seed_zero_fifty_queries(self, physical_dbs, environment):
        report = run_differential(
            physical_dbs,
            seed=0,
            num_queries=50,
            disk=environment.disk,
            costs=environment.cost_model,
        )
        assert report.ok, report.render()
        # the sweep must actually exercise the interesting strategies
        assert report.strategies.get("SandwichJoin", 0) > 0
        assert report.strategies.get("MergeJoin", 0) > 0
        assert report.strategies.get("StreamAgg", 0) > 0

    def test_alternate_seed(self, physical_dbs, environment):
        report = run_differential(
            physical_dbs,
            seed=20260730,
            num_queries=25,
            disk=environment.disk,
            costs=environment.cost_model,
        )
        assert report.ok, report.render()
