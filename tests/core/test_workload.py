"""Workload-aware dimension-use pruning (future-work extension)."""

import pytest

from repro.core.advisor import SchemaAdvisor
from repro.core.workload import WorkloadAnalyzer, prune_design
from repro.execution.aggregate import AggSpec
from repro.execution.expressions import col
from repro.planner.logical import scan
from repro.tpch.dates import days


@pytest.fixture(scope="module")
def design(tpch_db):
    return SchemaAdvisor(tpch_db.schema).design(tpch_db)


def _date_workload():
    """Queries that only ever exploit D_DATE on LINEITEM."""
    q_date = (
        scan("orders", predicate=col("o_orderdate").lt(days("1994-01-01")))
        .join(scan("lineitem"), on=[("o_orderkey", "l_orderkey")])
        .groupby([], [AggSpec("n", "count")])
    )
    return [q_date]


def _part_workload():
    q_part = (
        scan("part", predicate=col("p_partkey").lt(50))
        .join(scan("lineitem"), on=[("p_partkey", "l_partkey")])
        .groupby([], [AggSpec("n", "count")])
    )
    return [q_part]


class TestScoring:
    def test_date_workload_scores_date_use(self, tpch_db, design):
        analyzer = WorkloadAnalyzer(tpch_db.schema)
        scores = analyzer.score(design, _date_workload())
        date_use = scores[("lineitem", "D_DATE", ("FK_L_O",))]
        part_use = scores[("lineitem", "D_PART", ("FK_L_P",))]
        assert date_use.total > part_use.total
        assert date_use.pushdown >= 1 and date_use.sandwich >= 1

    def test_part_workload_scores_part_use(self, tpch_db, design):
        analyzer = WorkloadAnalyzer(tpch_db.schema)
        scores = analyzer.score(design, _part_workload())
        assert scores[("lineitem", "D_PART", ("FK_L_P",))].total > 0
        assert scores[("lineitem", "D_DATE", ("FK_L_O",))].sandwich == 0

    def test_aggregation_benefit(self, tpch_db, design):
        q = scan("lineitem").groupby(
            ["l_orderkey"], [AggSpec("q", "sum", col("l_quantity"))]
        )
        scores = WorkloadAnalyzer(tpch_db.schema).score(design, [q])
        assert scores[("lineitem", "D_DATE", ("FK_L_O",))].aggregation == 1
        assert scores[("lineitem", "D_PART", ("FK_L_P",))].aggregation == 0

    def test_group_key_credits_only_the_scan_that_owns_it(self, tpch_db, design):
        # two NATION scans; the group key is the unprefixed one's column,
        # so the prefixed ``nation2`` scan's primary key is not covered
        q = (
            scan("supplier")
            .join(scan("nation"), on=[("s_nationkey", "n_nationkey")])
            .join(scan("customer"), on=[("s_nationkey", "c_nationkey")])
            .join(scan("nation", alias="nation2"),
                  on=[("c_nationkey", "nation2.n_nationkey")])
            .groupby(["n_nationkey"], [AggSpec("n", "count")])
        )
        scores = WorkloadAnalyzer(tpch_db.schema).score(design, [q])
        assert scores[("nation", "D_NATION", ())].aggregation == 1
        assert scores[("supplier", "D_NATION", ("FK_S_N",))].sandwich == 1
        assert scores[("customer", "D_NATION", ("FK_C_N",))].sandwich == 1

    def test_multi_stage_workload_accumulates(self, tpch_db, design):
        analyzer = WorkloadAnalyzer(tpch_db.schema)
        scores = analyzer.score(design, _date_workload() * 3)
        assert scores[("lineitem", "D_DATE", ("FK_L_O",))].pushdown == 3


class TestPruning:
    def test_keeps_highest_impact_uses(self, tpch_db, design):
        analyzer = WorkloadAnalyzer(tpch_db.schema)
        scores = analyzer.score(design, _date_workload())
        pruned = prune_design(design, scores, max_uses_per_table=1)
        lineitem = pruned.uses_for("lineitem")
        assert len(lineitem) == 1
        assert lineitem[0].dimension.name == "D_DATE"

    def test_small_tables_untouched(self, tpch_db, design):
        analyzer = WorkloadAnalyzer(tpch_db.schema)
        scores = analyzer.score(design, _date_workload())
        pruned = prune_design(design, scores, max_uses_per_table=2)
        assert [u.dimension.name for u in pruned.uses_for("customer")] == ["D_NATION"]
        assert len(pruned.uses_for("orders")) == 2

    def test_pruned_design_builds_and_answers_queries(self, tpch_db, environment, design):
        from repro.core.advisor import AdvisorConfig
        from repro.planner.executor import Executor
        from repro.schemes.bdcc import BDCCScheme
        from repro.tpch import queries
        from repro.tpch.runner import run_query
        from repro.schemes.plain import PlainScheme

        analyzer = WorkloadAnalyzer(tpch_db.schema)
        scores = analyzer.score(design, _date_workload())

        class PrunedScheme(BDCCScheme):
            def build(self, db):
                advisor = SchemaAdvisor(db.schema, self.advisor_config)
                self.design = prune_design(advisor.design(db), scores, 2)
                self._built = advisor.build(db, self.design)
                from repro.schemes.base import PhysicalScheme
                return PhysicalScheme.build(self, db)

        scheme = PrunedScheme(
            advisor_config=AdvisorConfig(build=environment.build_config),
            page_model=environment.page_model,
        )
        pruned_pdb = scheme.build(tpch_db)
        assert len(pruned_pdb.bdcc_tables()["lineitem"].uses) == 2

        plain_pdb = PlainScheme(page_model=environment.page_model).build(tpch_db)
        for qname in ("Q03", "Q06"):
            a, _ = run_query(pruned_pdb, queries.QUERIES[qname], disk=environment.disk)
            b, _ = run_query(plain_pdb, queries.QUERIES[qname], disk=environment.disk)
            rows_a, rows_b = sorted(a.rows), sorted(b.rows)
            assert len(rows_a) == len(rows_b)
            for ra, rb in zip(rows_a, rows_b):
                for va, vb in zip(ra, rb):
                    if isinstance(va, float):
                        assert va == pytest.approx(vb, rel=1e-9)
                    else:
                        assert va == vb

    def test_rejects_zero_cap(self, tpch_db, design):
        with pytest.raises(ValueError):
            prune_design(design, {}, 0)
