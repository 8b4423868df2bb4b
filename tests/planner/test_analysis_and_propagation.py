"""Plan analysis (owners, key covers, FK edges, demands) and selection propagation."""

import numpy as np
import pytest

from repro.execution.aggregate import AggSpec
from repro.execution.expressions import col
from repro.planner.analysis import analyse_plan
from repro.planner.executor import ExecutionOptions, Executor
from repro.planner.logical import scan, walk
from repro.planner.predicates import column_ranges
from repro.planner.propagation import compute_restrictions
from repro.tpch import queries
from repro.tpch.dates import days


class TestPredicateRanges:
    def test_between(self):
        r = column_ranges(col("x").between(3, 9))
        assert r == {"x": (3, 9)}

    def test_conjunction_merges(self):
        r = column_ranges(col("x").ge(1) & col("x").lt(10) & col("y").eq(5))
        assert r["x"] == (1, 10)
        assert r["y"] == (5, 5)

    def test_reversed_comparison(self):
        from repro.execution.expressions import Cmp, Const
        r = column_ranges(Cmp("<", Const(3), col("x")))
        assert r["x"] == (3, None)

    def test_disjunction_ignored(self):
        assert column_ranges(col("x").eq(1) | col("x").eq(2)) == {}

    def test_none(self):
        assert column_ranges(None) == {}


class TestPlanAnalysis:
    def test_tpch_q3_edges(self, tpch_db):
        plan = (
            scan("customer", predicate=col("c_mktsegment").eq("BUILDING"))
            .join(scan("orders"), on=[("c_custkey", "o_custkey")])
            .join(scan("lineitem"), on=[("o_orderkey", "l_orderkey")])
        )
        analysis = analyse_plan(plan.node, tpch_db.schema)
        edges = {(e.child_alias, e.fk_name, e.parent_alias) for e in analysis.edges}
        assert ("orders", "FK_O_C", "customer") in edges
        assert ("lineitem", "FK_L_O", "orders") in edges
        # each join knows the edge it follows
        top = analysis.join_edges[id(plan.node)]
        assert (top.child_alias, top.fk_name, top.child_is_left) == ("lineitem", "FK_L_O", False)

    def test_demands_only_referenced_columns(self, tpch_db):
        plan = (
            scan("lineitem", predicate=col("l_shipdate").gt(0))
            .groupby([], [{}])
        )
        # build manually to use AggSpec
        from repro.execution.aggregate import AggSpec
        plan = scan("lineitem", predicate=col("l_shipdate").gt(0)).groupby(
            [], [AggSpec("s", "sum", col("l_quantity"))]
        )
        analysis = analyse_plan(plan.node, tpch_db.schema)
        assert analysis.demands["lineitem"] == {"l_shipdate", "l_quantity"}

    def test_duplicate_alias_rejected(self, tpch_db):
        plan = scan("nation").join(scan("nation"), on=[("n_nationkey", "n_nationkey")])
        with pytest.raises(ValueError):
            analyse_plan(plan.node, tpch_db.schema)

    def test_filters_child_semantics(self, tpch_db):
        plan = (
            scan("customer")
            .join(scan("orders"), on=[("c_custkey", "o_custkey")], how="left")
        )
        analysis = analyse_plan(plan.node, tpch_db.schema)
        edge = analysis.edges[0]
        # orders is the child on the non-preserved side -> restrictable
        assert edge.child_alias == "orders" and edge.filters_child()


def _owners(plan, schema):
    return analyse_plan(plan.node, schema).owners[id(plan.node)]


class TestOwners:
    def test_renamed_projection_column_has_no_owner(self, tpch_db):
        plan = scan("orders").project(key=col("o_orderkey"), o_custkey=col("o_custkey"))
        assert _owners(plan, tpch_db.schema) == {"o_custkey": "orders"}

    @pytest.mark.parametrize("how", ["semi", "anti"])
    def test_semi_and_anti_joins_keep_only_the_left_side(self, tpch_db, how):
        plan = scan("customer").join(scan("orders"), on=[("c_custkey", "o_custkey")], how=how)
        owners = _owners(plan, tpch_db.schema)
        assert owners["c_custkey"] == "customer"
        assert set(owners.values()) == {"customer"}

    def test_left_join_keeps_the_right_side(self, tpch_db):
        plan = scan("customer").join(scan("orders"), on=[("c_custkey", "o_custkey")], how="left")
        owners = _owners(plan, tpch_db.schema)
        assert owners["c_custkey"] == "customer"
        assert owners["o_orderkey"] == "orders"

    def test_groupby_keeps_only_its_keys(self, tpch_db):
        plan = scan("orders").groupby(["o_custkey"], [AggSpec("n", "count")])
        assert _owners(plan, tpch_db.schema) == {"o_custkey": "orders"}

    def test_every_node_has_a_map(self, tpch_db):
        plan = (
            scan("customer")
            .join(scan("orders"), on=[("c_custkey", "o_custkey")])
            .filter(col("o_totalprice").gt(0))
        )
        analysis = analyse_plan(plan.node, tpch_db.schema)
        assert set(analysis.owners) == {id(n) for n in walk(plan.node)}


class TestCovers:
    def _covers(self, plan, columns, schema):
        return analyse_plan(plan.node, schema).covers(plan.node, columns)

    def test_primary_key(self, tpch_db):
        (cover,) = self._covers(scan("orders"), ["o_orderkey", "o_totalprice"], tpch_db.schema)
        assert (cover.alias, cover.table) == ("orders", "orders")
        assert cover.pk == ("o_orderkey",)
        assert cover.fks == ()

    def test_single_column_foreign_key(self, tpch_db):
        (cover,) = self._covers(scan("orders"), ["o_custkey"], tpch_db.schema)
        assert cover.pk == ()
        assert [fk.name for fk in cover.fks] == ["FK_O_C"]

    def test_composite_foreign_key_to_partsupp(self, tpch_db):
        plan = scan("lineitem", alias="li")
        (cover,) = self._covers(plan, ["li.l_partkey", "li.l_suppkey"], tpch_db.schema)
        assert cover.columns == {"l_partkey": "li.l_partkey", "l_suppkey": "li.l_suppkey"}
        assert [fk.name for fk in cover.fks] == ["FK_L_P", "FK_L_S", "FK_L_PS"]
        (half,) = self._covers(plan, ["li.l_partkey"], tpch_db.schema)
        assert [fk.name for fk in half.fks] == ["FK_L_P"]

    def test_nothing_for_a_renamed_key(self, tpch_db):
        plan = scan("orders").project(key=col("o_orderkey"))
        assert self._covers(plan, ["key"], tpch_db.schema) == []

    def test_one_cover_per_owning_scan_in_column_order(self, tpch_db):
        plan = scan("customer").join(scan("orders"), on=[("c_custkey", "o_custkey")])
        covers = self._covers(plan, ["o_orderkey", "c_custkey", "o_custkey"], tpch_db.schema)
        assert [c.alias for c in covers] == ["orders", "customer"]
        assert covers[0].pk == ("o_orderkey",)
        assert [fk.name for fk in covers[0].fks] == ["FK_O_C"]
        assert covers[1].pk == ("c_custkey",)


class TestParents:
    @pytest.mark.parametrize("how", ["left", "anti"])
    def test_filtering_stops_at_a_preserved_child(self, tpch_db, how):
        plan = (
            scan("lineitem")
            .join(scan("orders"), on=[("l_orderkey", "o_orderkey")])
            .join(scan("customer"), on=[("o_custkey", "c_custkey")], how=how)
        )
        analysis = analyse_plan(plan.node, tpch_db.schema)
        edge = analysis.edge_from("orders", "FK_O_C")
        assert edge.child_is_left and not edge.filters_child()
        assert analysis.parents("lineitem", filtering=True) == {"lineitem", "orders"}
        assert analysis.parents("lineitem") == {"lineitem", "orders", "customer"}
        assert analysis.parents("customer") == {"customer"}


class TestPropagation:
    def _restrictions(self, bdcc_db, plan):
        analysis = analyse_plan(plan.node, bdcc_db.schema)
        alias_tables = {a: s.table for a, s in analysis.scans.items()}
        return compute_restrictions(
            bdcc_db.database, analysis, bdcc_db.bdcc_tables(), alias_tables
        )

    def test_region_filter_reaches_customer_and_lineitem(self, bdcc_db):
        plan = (
            scan("customer")
            .join(scan("orders"), on=[("c_custkey", "o_custkey")])
            .join(scan("lineitem"), on=[("o_orderkey", "l_orderkey")])
            .join(scan("nation"), on=[("c_nationkey", "n_nationkey")])
            .join(
                scan("region", predicate=col("r_name").eq("ASIA")),
                on=[("n_regionkey", "r_regionkey")],
            )
        )
        restrictions = self._restrictions(bdcc_db, plan)
        assert "customer" in restrictions
        assert "orders" in restrictions
        assert "lineitem" in restrictions
        # nation itself is restricted through its own D_NATION use
        assert "nation" in restrictions
        # ASIA has 5 of 25 nations
        use_idx, bins, bits = restrictions["customer"][0]
        assert len(bins) == 5

    def test_local_date_predicate_restricts_orders_and_lineitem(self, bdcc_db):
        plan = (
            scan("orders", predicate=col("o_orderdate").lt(days("1993-01-01")))
            .join(scan("lineitem"), on=[("o_orderkey", "l_orderkey")])
        )
        restrictions = self._restrictions(bdcc_db, plan)
        assert "orders" in restrictions
        assert "lineitem" in restrictions

    def test_no_propagation_through_unjoined_path(self, bdcc_db):
        # supplier nation is not restricted by a *customer* region filter
        plan = (
            scan("supplier")
            .join(scan("lineitem"), on=[("s_suppkey", "l_suppkey")])
            .join(scan("orders"), on=[("l_orderkey", "o_orderkey")])
            .join(scan("customer"), on=[("o_custkey", "c_custkey")])
            .join(
                scan("nation", predicate=col("n_name").eq("JAPAN")),
                on=[("c_nationkey", "n_nationkey")],
            )
        )
        restrictions = self._restrictions(bdcc_db, plan)
        assert "supplier" not in restrictions
        # but lineitem is restricted via its customer-side D_NATION use
        assert "lineitem" in restrictions

    def test_anti_join_does_not_restrict_preserved_side(self, bdcc_db):
        plan = scan("customer").join(
            scan("orders", predicate=col("o_orderdate").lt(days("1993-01-01"))),
            on=[("c_custkey", "o_custkey")],
            how="anti",
        )
        restrictions = self._restrictions(bdcc_db, plan)
        assert "customer" not in restrictions

    def test_local_only_mode(self, bdcc_db):
        plan = (
            scan("orders", predicate=col("o_orderdate").lt(days("1993-01-01")))
            .join(scan("lineitem"), on=[("o_orderkey", "l_orderkey")])
        )
        analysis = analyse_plan(plan.node, bdcc_db.schema)
        alias_tables = {a: s.table for a, s in analysis.scans.items()}
        local = compute_restrictions(
            bdcc_db.database, analysis, bdcc_db.bdcc_tables(), alias_tables,
            local_only=True,
        )
        assert "orders" in local       # local D_DATE predicate
        assert "lineitem" not in local  # needs path propagation


class TestPropagationCorrectness:
    """Pushdown must never change results, only cost."""

    @pytest.mark.parametrize("qname", ["Q03", "Q05", "Q08", "Q10"])
    def test_results_unchanged_without_pushdown(self, bdcc_db, environment, qname):
        from repro.tpch.runner import run_query

        fn = queries.QUERIES[qname]
        with_push, _ = run_query(bdcc_db, fn, disk=environment.disk)
        without, _ = run_query(
            bdcc_db, fn,
            disk=environment.disk,
            options=ExecutionOptions(enable_pushdown=False),
        )
        a = sorted(map(str, with_push.rows))
        b = sorted(map(str, without.rows))
        assert a == b


class TestOrderContracts:
    """Result-contract propagation: where may a reordering exchange be
    introduced without breaking an order-requiring ancestor?"""

    @staticmethod
    def _contracts(bdcc_db, plan):
        from repro.planner.executor import Executor

        pplan = Executor(bdcc_db).lower(plan)
        assert pplan.contracts is not None
        return pplan, pplan.contracts

    @staticmethod
    def _join(pplan):
        from repro.execution.operators import Join, walk_physical

        return next(
            op for op in walk_physical(pplan.root)
            if isinstance(op, Join) and op.strategy != "merge"
        )

    def _base_join(self):
        from repro.planner.logical import scan, walk

        return scan("orders").join(
            scan("lineitem"), on=[("o_orderkey", "l_orderkey")]
        )

    def test_root_and_transparent_ancestors_admit_reorders(self, bdcc_db):
        from repro.execution.aggregate import AggSpec
        from repro.execution.expressions import col

        plan = self._base_join().groupby(
            ["o_orderpriority"], [AggSpec("n", "count", None)]
        )
        pplan, contracts = self._contracts(bdcc_db, plan)
        join = self._join(pplan)
        assert contracts[id(join)].reorder_admissible
        assert contracts[id(pplan.root)].reorder_admissible

    def test_bare_limit_blocks_sort_readmits(self, bdcc_db):
        pplan, contracts = self._contracts(bdcc_db, self._base_join().limit(5))
        assert not contracts[id(self._join(pplan))].reorder_admissible

        sorted_plan = self._base_join().sort([("o_orderkey", True)]).limit(5)
        pplan, contracts = self._contracts(bdcc_db, sorted_plan)
        assert contracts[id(self._join(pplan))].reorder_admissible

    def test_streaming_aggregation_requires_serial_order(self, pk_db):
        """Under the PK scheme LINEITEM streams in key order: the
        streaming aggregate above the merge join forbids reorders below it."""
        from repro.execution.aggregate import AggSpec
        from repro.execution.expressions import col
        from repro.execution.operators import walk_physical
        from repro.planner.executor import Executor

        plan = self._base_join().groupby(
            ["o_orderkey"], [AggSpec("qty", "sum", col("l_quantity"))]
        )
        pplan = Executor(pk_db).lower(plan)
        ops = list(walk_physical(pplan.root))
        agg = next((op for op in ops if op.kind == "StreamAgg"), None)
        if agg is None:
            import pytest

            pytest.skip("PK scheme did not choose a streaming aggregate")
        child = agg.input
        assert not pplan.contracts[id(child)].reorder_admissible

    def test_semi_join_membership_side_is_order_free(self, bdcc_db):
        from repro.planner.logical import scan, walk

        plan = scan("orders").join(
            scan("lineitem"), on=[("o_orderkey", "l_orderkey")], how="semi"
        ).limit(5)
        pplan, contracts = self._contracts(bdcc_db, plan)
        join = self._join(pplan)
        # the limit blocks the left (assembled) side, but the
        # membership side only contributes key membership
        assert not contracts[id(join.left)].reorder_admissible
        assert contracts[id(join.right)].reorder_admissible

    def test_merge_semi_join_membership_side_is_not_order_free(self, pk_db):
        """Merging needs both sides ordered: a merge-strategy semi
        join's membership side is no more reorderable than its left."""
        from repro.execution.operators import walk_physical
        from repro.planner.logical import scan, walk

        plan = scan("orders").join(
            scan("lineitem"), on=[("o_orderkey", "l_orderkey")], how="semi"
        ).limit(5)
        pplan, contracts = self._contracts(pk_db, plan)
        join = next(op for op in walk_physical(pplan.root) if op.kind == "MergeJoin")
        assert join.how == "semi"
        assert not contracts[id(join.left)].reorder_admissible
        assert not contracts[id(join.right)].reorder_admissible
