"""The paper's "Detailed Analysis" paragraph, checked mechanically.

Section IV attributes each query's behaviour to a specific mechanism;
each mechanism is a field of the physical plan the query lowered to (an
operator's kind, the co-clustered dimensions in a sandwich join's
``pairs``, a scan's count-table ``restrictions`` and zone-map
``minmax_ranges``), so the attributions are asserted on the plans a
:class:`QueryRunner` keeps per stage.
"""

from repro.execution.operators import PhysicalScan
from repro.planner.executor import Executor
from repro.tpch import queries
from repro.tpch.runner import QueryRunner, run_query


def _operators(pdb, qname, environment):
    """Every operator of every stage of ``qname`` as lowered and run on
    ``pdb``."""
    runner = QueryRunner(Executor(pdb, disk=environment.disk))
    queries.QUERIES[qname](runner)
    return [op for pplan in runner.physical_plans for op in pplan.operators()]


def _kinds(ops):
    return {op.kind for op in ops}


def _dimensions(join):
    return {left.dimension.name for left, _, _ in join.pairs}


def _merge_joins(ops):
    """The key columns of each merge join, left then right."""
    return {op.left_cols + op.right_cols for op in ops if op.kind == "MergeJoin"}


def _scans(ops):
    return [op for op in ops if isinstance(op, PhysicalScan)]


class TestBDCCMechanisms:
    def test_q13_sandwiches_on_customer_nation(self, bdcc_db, environment):
        """Paper: 'the HashJoin(ORDERS,CUSTOMER) is sandwiched based on
        the common customer D_NATION dimension, although NATION is not
        even involved in the query'."""
        ops = _operators(bdcc_db, "Q13", environment)
        sandwich = [op for op in ops if op.kind == "SandwichJoin"]
        assert any("D_NATION" in _dimensions(op) for op in sandwich)

    def test_q18_sandwiched_aggregation(self, bdcc_db, environment):
        """Paper: Q18's full LINEITEM aggregation on l_orderkey is
        sandwiched (helps vs plain)."""
        assert "SandwichAgg" in _kinds(_operators(bdcc_db, "Q18", environment))

    def test_q06_minmax_correlation(self, bdcc_db, environment):
        """Paper: Q6 benefits from the o_orderdate/l_shipdate correlation
        through MinMax indices."""
        scans = _scans(_operators(bdcc_db, "Q06", environment))
        assert any(op.minmax_ranges for op in scans)

    def test_q05_propagates_to_many_scans(self, bdcc_db, environment):
        """Region selection restricts supplier, nation, lineitem and
        orders scans (co-clustering propagation)."""
        scans = _scans(_operators(bdcc_db, "Q05", environment))
        pushdown_scans = {op.alias for op in scans if op.restrictions}
        assert {"supplier", "nation", "lineitem", "orders"} <= pushdown_scans

    def test_q21_sandwiches_self_joins(self, bdcc_db, environment):
        """The l1/l2/l3 LINEITEM instances co-cluster although not
        FK-connected to each other (the paper's A-C relationship)."""
        _, metrics = run_query(bdcc_db, queries.QUERIES["Q21"], disk=environment.disk)
        assert metrics.counters.get("sandwich_joins", 0) >= 2

    def test_q09_sandwiches_composite_partsupp_join(self, bdcc_db, environment):
        """LINEITEM-PARTSUPP over (partkey, suppkey) sandwiches on
        D_PART + supplier D_NATION."""
        ps_joins = [
            op for op in _operators(bdcc_db, "Q09", environment)
            if op.kind == "SandwichJoin"
            and {"l_partkey", "l_suppkey"} <= set(op.left_cols)
        ]
        assert ps_joins and any(
            {"D_PART", "D_NATION"} <= _dimensions(op) for op in ps_joins
        )

    def test_q01_uses_no_special_mechanism(self, bdcc_db, environment):
        ops = _operators(bdcc_db, "Q01", environment)
        assert "SandwichJoin" not in _kinds(ops)
        assert not any(op.restrictions for op in _scans(ops))


class TestPKMechanisms:
    def test_q12_merge_join(self, pk_db, environment):
        """ORDERS-LINEITEM share the major PK key -> merge join."""
        joins = _merge_joins(_operators(pk_db, "Q12", environment))
        assert ("o_orderkey", "l_orderkey") in joins

    def test_q16_partsupp_part_merge(self, pk_db, environment):
        """Paper: 'also the PARTSUPP-PART join becomes a merge join'."""
        joins = _merge_joins(_operators(pk_db, "Q16", environment))
        assert ("ps_partkey", "p_partkey") in joins

    def test_q18_streaming_aggregate(self, pk_db, environment):
        """Paper: 'the streaming aggregate applied by the PK scheme
        cannot be beaten'."""
        assert "StreamAgg" in _kinds(_operators(pk_db, "Q18", environment))

    def test_q18_pk_fastest(self, physical_dbs, environment):
        times = {}
        for name, pdb in physical_dbs.items():
            _, metrics = run_query(pdb, queries.QUERIES["Q18"], disk=environment.disk)
            times[name] = metrics.total_seconds
        assert times["pk"] <= times["plain"]
        assert times["pk"] <= times["bdcc"]


class TestPlainMechanisms:
    def test_everything_is_hash_and_full_scans(self, plain_db, environment):
        ops = _operators(plain_db, "Q05", environment)
        assert not any(op.restrictions for op in _scans(ops))
        assert not any(kind.startswith("Sandwich") for kind in _kinds(ops))
        assert "HashJoin" in _kinds(ops)
