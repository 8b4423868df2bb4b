"""Golden physical plans with non-empty deltas: Q1/Q6 × three schemes.

The skeletons pin that merge-on-read swaps the leaf ``Scan`` for a
``DeltaMergeScan`` — and changes *nothing else*: the aggregation
strategies above stay what the scheme earned on a clean table.
"""

import textwrap

import numpy as np
import pytest

from repro.execution.expressions import col
from repro.planner.executor import Executor
from repro.planner.explain import explain, format_physical_plan
from repro.planner.logical import scan
from repro.tpch import queries
from repro.updates import CompactionPolicy, UpdateSession

from .conftest import sample_lineitem_insert, sample_orders_insert

NO_COMPACTION = CompactionPolicy(max_delta_fraction=None)


class _PlanGrabber:
    def __init__(self, executor):
        self.executor = executor
        self.plans = []

    def execute(self, plan):
        self.plans.append(self.executor.lower(plan))
        return None


_Q01_DELTA_SKELETON = """
    Sort [l_returnflag, l_linestatus]
      HashAgg [l_returnflag, l_linestatus] -> sum_qty=sum, sum_base_price=sum, sum_disc_price=sum, sum_charge=sum, avg_qty=avg, avg_price=avg, avg_disc=avg, count_order=count
        DeltaMergeScan lineitem WHERE ...
    """

_Q06_DELTA_SKELETON = """
    HashAgg [<scalar>] -> revenue=sum
      DeltaMergeScan lineitem WHERE ...
    """

GOLDEN = {
    ("Q01", "plain"): _Q01_DELTA_SKELETON,
    ("Q01", "pk"): _Q01_DELTA_SKELETON,
    ("Q01", "bdcc"): _Q01_DELTA_SKELETON,
    ("Q06", "plain"): _Q06_DELTA_SKELETON,
    ("Q06", "pk"): _Q06_DELTA_SKELETON,
    ("Q06", "bdcc"): _Q06_DELTA_SKELETON,
}


@pytest.fixture()
def dirty(fresh):
    """The fresh schemes with a non-empty lineitem delta (inserts and
    deletes) that no compaction folds away."""
    db, env, pdbs = fresh
    rng = np.random.default_rng(21)
    session = UpdateSession(*pdbs.values(), policy=NO_COMPACTION)
    orders = sample_orders_insert(db, rng, 20)
    session.insert_rows("orders", orders)
    session.insert_rows(
        "lineitem", sample_lineitem_insert(db, rng, orders["o_orderkey"])
    )
    session.delete_where("lineitem", col("l_quantity").ge(49.0))
    session.commit()
    return db, env, pdbs


class TestGoldenDeltaPlans:
    @pytest.mark.parametrize("qname,scheme", sorted(GOLDEN))
    def test_skeleton(self, dirty, qname, scheme):
        _, _, pdbs = dirty
        grabber = _PlanGrabber(Executor(pdbs[scheme]))
        queries.QUERIES[qname](grabber)
        skeleton = format_physical_plan(grabber.plans[-1], verbose=False)
        expected = textwrap.dedent(GOLDEN[(qname, scheme)]).strip()
        assert skeleton.strip() == expected, (qname, scheme)

    def test_explain_shows_the_delta_merge(self, dirty):
        _, env, pdbs = dirty
        executor = Executor(pdbs["bdcc"], disk=env.disk, costs=env.cost_model)
        text = explain(executor, scan("lineitem", predicate=col("l_shipdate").ge(9000)))
        assert "DeltaMergeScan" in text
        assert "delta rows" in text
        assert "deleted rows masked" in text

    def test_clean_tables_still_lower_to_plain_scans(self, dirty):
        _, _, pdbs = dirty
        for scheme, pdb in pdbs.items():
            grabber = _PlanGrabber(Executor(pdb))
            queries.QUERIES["Q02"](grabber)  # part/supplier: untouched tables
            for pplan in grabber.plans:
                assert not any(
                    op.kind == "DeltaMergeScan" for op in pplan.operators()
                ), scheme
