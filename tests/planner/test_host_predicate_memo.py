"""A host predicate's mask is derived once per piece of a logical table.

Propagation asks the host table's current version for the rows a
predicate holds on; the version memoises the mask, so lowering the
same query again — through a fresh executor per lowering, as
``run_query`` does — evaluates nothing again until a commit publishes a
new version of that table.  The version builds its mask from one mask
per piece (the base and each appended run), memoised on the piece, so
after a commit the predicate runs over the commit's run alone; a fold
makes a new base, which pays once.  A table the commit did not touch
keeps its version and its masks.
"""

import numpy as np
import pytest

from repro import tpch
from repro.execution import expressions
from repro.execution.expressions import col
from repro.planner.analysis import analyse_plan
from repro.planner.executor import Executor
from repro.storage.memo import derive
from repro.tpch.environment import make_environment
from repro.tpch.harness import build_schemes
from repro.tpch.queries import q05, q13
from repro.tpch.refresh import stage_rf1, stage_rf2
from repro.updates import CompactionPolicy, UpdateSession

SF = 0.002
R_NAME = col("r_name").eq("ASIA")
O_COMMENT = col("o_comment").not_like("%special%requests%")
RF1_ORDERS = 6


class _Capture:
    """A query runner that keeps the plan and executes nothing."""

    def execute(self, plan):
        self.plan = plan


def _plan(query):
    """A freshly built logical plan of a single-stage TPC-H query."""
    runner = _Capture()
    query(runner)
    return runner.plan


@pytest.fixture()
def bdcc():
    """(db, pdb): a bdcc database of its own — the tests commit to it."""
    db = tpch.generate(scale_factor=SF, seed=3)
    return db, build_schemes(db, make_environment(SF), include=("bdcc",))["bdcc"]


@pytest.fixture()
def evaluated(monkeypatch):
    """The predicates evaluated since the test began, one entry per
    evaluation of a ``Like`` (Q13's comment filter) or of Q05's
    ``r_name`` comparison."""
    calls = []
    for cls in (expressions.Like, expressions.Cmp):
        def counted(self, rel, _eval=cls.eval):
            if isinstance(self, expressions.Like) or self == R_NAME:
                calls.append(self)
            return _eval(self, rel)
        monkeypatch.setattr(cls, "eval", counted)
    return calls


@pytest.fixture()
def like_rows(monkeypatch):
    """The row count of every relation a ``Like`` is evaluated over."""
    rows = []

    def counted(self, rel, _eval=expressions.Like.eval):
        rows.append(rel.num_rows)
        return _eval(self, rel)

    monkeypatch.setattr(expressions.Like, "eval", counted)
    return rows


def _unbuilt():
    raise AssertionError("the fact was not memoised")


def _lower(pdb, query):
    return Executor(pdb).lower(_plan(query))


def _commit_refresh_pair(db, pdb, policy=CompactionPolicy(max_delta_fraction=None)):
    session = UpdateSession(pdb, policy=policy)
    rng = np.random.default_rng(3)
    stage_rf1(session, db, rng, RF1_ORDERS)
    stage_rf2(session, db, rng, 6)
    session.commit()


def test_two_lowerings_of_q13_evaluate_the_comment_filter_once(bdcc, evaluated):
    _, pdb = bdcc
    _lower(pdb, q13)
    _lower(pdb, q13)
    assert evaluated == [O_COMMENT.operand]


def test_a_committed_refresh_pair_evaluates_it_once_more(bdcc, evaluated):
    db, pdb = bdcc
    _lower(pdb, q13)
    orders = db.table_data("orders")
    _commit_refresh_pair(db, pdb)
    assert db.table_data("orders") is not orders
    _lower(pdb, q13)
    _lower(pdb, q13)
    assert evaluated == [O_COMMENT.operand] * 2


def test_after_a_refresh_pair_the_comment_filter_reads_the_rf1_run_only(bdcc, like_rows):
    db, pdb = bdcc
    _lower(pdb, q13)
    assert like_rows == [db.num_rows("orders")]
    _commit_refresh_pair(db, pdb)
    (run,) = db.version("orders").runs
    assert len(run.columns["o_comment"]) == RF1_ORDERS
    _lower(pdb, q13)
    _lower(pdb, q13)
    assert like_rows[1:] == [RF1_ORDERS]


def test_a_fold_evaluates_it_once_over_the_new_base(bdcc, like_rows):
    db, pdb = bdcc
    _lower(pdb, q13)
    _commit_refresh_pair(db, pdb, CompactionPolicy(max_delta_fraction=0.0, min_delta_rows=1))
    assert db.version("orders").is_flat
    _lower(pdb, q13)
    _lower(pdb, q13)
    assert like_rows[1:] == [db.num_rows("orders")]


def test_a_table_the_commit_did_not_touch_keeps_its_masks(bdcc, evaluated):
    db, pdb = bdcc
    _lower(pdb, q05)
    region = db.table_data("region")
    _commit_refresh_pair(db, pdb)
    assert db.table_data("region") is region
    _lower(pdb, q05)
    assert evaluated == [R_NAME]
    assert derive(db.version("region"), ("holds", "", R_NAME), _unbuilt).any()


def test_an_equal_predicate_built_separately_hits_the_same_entry(bdcc, evaluated):
    db, pdb = bdcc
    first, second = _plan(q13), _plan(q13)
    predicate = analyse_plan(first.node, db.schema).scans["orders"].predicate
    rebuilt = analyse_plan(second.node, db.schema).scans["orders"].predicate
    assert rebuilt is not predicate and rebuilt == predicate == O_COMMENT
    Executor(pdb).lower(first)
    orders = db.version("orders")
    mask = derive(orders, ("holds", "", predicate), _unbuilt)
    Executor(pdb).lower(second)
    assert derive(orders, ("holds", "", rebuilt), _unbuilt) is mask
    assert len(evaluated) == 1
