"""The claims hold on the data.

Whether a stream is ordered or co-clustered is decided once, statically,
by ``planner/lowering.py::_Stream`` — no batch carries it at run time,
and because every strategy shares the logical kernels, a *false* claim
changes no result: it only makes the simulated clock charge a merge
join, a streaming aggregation or a sandwich operator no real engine
could run.  So nothing but a look at the data each such operator is fed
can hold lowering to its word.  :class:`ClaimChecker` is that look,
test-side (it wraps ``PhysicalOp.run``; ``src/`` has no hook for it):

* a :class:`MergeJoin`'s two inputs are non-decreasing on their key
  tuples;
* a :class:`StreamAgg`'s input has every group contiguous;
* for each granted pair of a :class:`SandwichJoin`, equal join keys
  carry equal top-``g`` group bits on both sides;
* for a :class:`SandwichAgg`, each group key maps to one partition id.

It runs over the 22 TPC-H queries and a generated sweep under every
scheme, serial and fragmented, and again over a database with committed
update rounds and compaction off — where ``DeltaMergeScan`` restoring
the scheme's storage order is the only thing keeping the claims true.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro import tpch
from repro.execution.aggregate import AggSpec
from repro.execution.expressions import col
from repro.execution.metrics import ExecutionMetrics
from repro.execution.operators import (
    Aggregate,
    ExecutionContext,
    Join,
    PhysicalOp,
)
from repro.planner.executor import ExecutionOptions, Executor
from repro.planner.logical import scan
from repro.planner.lowering import lower
from repro.tpch.environment import make_environment
from repro.tpch.harness import build_schemes
from repro.tpch.queries import QUERIES
from repro.tpch.refresh import refresh_pair_size, stage_rf1, stage_rf2
from repro.tpch.runner import QueryRunner
from repro.updates import CompactionPolicy, UpdateSession
from repro.workload.generator import PlanGenerator

SCHEMES = ("plain", "pk", "bdcc")
PARALLEL = dict(workers=4, min_partition_rows=256)
GENERATED_PLANS = 120
DELTA_SF = 0.003
DELTA_ROUNDS = 3


# ---------------------------------------------------------------- checker
def _non_decreasing(columns) -> bool:
    """Rows ascend (weakly) on the key tuple, lexicographically."""
    undecided = np.ones(max(len(columns[0]) - 1, 0), dtype=bool)
    for column in columns:
        before, after = column[:-1], column[1:]
        if (undecided & (before > after)).any():
            return False
        undecided &= before == after
    return True


def _codes(columns) -> np.ndarray:
    """One integer per row, equal exactly where the key tuples are."""
    codes = np.zeros(len(columns[0]), dtype=np.int64)
    for column in columns:
        uniques, inverse = np.unique(column, return_inverse=True)
        codes = codes * len(uniques) + inverse
    return np.unique(codes, return_inverse=True)[1]


def _spread(codes: np.ndarray, values: np.ndarray, size: int):
    """Per code, the smallest and largest value seen (``size`` codes;
    an unseen code reads low > high)."""
    low = np.full(size, np.iinfo(np.uint64).max, dtype=np.uint64)
    high = np.zeros(size, dtype=np.uint64)
    np.minimum.at(low, codes, values)
    np.maximum.at(high, codes, values)
    return low, high


def _top_bits(rel, use, granted: int) -> np.ndarray:
    return rel.columns[use.column].astype(np.uint64) >> np.uint64(use.bits - granted)


class ClaimChecker:
    """Checks, for every operator execution it observes, the input
    property the operator's strategy was chosen for."""

    def __init__(self, monkeypatch):
        self.seen = Counter()
        self.violations = []
        self._outputs = {}
        original = PhysicalOp.run

        def run(op, ctx):
            rel = original(op, ctx)
            inputs = [self._outputs.pop(id(child)) for child in op.children()]
            self._outputs[id(op)] = rel
            self._check(op, inputs)
            return rel

        monkeypatch.setattr(PhysicalOp, "run", run)

    def _fail(self, op, what: str) -> None:
        self.violations.append(f"{op.describe()}: {what}")

    def _check(self, op, inputs) -> None:
        # exact kinds: partial/merge aggregates and hash joins claim nothing
        if op.kind == "MergeJoin":
            self.seen["merge_join"] += 1
            for side, rel, keys in zip(("left", "right"), inputs, (op.left_cols, op.right_cols)):
                if not _non_decreasing([rel.column(k) for k in keys]):
                    self._fail(op, f"{side} input is not ordered on {keys}")
        elif op.kind == "StreamAgg":
            self.seen["stream_agg"] += 1
            (rel,) = inputs
            if rel.num_rows:
                codes = _codes([rel.column(k) for k in op.keys])
                runs = 1 + np.count_nonzero(np.diff(codes))
                if runs != codes.max() + 1:
                    self._fail(op, f"{codes.max() + 1} groups arrive in {runs} runs")
        elif op.kind == "SandwichJoin":
            self.seen["sandwich_join"] += 1
            left, right = inputs
            if not (left.num_rows and right.num_rows):
                return
            codes = _codes(
                [
                    np.concatenate([left.column(l), right.column(r)])
                    for l, r in zip(op.left_cols, op.right_cols)
                ]
            )
            size = codes.max() + 1
            lcodes, rcodes = codes[: left.num_rows], codes[left.num_rows:]
            for left_use, right_use, granted in op.pairs:
                if granted <= 0:
                    continue
                llow, lhigh = _spread(lcodes, _top_bits(left, left_use, granted), size)
                rlow, rhigh = _spread(rcodes, _top_bits(right, right_use, granted), size)
                both = (llow <= lhigh) & (rlow <= rhigh)  # keys that will join
                agree = (llow == lhigh) & (rlow == rhigh) & (llow == rlow)
                if not agree[both].all():
                    self._fail(
                        op,
                        f"equal keys disagree on the top {granted} bits of "
                        f"{left_use.column} / {right_use.column}",
                    )
        elif op.kind == "SandwichAgg":
            self.seen["sandwich_agg"] += 1
            (rel,) = inputs
            if not rel.num_rows:
                return
            pid = np.zeros(rel.num_rows, dtype=np.uint64)
            for use, granted in op.partition_uses:
                if granted > 0:
                    pid = (pid << np.uint64(granted)) | _top_bits(rel, use, granted)
            codes = _codes([rel.column(k) for k in op.keys])
            low, high = _spread(codes, pid, codes.max() + 1)
            if not (low == high).all():
                self._fail(op, f"a group of {op.keys} spans several partitions")

    # ------------------------------------------------------------- drivers
    def run_tpch(self, pdb, env, **options) -> None:
        executor = Executor(
            pdb, disk=env.disk, costs=env.cost_model, options=ExecutionOptions(**options)
        )
        for query in QUERIES.values():
            query(QueryRunner(executor))
            self._outputs.clear()

    def run_generated(self, pdb, env, db, first: int, count: int, **options) -> None:
        executor = Executor(
            pdb, disk=env.disk, costs=env.cost_model, options=ExecutionOptions(**options)
        )
        generator = PlanGenerator(db)
        for index in range(first, first + count):
            executor.execute(generator.generate(0, index).plan)
            self._outputs.clear()


@pytest.fixture()
def checker(monkeypatch):
    return ClaimChecker(monkeypatch)


# ------------------------------------------------------------ clean data
def test_claims_hold_on_tpch(checker, physical_dbs, environment):
    for scheme in SCHEMES:
        checker.run_tpch(physical_dbs[scheme], environment)
        checker.run_tpch(physical_dbs[scheme], environment, **PARALLEL)
    assert checker.violations == []
    # every rule was exercised, many times over (fragment clones count)
    assert checker.seen["merge_join"] >= 30 and checker.seen["stream_agg"] >= 4
    assert checker.seen["sandwich_join"] >= 100 and checker.seen["sandwich_agg"] >= 10


def test_claims_hold_on_generated_plans(checker, physical_dbs, environment, tpch_db):
    half = GENERATED_PLANS // 2
    for scheme in SCHEMES:
        pdb = physical_dbs[scheme]
        checker.run_generated(pdb, environment, tpch_db, 0, half)
        checker.run_generated(pdb, environment, tpch_db, half, half, **PARALLEL)
    assert checker.violations == []
    assert all(
        checker.seen[kind]
        for kind in ("merge_join", "stream_agg", "sandwich_join", "sandwich_agg")
    )


# ------------------------------------------------------ merge-on-read data
def test_claims_hold_over_uncompacted_deltas(checker):
    """After committed refresh rounds with compaction off, every scan of
    ORDERS/LINEITEM is a ``DeltaMergeScan``: the order and the group
    columns the operators above were promised exist only because the
    merge restores them."""
    db = tpch.generate(scale_factor=DELTA_SF, seed=1234)
    env = make_environment(DELTA_SF)
    pdbs = build_schemes(db, env)
    rng = np.random.default_rng(5)
    for _ in range(DELTA_ROUNDS):
        session = UpdateSession(
            *pdbs.values(), policy=CompactionPolicy(max_delta_fraction=None),
            disk=env.disk, costs=env.cost_model,
        )
        stage_rf1(session, db, rng, 4 * refresh_pair_size(DELTA_SF))
        stage_rf2(session, db, rng, 4 * refresh_pair_size(DELTA_SF))
        session.commit()
    for scheme in SCHEMES:
        merged = lower(pdbs[scheme], scan("lineitem").join(
            scan("orders"), on=[("l_orderkey", "o_orderkey")]
        ))
        assert sum(op.kind == "DeltaMergeScan" for op in merged.operators()) == 2
        checker.run_tpch(pdbs[scheme], env)
        checker.run_tpch(pdbs[scheme], env, **PARALLEL)
        checker.run_generated(pdbs[scheme], env, db, 0, GENERATED_PLANS // 2)
    assert checker.violations == []
    assert all(
        checker.seen[kind]
        for kind in ("merge_join", "stream_agg", "sandwich_join", "sandwich_agg")
    )


# ------------------------------------------------------- the checker bites
class TestCheckerBites:
    """False claims, hand-built: results would still be right (the
    kernels are shared), so only the checker can reject them."""

    def _run(self, op, environment):
        op.run(ExecutionContext(environment.disk, environment.cost_model, ExecutionMetrics()))

    def test_merge_join_over_unordered_inputs(self, checker, bdcc_db, environment):
        # BDCC storage order is _bdcc_-key order, not o_orderkey order
        orders = lower(bdcc_db, scan("orders")).root
        lineitem = lower(bdcc_db, scan("lineitem")).root
        self._run(
            Join(orders, lineitem, ("o_orderkey",), ("l_orderkey",), strategy="merge"),
            environment,
        )
        assert checker.seen["merge_join"] == 1
        assert len(checker.violations) == 2 and "not ordered" in checker.violations[0]

    def test_stream_agg_over_scattered_groups(self, checker, pk_db, environment):
        orders = lower(pk_db, scan("orders")).root
        self._run(Aggregate(orders, ("o_orderkey",), strategy="stream"), environment)
        assert checker.violations == []  # the PK order: one run per group
        self._run(Aggregate(orders, ("o_custkey",), strategy="stream"), environment)
        assert len(checker.violations) == 1 and "runs" in checker.violations[0]

    def test_sandwich_operators_over_keys_that_do_not_determine_the_bins(
        self, checker, bdcc_db, environment
    ):
        plan = (
            scan("orders")
            .join(scan("lineitem"), on=[("o_orderkey", "l_orderkey")])
            .groupby(
                ["l_orderkey"],
                [AggSpec("c", "max", col("o_custkey")), AggSpec("s", "max", col("l_suppkey"))],
            )
        )
        agg = lower(bdcc_db, plan).root
        join = agg.input
        assert agg.kind == "SandwichAgg" and join.kind == "SandwichJoin"
        self._run(agg, environment)
        assert checker.violations == []
        # same granted pairs / partition uses, keys they do not follow from
        self._run(
            dataclasses.replace(join, left_cols=("o_custkey",), right_cols=("l_suppkey",)),
            environment,
        )
        assert checker.violations and all("disagree" in v for v in checker.violations)
        del checker.violations[:]
        self._run(dataclasses.replace(agg, keys=("l_suppkey",)), environment)
        assert len(checker.violations) == 1 and "spans" in checker.violations[0]
