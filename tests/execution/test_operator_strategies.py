"""A join's or an aggregation's strategy is a plan field: each strategy
string fixes the operator's ``kind`` (the name plans, query logs and the
differential count by), the inputs it needs in serial order, which child
may be reordered freely and which join side a fragment partitions."""

import pytest

from repro.execution.operators import Aggregate, Join, PhysicalOp
from repro.parallel.fragments import _FragmentPlanner
from repro.planner.propagation import _order_free_children

BOTH_SIDES = ("left", "right")

#: (strategy, how, build_side) -> kind, ordered_inputs, order-free
#: children, the side a fragment partitions
JOIN_CONTRACTS = [
    ("merge", "inner", "right", "MergeJoin", BOTH_SIDES, (), "left"),
    # merging ignores the build side: the output follows the left input
    ("merge", "inner", "left", "MergeJoin", BOTH_SIDES, (), "left"),
    # merging needs both sides ordered, so not even the membership side is free
    ("merge", "semi", "right", "MergeJoin", BOTH_SIDES, (), "left"),
    ("merge", "anti", "right", "MergeJoin", BOTH_SIDES, (), "left"),
    ("hash", "inner", "right", "HashJoin", (), (), "left"),
    ("hash", "inner", "left", "HashJoin", (), (), "right"),
    ("hash", "left", "right", "HashJoin", (), (), "left"),
    ("hash", "semi", "right", "HashJoin", (), ("right",), "left"),
    ("hash", "anti", "right", "HashJoin", (), ("right",), "left"),
    ("sandwich", "inner", "right", "SandwichJoin", (), (), "left"),
    ("sandwich", "inner", "left", "SandwichJoin", (), (), "right"),
    ("sandwich", "semi", "right", "SandwichJoin", (), ("right",), "left"),
    ("sandwich", "anti", "right", "SandwichJoin", (), ("right",), "left"),
]

#: strategy -> kind, ordered_inputs
AGGREGATE_CONTRACTS = [
    ("hash", "HashAgg", ()),
    ("stream", "StreamAgg", ("input",)),
    ("sandwich", "SandwichAgg", ()),
    ("partial", "PartialAgg", ()),
    ("merge", "MergeAgg", ()),
]


def _join(strategy, how="inner", build_side="right"):
    return Join(
        PhysicalOp(), PhysicalOp(), ("a",), ("b",), how,
        build_side=build_side, strategy=strategy,
    )


@pytest.mark.parametrize(
    "strategy, how, build_side, kind, ordered_inputs, order_free, partition_side",
    JOIN_CONTRACTS,
    ids=lambda value: value if isinstance(value, str) else None,
)
def test_join_strategy_contract(
    strategy, how, build_side, kind, ordered_inputs, order_free, partition_side
):
    op = _join(strategy, how, build_side)
    assert op.kind == kind
    assert op.describe().startswith(f"{kind} {how} ON ")
    assert op.ordered_inputs == ordered_inputs
    assert _order_free_children(op) == order_free
    assert _FragmentPlanner._partition_side(op) == partition_side


@pytest.mark.parametrize("strategy, kind, ordered_inputs", AGGREGATE_CONTRACTS)
def test_aggregate_strategy_contract(strategy, kind, ordered_inputs):
    op = Aggregate(PhysicalOp(), ("k",), strategy=strategy)
    assert op.kind == kind
    assert op.describe() == f"{kind} [k] -> "
    assert op.ordered_inputs == ordered_inputs
    assert _order_free_children(op) == ()


def test_every_strategy_is_pinned():
    assert {row[0] for row in JOIN_CONTRACTS} == set(Join.STRATEGIES)
    assert {row[0] for row in AGGREGATE_CONTRACTS} == set(Aggregate.STRATEGIES)


@pytest.mark.parametrize(
    "build",
    [
        lambda strategy: _join(strategy),
        lambda strategy: Aggregate(PhysicalOp(), ("k",), strategy=strategy),
    ],
    ids=["join", "aggregate"],
)
@pytest.mark.parametrize("strategy", ["nested_loop", "HashJoin", "HashAgg", "", "Hash"])
def test_unknown_strategy_is_refused_when_built(build, strategy):
    with pytest.raises(ValueError, match="strategy"):
        build(strategy)


def test_strategy_is_required():
    with pytest.raises(TypeError):
        Join(PhysicalOp(), PhysicalOp(), ("a",), ("b",))
    with pytest.raises(TypeError):
        Aggregate(PhysicalOp(), ("k",))
