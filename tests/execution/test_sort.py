"""Sort order of descending keys, exact for every key width."""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.execution.cost import DEFAULT_COSTS
from repro.execution.metrics import ExecutionMetrics
from repro.execution.operators import ExecutionContext, PhysicalOp, Sort
from repro.execution.relation import Relation
from repro.storage.io_model import PAPER_SSD


@dataclass(eq=False)
class _Rows(PhysicalOp):
    """A leaf that emits fixed columns."""

    columns: dict

    def execute(self, ctx):
        return Relation(columns=self.columns)


def _sort(columns, keys):
    ctx = ExecutionContext(PAPER_SSD, DEFAULT_COSTS, ExecutionMetrics())
    return Sort(_Rows(columns), keys=keys).run(ctx)


@pytest.mark.parametrize(
    "values",
    [
        np.array([2**53, 2**53 + 1, 2**53 - 1], dtype=np.int64),
        np.array([2**64 - 2, 2**64 - 1, 3], dtype=np.uint64),
        np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1, 0], dtype=np.int64),
        np.array([5, -128, 127, 0], dtype=np.int8),
        np.array([True, False, True]),
        np.array([0.5, -np.inf, 2.0, np.inf]),
        np.array(["b", "c", "a"]),
    ],
    ids=["int64-2**53", "uint64-max", "int64-extremes", "int8", "bool", "float", "str"],
)
def test_descending_sort_reverses_exactly(values):
    got = _sort({"k": values}, (("k", False),)).column("k")
    expected = np.sort(values)[::-1]
    assert got.dtype == values.dtype
    assert got.tolist() == expected.tolist()


def test_descending_key_breaks_ties_in_input_order():
    keys = np.array([2**60 + 1, 2**60, 2**60 + 1, 2**60], dtype=np.int64)
    out = _sort(
        {"k": keys, "pos": np.arange(4)}, (("k", False),)
    )
    assert out.column("pos").tolist() == [0, 2, 1, 3]


def test_mixed_directions():
    a = np.array([1, 1, 2, 2], dtype=np.uint64)
    b = np.array([2**63, 2**63 + 1, 7, 2**64 - 1], dtype=np.uint64)
    out = _sort({"a": a, "b": b}, (("a", True), ("b", False)))
    assert out.column("b").tolist() == [2**63 + 1, 2**63, 2**64 - 1, 7]
