"""Every scan predicate a plan carries can key a table version's memo.

Propagation memoises a host predicate's mask under ``("holds", prefix,
predicate)``, so each predicate ``analyse_plan`` finds must hash, and an
equal predicate built separately must hash and compare equal to it (a
later lowering of the same query builds its expressions anew).  Pinned
over the 22 TPC-H queries under every scheme and the 240 generated
plans of the ``generated_small`` shape; analysis only, nothing runs
but the capture of the TPC-H stages.
"""

import dataclasses

import pytest

from repro import tpch
from repro.execution.expressions import Expr
from repro.planner.analysis import analyse_plan
from repro.serving import capture_tpch_items
from repro.tpch.queries import QUERIES
from repro.workload.generator import PlanGenerator


def _rebuild(value):
    """A structurally equal copy of an expression, built field by field
    from the constructor arguments (no object shared but leaf values)."""
    if isinstance(value, Expr):
        return type(value)(**{
            f.name: _rebuild(getattr(value, f.name))
            for f in dataclasses.fields(value) if f.init
        })
    if isinstance(value, tuple):
        return tuple(_rebuild(v) for v in value)
    return value


def _predicates(plans, schema):
    return [
        scan.predicate
        for plan in plans
        for scan in analyse_plan(plan.node, schema).scans.values()
        if scan.predicate is not None
    ]


def _assert_memo_keys(predicates):
    assert predicates
    for predicate in predicates:
        rebuilt = _rebuild(predicate)
        assert rebuilt is not predicate
        assert rebuilt == predicate and hash(rebuilt) == hash(predicate), predicate
        assert {("holds", "", predicate): 1}[("holds", "", rebuilt)] == 1


@pytest.mark.parametrize("scheme", ["plain", "pk", "bdcc"])
def test_tpch_host_predicates_hash_by_structure(physical_dbs, scheme):
    pdb = physical_dbs[scheme]
    items = capture_tpch_items(pdb, QUERIES)
    assert len({item.description.split("/")[0] for item in items}) == 22
    _assert_memo_keys(_predicates([item.plan for item in items], pdb.schema))


def test_generated_host_predicates_hash_by_structure():
    db = tpch.generate(scale_factor=0.006, seed=0)
    generator = PlanGenerator(db)
    plans = [generator.generate(0, index).plan for index in range(240)]
    _assert_memo_keys(_predicates(plans, db.schema))
