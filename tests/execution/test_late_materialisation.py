"""Late materialisation: a relation moves row indices and gathers a
column the first time it is read.

The property test holds every transform — takes, filters, the join
assemblies, sort- and limit-shaped takes, gathers — to the stepwise
eager gathers the engine made before, bit for bit; the rest pin the
materialisation points: one gather per read column, pickling, and a
query result leaving the engine."""

import gc
import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.aggregate import AggSpec
from repro.execution.expressions import col
from repro.execution.operators import _assemble_inner, _assemble_left
from repro.execution.relation import Relation, concat_relations
from repro.planner.executor import ExecutionOptions, Executor
from repro.planner.logical import scan
from repro.serving import ServingEngine
from repro.serving.streams import PlanListStream


def _base(rng, n, suffix):
    return {
        f"a{suffix}": rng.integers(-50, 50, n).astype(np.int64),
        f"s{suffix}": rng.integers(0, 999, n).astype(str),
        f"f{suffix}": rng.random(n).astype(np.float32),
        f"__grp__{suffix}": rng.integers(0, 8, n).astype(np.uint64),
    }


def _rows_of(rng, n):
    """A scan's row index over ``n`` stored rows: one run or positions."""
    lo = int(rng.integers(0, n + 1))
    hi = int(rng.integers(lo, n + 1))
    if rng.random() < 0.5:
        return slice(lo, hi)
    return np.sort(rng.choice(n, int(rng.integers(0, n + 1)), replace=False)).astype(np.int64)


def _scan(rng, suffix):
    """A lazy relation over fresh base arrays and its eager twin
    ``(columns, valid)``."""
    n = int(rng.integers(0, 30))
    base = _base(rng, n, suffix)
    rows = _rows_of(rng, n)
    return Relation.at(base, rows), ({k: v[rows] for k, v in base.items()}, {})


def _take(eager, idx):
    columns, valid = eager
    return {k: v[idx] for k, v in columns.items()}, {k: m[idx] for k, m in valid.items()}


def _beside(left, right):
    columns, valid = dict(left[0]), dict(left[1])
    for name, array in right[0].items():
        if name not in columns:
            columns[name] = array
            if name in right[1]:
                valid[name] = right[1][name]
    return columns, valid


def _num_rows(eager):
    return len(next(iter(eager[0].values()))) if eager[0] else 0


def _step(rng, op, lazy, eager, step):
    n = lazy.num_rows
    if op == "filter":
        mask = rng.random(n) < 0.6
        return lazy.filter(mask), _take(eager, mask)
    if op == "take":
        idx = rng.integers(0, n, int(rng.integers(0, 2 * n + 1))) if n else np.zeros(0, np.int64)
        return lazy.take(idx), _take(eager, idx)
    if op == "sort":
        order = np.lexsort((eager[0][next(iter(eager[0]))],)) if eager[0] else np.zeros(0, np.int64)
        return lazy.take(order), _take(eager, order)
    if op == "limit":
        idx = np.arange(min(n, int(rng.integers(0, 10))))
        return lazy.take(idx), _take(eager, idx)
    if op in ("inner", "left"):
        right, right_eager = _scan(rng, f"r{step}")  # names unique per join
        if right.num_rows and rng.random() < 0.5:  # a right side with a NULL column
            mask = rng.random(right.num_rows) < 0.7
            right.valid[f"fr{step}"] = right_eager[1][f"fr{step}"] = mask
        m = int(rng.integers(0, 2 * n + 1)) if n else 0
        lidx = rng.integers(0, n, m) if n else np.zeros(0, np.int64)
        if op == "inner":
            if not right.num_rows:
                return lazy, eager
            ridx = rng.integers(0, right.num_rows, m)
            return (
                _assemble_inner(lazy, right, lidx, ridx),
                _beside(_take(eager, lidx), _take(right_eager, ridx)),
            )
        ridx = rng.integers(-1, right.num_rows, m) if right.num_rows else np.full(m, -1)
        matched = ridx >= 0
        if right.num_rows:
            rcols, rvalid = _take(right_eager, np.where(matched, ridx, 0))
        else:
            rcols = {k: np.zeros(m, dtype=v.dtype) for k, v in right_eager[0].items()}
            rvalid = {}
        rvalid = {k: matched & rvalid[k] if k in rvalid else matched for k in rcols}
        return (
            _assemble_left(lazy, right, lidx, ridx),
            _beside(_take(eager, lidx), (rcols, rvalid)),
        )
    # concat: contiguous partitions (shared bases), some of them gathered
    # into arrays of their own (bases that differ)
    cuts = np.sort(rng.integers(0, n + 1, int(rng.integers(0, 4))))
    edges = [0, *cuts.tolist(), n]
    parts = [lazy.take(np.arange(a, b)) for a, b in zip(edges, edges[1:])]
    parts = [p.materialised() if rng.random() < 0.3 else p for p in parts]
    return concat_relations(parts), eager


def _assert_same(lazy, eager):
    columns, valid = eager
    assert lazy.num_rows == _num_rows(eager)
    assert list(lazy.columns) == list(columns)
    for name, expected in columns.items():
        got = lazy.column(name)
        assert got.dtype == expected.dtype, name
        assert got.tobytes() == expected.tobytes(), name
    assert sorted(lazy.valid) == sorted(valid)
    for name, mask in valid.items():
        assert lazy.valid[name].tobytes() == mask.tobytes(), name


OPS = st.sampled_from(["filter", "take", "sort", "limit", "inner", "left", "concat"])


class TestLazyEqualsEager:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.lists(OPS, max_size=7), st.sets(st.integers(0, 7)))
    def test_chains_of_transforms_equal_the_stepwise_gathers(self, seed, ops, reads):
        rng = np.random.default_rng(seed)
        lazy, eager = _scan(rng, "")
        for step, op in enumerate(ops):
            if step in reads:  # some columns already gathered mid-chain
                for name in list(lazy.columns)[::2]:
                    lazy.column(name)
            lazy, eager = _step(rng, op, lazy, eager, step)
        _assert_same(lazy, eager)
        _assert_same(pickle.loads(pickle.dumps(lazy)), eager)
        _assert_same(lazy.materialised(), eager)
        assert lazy.row_bytes() == Relation(eager[0]).row_bytes()


class TestMaterialisationPoints:
    def test_a_column_read_twice_is_gathered_once(self):
        base = {"a": np.arange(100), "b": np.arange(100.0)}
        rel = Relation.at(base, np.array([5, 1, 7])).filter(np.array([True, False, True]))
        assert rel.column("a") is rel.column("a")
        assert rel.columns["b"] is rel.column("b")
        assert rel.column("a").tolist() == [5, 7]

    def test_charges_read_dtypes_without_gathering(self):
        base = {"a": np.arange(10, dtype=np.int32), "s": np.array(["abcd"] * 10)}
        rel = Relation.at(base, np.arange(4))
        assert rel.row_bytes() == 8.0 and rel.data_bytes(["s"]) == 16.0
        assert len(_held_arrays(rel)) == 3  # the two bases and the index: nothing gathered

    def test_ten_rows_of_a_million_pickle_small(self):
        base = {"k": np.arange(1_000_000, dtype=np.int64), "v": np.zeros(1_000_000)}
        positions = Relation.at(base, np.arange(0, 1_000_000, 100_000))
        run = Relation.at(base, slice(500_000, 500_010))
        joined = _assemble_inner(positions, run, np.arange(10), np.arange(10)[::-1])
        for rel in (positions, run, joined):
            blob = pickle.dumps(rel, protocol=pickle.HIGHEST_PROTOCOL)
            assert len(blob) < 10_000
            back = pickle.loads(blob)
            assert back.num_rows == 10 and list(back.columns) == list(rel.columns)

    def test_an_executed_result_holds_only_its_rows(self, plain_db, bdcc_db):
        plans = [
            scan("lineitem", predicate=col("l_quantity").lt(3))
            .join(scan("orders"), on=[("l_orderkey", "o_orderkey")])
            .sort([("l_extendedprice", False)]).limit(10),
            scan("customer").join(scan("orders"), on=[("c_custkey", "o_custkey")], how="left")
            .groupby(["c_nationkey"], [AggSpec("n", "count", col("o_orderkey"))]),
        ]
        for pdb in (plain_db, bdcc_db):
            for options in (ExecutionOptions(), ExecutionOptions(workers=4)):
                for plan in plans:
                    rel = Executor(pdb, options=options).execute(plan).relation
                    _assert_holds_only_its_rows(rel)

    def test_a_kept_served_result_holds_only_its_rows(self, bdcc_db):
        plan = scan("lineitem", predicate=col("l_quantity").lt(3)).join(
            scan("part"), on=[("l_partkey", "p_partkey")]
        )
        with ServingEngine(
            bdcc_db, options=ExecutionOptions(workers=4), keep_results=True
        ) as engine:
            report = engine.serve([PlanListStream("s", [plan, plan])])
        assert len(report.queries) == 2
        for record in report.queries:
            assert record.relation.num_rows > 0
            _assert_holds_only_its_rows(record.relation)


def _held_arrays(rel):
    """Every array ``rel`` references, through its containers."""
    found, todo = [], list(gc.get_referents(rel))
    while todo:
        obj = todo.pop()
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, (dict, tuple, list)):
            todo.extend(obj.values() if isinstance(obj, dict) else obj)
    return found


def _assert_holds_only_its_rows(rel):
    arrays = _held_arrays(rel)
    assert len(arrays) >= len(rel.columns)
    assert all(len(a) <= rel.num_rows for a in arrays), [len(a) for a in arrays]
