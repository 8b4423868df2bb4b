"""Fragment-planning properties over seeded random plans.

For generated plans under every scheme, the partitioner must (a) split
scans into disjoint row sets that exactly cover the serial selection in
storage order, and (b) yield parallel executions whose gathered output
is *bit-identical* (values and row order) to the serial run.
"""

import dataclasses

import numpy as np
import pytest

from repro.parallel.exchange import Exchange, Repartition, UnionAll
from repro.parallel.fragments import plan_fragments
from repro.planner.executor import ExecutionOptions, Executor
from repro.workload.generator import PlanGenerator

from repro.execution.operators import PhysicalScan, walk_physical

SEED = 7
NUM_QUERIES = 10


def _identical(a, b) -> bool:
    if a.column_names != b.column_names or a.num_rows != b.num_rows:
        return False
    for name in a.column_names:
        x, y = a.column(name), b.column(name)
        equal = (
            np.array_equal(x, y, equal_nan=True)
            if x.dtype.kind == "f" and y.dtype.kind == "f"
            else np.array_equal(x, y)
        )
        if not equal:
            return False
    return True


@pytest.fixture(scope="module", params=["plain", "pk", "bdcc"])
def pdb(request, physical_dbs):
    return physical_dbs[request.param]


class TestPartitionCoverage:
    @pytest.mark.parametrize("index", range(NUM_QUERIES))
    def test_partitions_disjoint_and_cover(self, pdb, tpch_db, index):
        query = PlanGenerator(tpch_db).generate(SEED, index)
        executor = Executor(pdb, options=ExecutionOptions(workers=4, min_partition_rows=64))
        pplan = executor.lower(query.plan)
        parallel = executor.parallel_plan(pplan)
        serial_scans = {
            op.alias: op
            for op in walk_physical(pplan.root)
            if isinstance(op, PhysicalScan)
        }
        partitioned: dict = {}
        for fragment in parallel.fragments:
            if fragment.role != "partition":
                continue
            for op in walk_physical(fragment.root):
                if isinstance(op, PhysicalScan):
                    partitioned.setdefault(op.alias, []).append(op)
        for alias, parts in partitioned.items():
            pieces = [p.selection.rows() for p in parts]
            combined = np.concatenate(pieces)
            serial = serial_scans[alias].selection.rows()
            # disjoint: sizes add up; cover *in storage order*: the
            # concatenation reproduces the serial selection exactly
            assert sum(len(p) for p in pieces) == len(serial)
            assert np.array_equal(combined, serial), alias
            assert all(len(p) > 0 for p in pieces)

    @pytest.mark.parametrize("index", range(NUM_QUERIES))
    def test_union_of_fragment_outputs_equals_serial(self, pdb, tpch_db, index):
        query = PlanGenerator(tpch_db).generate(SEED, index)
        serial = Executor(pdb).execute(query.plan)
        for workers in (2, 4):
            par_exec = Executor(
                pdb, options=ExecutionOptions(workers=workers, min_partition_rows=64)
            )
            parallel = par_exec.execute(query.plan)
            assert _identical(serial.relation, parallel.relation), (
                f"workers={workers}: parallel output differs from serial"
            )


class TestFragmentStructure:
    def _parallel(self, pdb, plan, workers=4, min_rows=64):
        executor = Executor(
            pdb, options=ExecutionOptions(workers=workers, min_partition_rows=min_rows)
        )
        return executor, executor.parallel_plan(executor.lower(plan))

    def test_topological_order_and_deps(self, bdcc_db, tpch_db):
        for index in range(NUM_QUERIES):
            query = PlanGenerator(tpch_db).generate(SEED, index)
            _, parallel = self._parallel(bdcc_db, query.plan)
            for fragment in parallel.fragments:
                assert fragment.index == parallel.fragments.index(fragment)
                assert all(dep < fragment.index for dep in fragment.depends_on)
            assert parallel.final is parallel.fragments[-1]
            assert parallel.final.role in ("final", "serial")

    def test_exchange_leaves_reference_existing_fragments(self, bdcc_db, tpch_db):
        for index in range(NUM_QUERIES):
            query = PlanGenerator(tpch_db).generate(SEED, index)
            _, parallel = self._parallel(bdcc_db, query.plan)
            indices = {f.index for f in parallel.fragments}
            for op in parallel.operators():
                if isinstance(op, Exchange):
                    assert op.source_fragment in indices
                elif isinstance(op, Repartition):
                    sources = (
                        op.source_fragments
                        if op.mode == "rebin"
                        else (op.source_fragment,)
                    )
                    assert sources and all(s in indices for s in sources)

    def test_zone_alignment_on_bdcc(self, bdcc_db):
        from repro.planner.logical import scan

        executor, parallel = self._parallel(bdcc_db, scan("lineitem").node)
        partitions = [f for f in parallel.fragments if f.role == "partition"]
        assert len(partitions) >= 2
        offsets = set(
            np.sort(bdcc_db.table("lineitem").bdcc.count_table.offsets).tolist()
        )
        for fragment in partitions[1:]:  # every later partition starts on a zone
            scan_op = next(
                op for op in walk_physical(fragment.root) if isinstance(op, PhysicalScan)
            )
            assert int(scan_op.selection.starts[0]) in offsets

    def test_min_partition_rows_gates_splitting(self, bdcc_db):
        from repro.planner.logical import scan

        plan = scan("region")  # 5 rows: never worth fragments
        executor = Executor(bdcc_db, options=ExecutionOptions(workers=4))
        parallel = executor.parallel_plan(executor.lower(plan))
        assert not parallel.is_parallel
        assert parallel.final.role == "serial"

    def test_fragmenting_is_cached_and_never_relowers(self, bdcc_db):
        from repro.planner.logical import scan

        plan = scan("orders").join(scan("lineitem"), on=[("o_orderkey", "l_orderkey")])
        executor = Executor(
            bdcc_db, options=ExecutionOptions(workers=4, min_partition_rows=64)
        )
        pplan = executor.lower(plan)
        first = executor.parallel_plan(pplan)
        assert first.is_parallel
        assert executor.parallel_plan(pplan) is first  # cached
        assert first.serial is pplan
        # fragments never re-lower: unsplit subtrees (here the broadcast
        # build side) are the very operator objects of the lowering
        serial_ops = {id(op) for op in walk_physical(pplan.root)}
        broadcast = [f for f in first.fragments if f.role == "broadcast"]
        assert broadcast and all(id(f.root) in serial_ops for f in broadcast)
        # the options are frozen: a different worker count is another
        # executor, whose fragment plan is derived from its own cached
        # lowering — fragmenting never re-lowers
        with pytest.raises(dataclasses.FrozenInstanceError):
            executor.options.workers = 2
        other = Executor(bdcc_db, options=dataclasses.replace(executor.options, workers=2))
        other_pplan = other.lower(plan)
        assert other_pplan is not pplan  # a new executor lowers afresh
        second = other.parallel_plan(other_pplan)
        assert second is not first and second.serial is other_pplan
        assert other.lower(plan) is other_pplan

    def test_unionall_preserves_order_flag(self, bdcc_db):
        from repro.planner.logical import scan

        executor = Executor(
            bdcc_db, options=ExecutionOptions(workers=4, min_partition_rows=64)
        )
        parallel = executor.parallel_plan(executor.lower(scan("lineitem").node))
        gathers = [op for op in parallel.operators() if isinstance(op, UnionAll)]
        assert gathers and all(g.preserve_order for g in gathers)


class TestCoPartitionedJoins:
    """The reordering co-partition split: both join sides re-binned on
    the shared dimension bits, gathered in canonical order.  Contract:
    same row multiset as serial — *exactly*, the join only moves stored
    values — in a deterministic order that a canonical sort maps back
    onto the serial result bit-for-bit."""

    def _plan(self):
        from repro.execution.expressions import col
        from repro.planner.logical import scan

        return scan("orders").join(
            scan("lineitem", predicate=col("l_quantity").lt(12.0)),
            on=[("o_orderkey", "l_orderkey")],
        )

    def _executor(self, bdcc_db, **options):
        options.setdefault("workers", 4)
        options.setdefault("min_partition_rows", 64)
        return Executor(bdcc_db, options=ExecutionOptions(**options))

    @staticmethod
    def _canonical_sort(relation):
        names = sorted(relation.column_names)
        order = np.lexsort(tuple(relation.column(n) for n in reversed(names)))
        return {n: relation.column(n)[order] for n in names}

    def test_join_plan_copartitions_and_reorders(self, bdcc_db):
        executor = self._executor(bdcc_db)
        parallel = executor.parallel_plan(executor.lower(self._plan()))
        roles = {f.role for f in parallel.fragments}
        assert "copartition" in roles and "source" in roles
        assert parallel.reorders
        rebins = [
            op for op in parallel.operators()
            if isinstance(op, Repartition) and op.mode == "rebin"
        ]
        assert rebins and all(op.source_fragments for op in rebins)
        gathers = [op for op in parallel.operators() if isinstance(op, UnionAll)]
        assert any(g.canonical and not g.preserve_order for g in gathers)

    def test_output_is_serial_multiset_exactly(self, bdcc_db):
        plan = self._plan()
        serial = Executor(bdcc_db).execute(plan)
        parallel = self._executor(bdcc_db).execute(plan)
        assert serial.relation.num_rows == parallel.relation.num_rows
        a = self._canonical_sort(serial.relation)
        b = self._canonical_sort(parallel.relation)
        assert sorted(a) == sorted(b)
        for name in a:  # bit-for-bit after the canonical sort, no tolerance
            assert np.array_equal(a[name], b[name], equal_nan=False), name

    def test_canonical_order_is_deterministic(self, bdcc_db):
        plan = self._plan()
        first = self._executor(bdcc_db).execute(plan)
        second = self._executor(bdcc_db).execute(plan)
        assert _identical(first.relation, second.relation)

    def test_rebin_buckets_cover_producers_disjointly(self, bdcc_db):
        """Per join side, the per-partition rebin masks partition every
        producer row into exactly one bucket."""
        from repro.execution.operators import group_ids

        executor = self._executor(bdcc_db)
        parallel = executor.parallel_plan(executor.lower(self._plan()))
        results = {}
        ctx_results = {}
        # run producer fragments once, like the scheduler does
        from repro.execution.cost import DEFAULT_COSTS
        from repro.execution.operators import ExecutionContext
        from repro.storage.io_model import PAPER_SSD
        from repro.execution.metrics import ExecutionMetrics

        for fragment in parallel.fragments:
            ctx = ExecutionContext(
                PAPER_SSD, DEFAULT_COSTS, ExecutionMetrics(),
                fragment_results=ctx_results,
            )
            ctx_results[fragment.index] = fragment.root.run(ctx)
        rebins = [
            op for op in parallel.operators()
            if isinstance(op, Repartition) and op.mode == "rebin"
        ]
        by_side = {}
        for op in rebins:
            by_side.setdefault((op.source_fragments, op.on), []).append(op)
        assert by_side
        for (sources, on), side_ops in by_side.items():
            assert sorted(op.partition for op in side_ops) == list(
                range(side_ops[0].partitions)
            )
            for source in sources:
                rel = ctx_results[source]
                bins = group_ids(rel, on)
                parts = (bins * np.uint64(side_ops[0].partitions)) >> np.uint64(
                    side_ops[0].total_bits
                )
                # every row lands in exactly one existing partition
                assert parts.max(initial=0) < side_ops[0].partitions

    def test_disabled_copartition_falls_back_to_broadcast(self, bdcc_db):
        executor = self._executor(bdcc_db, enable_copartition=False)
        parallel = executor.parallel_plan(executor.lower(self._plan()))
        assert not parallel.reorders
        assert any(f.role == "broadcast" for f in parallel.fragments)

    def test_order_requiring_ancestors_block_copartition(self, bdcc_db):
        """A LIMIT whose prefix is not re-established by a sort (the
        result-contract barrier) keeps the join on the bit-identical
        broadcast path; adding the sort re-admits the reorder."""
        bare_limit = self._plan().limit(50)
        executor = self._executor(bdcc_db)
        parallel = executor.parallel_plan(executor.lower(bare_limit))
        assert not parallel.reorders

        sorted_limit = (
            self._plan()
            .sort([("o_orderkey", True), ("l_linenumber", True)])
            .limit(50)
        )
        executor = self._executor(bdcc_db)
        parallel = executor.parallel_plan(executor.lower(sorted_limit))
        assert parallel.reorders


class TestPartialAggregation:
    """Two-phase aggregation: decomposable aggregates lower into
    per-fragment ``PartialAgg``s below the gather plus one ``MergeAgg``
    above a canonical ``UnionAll`` — gated on the result contract,
    decomposability of every aggregate, and the group-cardinality cost
    rule.  Contract: same row multiset as serial within float tolerance
    (the merge re-sums in gather order), deterministic across runs."""

    def _plan(self):
        from repro.execution.aggregate import AggSpec
        from repro.execution.expressions import col
        from repro.planner.logical import scan

        return (
            scan("lineitem")
            .groupby(
                ("l_returnflag",),
                [
                    AggSpec("s", "sum", col("l_extendedprice")),
                    AggSpec("a", "avg", col("l_quantity")),
                    AggSpec("lo", "min", col("l_discount")),
                    AggSpec("hi", "max", col("l_discount")),
                    AggSpec("c", "count"),
                ],
            )
            .sort([("l_returnflag", True)])
        )

    def _executor(self, pdb, **options):
        options.setdefault("workers", 4)
        options.setdefault("min_partition_rows", 64)
        return Executor(pdb, options=ExecutionOptions(**options))

    def test_plan_shape_partial_below_merge_above(self, bdcc_db):
        executor = self._executor(bdcc_db)
        parallel = executor.parallel_plan(executor.lower(self._plan()))
        assert parallel.is_parallel and parallel.reorders and parallel.reaggregates
        partials = [op for op in parallel.operators() if op.kind == "PartialAgg"]
        merges = [op for op in parallel.operators() if op.kind == "MergeAgg"]
        assert len(partials) >= 2 and len(merges) == 1
        # every partition fragment pre-aggregates; the one merge sits
        # directly above the canonical (order-insensitive) gather
        partitions = [f for f in parallel.fragments if f.role == "partition"]
        assert partitions and all(
            any(op.kind == "PartialAgg" for op in walk_physical(f.root))
            for f in partitions
        )
        gather = merges[0].input
        assert isinstance(gather, UnionAll) and not gather.preserve_order
        assert gather.canonical
        # the serial HashAgg tail is fully replaced
        assert not any(op.kind == "HashAgg" for op in parallel.operators())
        # avg decomposes into sum + companion count; companions never
        # survive the merge
        partial_names = [spec.name for spec in partials[0].aggs]
        assert "__pcnt__a" in partial_names
        assert [m.name for m in merges[0].merges] == ["s", "a", "lo", "hi", "c"]

    def test_results_match_serial_multiset_and_are_deterministic(self, pdb):
        from repro.workload.differential import normalized_rows, rows_match

        serial = Executor(pdb).execute(self._plan())
        executor = self._executor(pdb)
        parallel = executor.execute(self._plan())
        names = sorted(serial.relation.column_names)
        assert rows_match(
            normalized_rows(serial.relation.columns, names),
            normalized_rows(parallel.relation.columns, names),
        )
        again = self._executor(pdb).execute(self._plan())
        assert _identical(parallel.relation, again.relation)

    @pytest.mark.parametrize("scheme", ["plain", "pk"])
    def test_empty_partition_keeps_column_types(self, physical_dbs, tpch_db, scheme):
        """A partition whose rows all fail the predicate emits zero
        partial rows; their columns must have the types the other
        partitions' partials have, or the gather's concatenate upcasts
        and an integer max comes back float64 (it did).  ORDERS is
        stored in key order on plain and pk, so a low-key predicate
        empties the later partitions once zone maps are off."""
        from repro.execution.aggregate import AggSpec
        from repro.execution.expressions import col
        from repro.planner.logical import scan
        from repro.workload.differential import twin_mismatch

        cut = int(np.percentile(tpch_db.column("orders", "o_orderkey"), 10))
        plan = scan("orders", predicate=col("o_orderkey").lt(cut)).groupby(
            [],
            [
                AggSpec("mx", "max", col("o_custkey")),
                AggSpec("lo", "min", col("o_orderstatus")),
                AggSpec("s", "sum", col("o_custkey")),
                AggSpec("c", "count"),
            ],
        )
        pdb = physical_dbs[scheme]
        serial = Executor(pdb, options=ExecutionOptions(enable_minmax=False)).execute(plan)
        executor = self._executor(pdb, enable_minmax=False, min_partition_rows=256)
        parallel = executor.execute(plan)
        partial_rows = [
            actuals.rows_in
            for actuals in parallel.metrics.operators.values()
            if actuals.kind == "PartialAgg"
        ]
        assert 0 in partial_rows and any(partial_rows)
        assert serial.relation.column("mx").dtype == np.int64
        assert twin_mismatch(serial.relation, parallel.relation, exact=False) is None
        for name in serial.relation.column_names:
            assert parallel.relation.column(name).dtype == serial.relation.column(name).dtype

    def test_ablation_disables_rewrite_and_stays_bit_identical(self, pdb):
        serial = Executor(pdb).execute(self._plan())
        executor = self._executor(pdb, enable_partial_agg=False)
        parallel = executor.parallel_plan(executor.lower(self._plan()))
        assert not any(
            op.kind in ("PartialAgg", "MergeAgg") for op in parallel.operators()
        )
        assert not parallel.reaggregates
        result = executor.execute(self._plan())
        assert _identical(serial.relation, result.relation)

    def test_order_requiring_ancestors_block_partial_agg(self, bdcc_db):
        """A LIMIT above the aggregate whose prefix no sort
        re-establishes is the result-contract barrier: the plan keeps
        the serial gather-then-aggregate tail.  Adding the sort
        re-admits the rewrite."""
        from repro.execution.aggregate import AggSpec
        from repro.execution.expressions import col
        from repro.planner.logical import scan

        def agg_plan():
            return scan("lineitem").groupby(
                ("l_returnflag", "l_linestatus"),
                [AggSpec("s", "sum", col("l_extendedprice"))],
            )

        executor = self._executor(bdcc_db)
        bare_limit = executor.parallel_plan(executor.lower(agg_plan().limit(3)))
        assert bare_limit.is_parallel
        assert not any(
            op.kind == "PartialAgg" for op in bare_limit.operators()
        )
        assert not bare_limit.reorders

        sorted_limit = executor.parallel_plan(
            executor.lower(
                agg_plan().sort([("l_returnflag", True)]).limit(3)
            )
        )
        assert any(op.kind == "PartialAgg" for op in sorted_limit.operators())

    def test_sorted_stream_agg_consumer_blocks_rewrite(self, pk_db):
        """A StreamAgg whose sorted output a LIMIT consumes directly is
        the same barrier: the rewrite would hand the consumer merged
        rows in gather order.  A sort in between re-admits it (the
        defensive StreamAgg path still splits: PK page ranges are
        contiguous, so the split stays ordered)."""
        from repro.execution.aggregate import AggSpec
        from repro.execution.expressions import col
        from repro.planner.logical import scan

        def agg_plan():
            return scan("lineitem").groupby(
                ("l_orderkey",), [AggSpec("s", "sum", col("l_extendedprice"))]
            )

        executor = self._executor(pk_db)
        pplan = executor.lower(agg_plan().limit(5))
        assert any(
            op.kind == "StreamAgg" for op in walk_physical(pplan.root)
        ), "PK clustering must pick the streaming aggregate"
        parallel = executor.parallel_plan(pplan)
        assert parallel.is_parallel
        assert not any(
            op.kind == "PartialAgg" for op in parallel.operators()
        )

        resorted = agg_plan().sort([("l_orderkey", True)]).limit(5)
        parallel = executor.parallel_plan(executor.lower(resorted))
        assert any(op.kind == "PartialAgg" for op in parallel.operators())

    def test_cost_rule_keeps_high_cardinality_groupings_serial(self, bdcc_db):
        """When the estimated group count is within a factor of the
        input rows (supplier: 50 rows, ~19 estimated groups), partial
        aggregation cannot shrink the exchange enough to pay — the
        gather-then-aggregate tail stays."""
        from repro.execution.aggregate import AggSpec
        from repro.execution.expressions import col
        from repro.planner.logical import scan

        plan = scan("supplier").groupby(
            ("s_nationkey",), [AggSpec("s", "sum", col("s_acctbal"))]
        )
        executor = self._executor(bdcc_db, min_partition_rows=8)
        parallel = executor.parallel_plan(executor.lower(plan))
        assert parallel.is_parallel, "the scan itself still splits"
        assert not any(
            op.kind == "PartialAgg" for op in parallel.operators()
        )

    def test_non_decomposable_aggregate_blocks_rewrite(self, bdcc_db):
        from repro.execution.aggregate import AggSpec
        from repro.execution.expressions import col
        from repro.planner.logical import scan

        plan = scan("lineitem").groupby(
            ("l_returnflag",),
            [
                AggSpec("s", "sum", col("l_extendedprice")),
                AggSpec("d", "count_distinct", col("l_orderkey")),
            ],
        ).sort([("l_returnflag", True)])
        executor = self._executor(bdcc_db)
        parallel = executor.parallel_plan(executor.lower(plan))
        assert parallel.is_parallel
        assert not any(
            op.kind == "PartialAgg" for op in parallel.operators()
        )
