"""Parallel TPC-H: per-contract result equality (bit-identical without
reordering exchanges, deterministic order-insensitive with them),
speedups — including co-partitioned joins beating the broadcast-only
path — metric invariants, and the golden fragment rendering of
``explain(analyze=True)``."""

import re

import numpy as np
import pytest

from repro.planner.executor import ExecutionOptions, Executor
from repro.planner.explain import explain, format_parallel_plan
from repro.tpch.queries import QUERIES
from repro.tpch.runner import QueryRunner
from repro.workload.differential import normalized_rows, rows_match


def _run(pdb, environment, qname, workers=1, copartition=True, partial_agg=True):
    executor = Executor(
        pdb,
        disk=environment.disk,
        costs=environment.cost_model,
        options=ExecutionOptions(
            workers=workers,
            enable_copartition=copartition,
            enable_partial_agg=partial_agg,
        ),
    )
    runner = QueryRunner(executor)
    result = QUERIES[qname](runner)
    reorders = workers > 1 and any(
        executor.parallel_plan(p).reorders for p in runner.physical_plans
    )
    return result, runner.metrics, reorders


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


def _same_multiset(a, b) -> bool:
    names = sorted(a.column_names)
    if names != sorted(b.column_names):
        return False
    return rows_match(
        normalized_rows(a.columns, names), normalized_rows(b.columns, names)
    )


class TestAllQueriesMatchSerial:
    """Every query's parallel result equals serial *per its contract*:
    bit-for-bit (order included) when the fragment plan has no
    reordering exchange; as an order-insensitive multiset — plus exact
    run-to-run determinism — when a co-partitioned join gathered in
    canonical order."""

    @pytest.mark.parametrize("qname", sorted(QUERIES))
    def test_bdcc_workers4_matches_serial(self, bdcc_db, environment, qname):
        serial, serial_metrics, _ = _run(bdcc_db, environment, qname, workers=1)
        parallel, metrics, reorders = _run(bdcc_db, environment, qname, workers=4)
        if reorders:
            assert _same_multiset(serial.relation, parallel.relation), qname
            again, _, _ = _run(bdcc_db, environment, qname, workers=4)
            assert _identical(parallel.relation, again.relation), (
                f"{qname}: canonical order must be deterministic across runs"
            )
        else:
            assert _identical(serial.relation, parallel.relation), qname
        # per-fragment exclusive actuals sum exactly to the query totals
        frag_io = sum(f.io_seconds for f in metrics.fragments)
        frag_cpu = sum(f.cpu_seconds for f in metrics.fragments)
        assert frag_io == pytest.approx(metrics.io_seconds, abs=1e-12)
        assert frag_cpu == pytest.approx(metrics.cpu_seconds, abs=1e-12)
        op_total = sum(
            a.io_seconds + a.cpu_seconds for a in metrics.operators.values()
        )
        assert op_total == pytest.approx(metrics.total_seconds, rel=1e-9)
        # the schedule can never beat perfect overlap or lose to serial
        assert metrics.makespan_seconds <= metrics.total_seconds + 1e-12
        assert metrics.makespan_seconds >= metrics.total_seconds / 4 - 1e-12

    @pytest.mark.parametrize("qname", sorted(QUERIES))
    def test_broadcast_only_path_stays_bit_identical(
        self, bdcc_db, environment, qname
    ):
        """With co-partitioning and partial aggregation disabled every
        parallel plan keeps the bit-identical contract — the pre-existing
        guarantee survives as an ablation."""
        serial, _, _ = _run(bdcc_db, environment, qname, workers=1)
        parallel, _, reorders = _run(
            bdcc_db, environment, qname, workers=4,
            copartition=False, partial_agg=False,
        )
        assert not reorders, qname
        assert _identical(serial.relation, parallel.relation), qname


class TestSpeedup:
    @pytest.mark.parametrize("qname", ["Q01", "Q06"])
    def test_scan_heavy_queries_reach_2x(self, bdcc_db, environment, qname):
        _, serial_metrics, _ = _run(bdcc_db, environment, qname, workers=1)
        _, parallel_metrics, _ = _run(bdcc_db, environment, qname, workers=4)
        speedup = serial_metrics.total_seconds / parallel_metrics.makespan_seconds
        assert speedup >= 2.0, f"{qname}: {speedup:.2f}x"

    def test_makespan_non_increasing_in_workers(self, bdcc_db, environment):
        spans = {}
        for workers in (1, 2, 4, 8):
            _, metrics, _ = _run(bdcc_db, environment, "Q06", workers=workers)
            spans[workers] = metrics.makespan_seconds
        # strictly non-increasing while the disk has free streams ...
        assert spans[2] <= spans[1] * 1.02 and spans[4] <= spans[2] * 1.02, spans
        # ... and beyond the stream count extra workers may only pay the
        # (bounded) per-fragment overhead, never regress materially
        assert spans[8] <= spans[4] * 1.10, spans

    def test_q03_copartition_beats_broadcast(self, bdcc_db, environment):
        """The headline of this layer: Q3's join serialised on its
        broadcast build side; splitting both sides along the shared
        dimension bits yields a real >= 1.5x at 4 workers."""
        _, serial_metrics, _ = _run(bdcc_db, environment, "Q03", workers=1)
        _, broadcast_metrics, bc_reorders = _run(
            bdcc_db, environment, "Q03", workers=4, copartition=False
        )
        _, copart_metrics, cp_reorders = _run(
            bdcc_db, environment, "Q03", workers=4
        )
        assert not bc_reorders and cp_reorders
        serial = serial_metrics.total_seconds
        broadcast = serial / broadcast_metrics.makespan_seconds
        copart = serial / copart_metrics.makespan_seconds
        assert copart >= 1.5, f"co-partitioned Q03: {copart:.2f}x"
        assert copart > broadcast, (
            f"co-partition ({copart:.2f}x) must beat broadcast ({broadcast:.2f}x)"
        )

    def test_q03_makespan_monotone_with_copartition(self, bdcc_db, environment):
        spans = {}
        for workers in (1, 2, 4, 8):
            _, metrics, _ = _run(bdcc_db, environment, "Q03", workers=workers)
            spans[workers] = metrics.makespan_seconds
        assert spans[2] <= spans[1] * 1.02 and spans[4] <= spans[2] * 1.02, spans
        assert spans[8] <= spans[4] * 1.10, spans


_NUMBER = re.compile(r"\d+(?:\.\d+)?")


def _masked_fragment_skeleton(pdb, environment, qname, workers=4) -> str:
    executor = Executor(
        pdb,
        disk=environment.disk,
        costs=environment.cost_model,
        options=ExecutionOptions(workers=workers),
    )
    runner = QueryRunner(executor)
    QUERIES[qname](runner)
    pplan = runner.physical_plans[-1]
    parallel = executor.parallel_plan(pplan)
    text = format_parallel_plan(
        parallel, verbose=False, metrics=runner.stage_metrics[-1]
    )
    return _NUMBER.sub("#", text)


_Q01_FRAGMENTS = """\
fragment # [partition] partition #/#: scan lineitem: # zone-aligned partitions over # rows + partial pre-aggregation  (worker # start=#ms busy=#ms wait=#ms)
  PartialAgg [l_returnflag, l_linestatus] -> sum_qty=sum, sum_base_price=sum, sum_disc_price=sum, sum_charge=sum, avg_qty=sum, __pcnt__avg_qty=count, avg_price=sum, __pcnt__avg_price=count, avg_disc=sum, __pcnt__avg_disc=count, count_order=count  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    Scan lineitem WHERE ...  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
fragment # [partition] partition #/#: scan lineitem: # zone-aligned partitions over # rows + partial pre-aggregation  (worker # start=#ms busy=#ms wait=#ms)
  PartialAgg [l_returnflag, l_linestatus] -> sum_qty=sum, sum_base_price=sum, sum_disc_price=sum, sum_charge=sum, avg_qty=sum, __pcnt__avg_qty=count, avg_price=sum, __pcnt__avg_price=count, avg_disc=sum, __pcnt__avg_disc=count, count_order=count  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    Scan lineitem WHERE ...  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
fragment # [partition] partition #/#: scan lineitem: # zone-aligned partitions over # rows + partial pre-aggregation  (worker # start=#ms busy=#ms wait=#ms)
  PartialAgg [l_returnflag, l_linestatus] -> sum_qty=sum, sum_base_price=sum, sum_disc_price=sum, sum_charge=sum, avg_qty=sum, __pcnt__avg_qty=count, avg_price=sum, __pcnt__avg_price=count, avg_disc=sum, __pcnt__avg_disc=count, count_order=count  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    Scan lineitem WHERE ...  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
fragment # [partition] partition #/#: scan lineitem: # zone-aligned partitions over # rows + partial pre-aggregation  (worker # start=#ms busy=#ms wait=#ms)
  PartialAgg [l_returnflag, l_linestatus] -> sum_qty=sum, sum_base_price=sum, sum_disc_price=sum, sum_charge=sum, avg_qty=sum, __pcnt__avg_qty=count, avg_price=sum, __pcnt__avg_price=count, avg_disc=sum, __pcnt__avg_disc=count, count_order=count  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    Scan lineitem WHERE ...  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
fragment # [final] serial tail above the gathers <- f#, f#, f#, f#  (worker # start=#ms busy=#ms wait=#ms)
  Sort [l_returnflag, l_linestatus]  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    MergeAgg [l_returnflag, l_linestatus] -> sum_qty=sum, sum_base_price=sum, sum_disc_price=sum, sum_charge=sum, avg_qty=avg, avg_price=avg, avg_disc=avg, count_order=count  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
      UnionAll [# partitions, canonical order]  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
        Exchange <- fragment # [#/#]  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
        Exchange <- fragment # [#/#]  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
        Exchange <- fragment # [#/#]  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
        Exchange <- fragment # [#/#]  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
makespan: # ms over # workers (# ms resource-seconds, speedup #x)"""

_Q06_FRAGMENTS = """\
fragment # [partition] partition #/#: scan lineitem: # zone-aligned partitions over # rows + partial pre-aggregation  (worker # start=#ms busy=#ms wait=#ms)
  PartialAgg [<scalar>] -> revenue=sum  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    Scan lineitem WHERE ...  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
fragment # [partition] partition #/#: scan lineitem: # zone-aligned partitions over # rows + partial pre-aggregation  (worker # start=#ms busy=#ms wait=#ms)
  PartialAgg [<scalar>] -> revenue=sum  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    Scan lineitem WHERE ...  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
fragment # [partition] partition #/#: scan lineitem: # zone-aligned partitions over # rows + partial pre-aggregation  (worker # start=#ms busy=#ms wait=#ms)
  PartialAgg [<scalar>] -> revenue=sum  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    Scan lineitem WHERE ...  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
fragment # [partition] partition #/#: scan lineitem: # zone-aligned partitions over # rows + partial pre-aggregation  (worker # start=#ms busy=#ms wait=#ms)
  PartialAgg [<scalar>] -> revenue=sum  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    Scan lineitem WHERE ...  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
fragment # [final] serial tail above the gathers <- f#, f#, f#, f#  (worker # start=#ms busy=#ms wait=#ms)
  MergeAgg [<scalar>] -> revenue=sum  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    UnionAll [# partitions, canonical order]  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
      Exchange <- fragment # [#/#]  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
      Exchange <- fragment # [#/#]  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
      Exchange <- fragment # [#/#]  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
      Exchange <- fragment # [#/#]  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
makespan: # ms over # workers (# ms resource-seconds, speedup #x)"""


_Q03_FRAGMENTS = """\
fragment # [source] repartition source: serial subtree  (worker # start=#ms busy=#ms wait=#ms)
  SandwichJoin inner ON c_custkey=o_custkey  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    Scan customer WHERE ...  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    Scan orders WHERE ...  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
fragment # [source] repartition source #/#: scan lineitem: # zone-aligned partitions over # rows  (worker # start=#ms busy=#ms wait=#ms)
  Scan lineitem WHERE ...  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
fragment # [source] repartition source #/#: scan lineitem: # zone-aligned partitions over # rows  (worker # start=#ms busy=#ms wait=#ms)
  Scan lineitem WHERE ...  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
fragment # [copartition] copartition #/#: co-partitioned SandwichJoin on D_DATE+D_NATION @# bits: # bin ranges over # live rows (both sides split) <- f#, f#, f#  (worker # start=#ms busy=#ms wait=#ms)
  SandwichJoin inner ON o_orderkey=l_orderkey  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    Repartition rebin [#/#] on __grp__orders__#+__grp__orders__#@# <- f#  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    Repartition rebin [#/#] on __grp__lineitem__#+__grp__lineitem__#@# <- f#, f#  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
fragment # [copartition] copartition #/#: co-partitioned SandwichJoin on D_DATE+D_NATION @# bits: # bin ranges over # live rows (both sides split) <- f#, f#, f#  (worker # start=#ms busy=#ms wait=#ms)
  SandwichJoin inner ON o_orderkey=l_orderkey  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    Repartition rebin [#/#] on __grp__orders__#+__grp__orders__#@# <- f#  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    Repartition rebin [#/#] on __grp__lineitem__#+__grp__lineitem__#@# <- f#, f#  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
fragment # [copartition] copartition #/#: co-partitioned SandwichJoin on D_DATE+D_NATION @# bits: # bin ranges over # live rows (both sides split) <- f#, f#, f#  (worker # start=#ms busy=#ms wait=#ms)
  SandwichJoin inner ON o_orderkey=l_orderkey  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    Repartition rebin [#/#] on __grp__orders__#+__grp__orders__#@# <- f#  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    Repartition rebin [#/#] on __grp__lineitem__#+__grp__lineitem__#@# <- f#, f#  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
fragment # [copartition] copartition #/#: co-partitioned SandwichJoin on D_DATE+D_NATION @# bits: # bin ranges over # live rows (both sides split) <- f#, f#, f#  (worker # start=#ms busy=#ms wait=#ms)
  SandwichJoin inner ON o_orderkey=l_orderkey  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    Repartition rebin [#/#] on __grp__orders__#+__grp__orders__#@# <- f#  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    Repartition rebin [#/#] on __grp__lineitem__#+__grp__lineitem__#@# <- f#, f#  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
fragment # [final] serial tail above the gathers <- f#, f#, f#, f#  (worker # start=#ms busy=#ms wait=#ms)
  Limit #  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    Sort [revenue desc, o_orderdate]  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
      SandwichAgg [l_orderkey, o_orderdate, o_shippriority] -> revenue=sum  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
        UnionAll [# partitions, canonical order]  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
          Exchange <- fragment # [#/#]  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
          Exchange <- fragment # [#/#]  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
          Exchange <- fragment # [#/#]  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
          Exchange <- fragment # [#/#]  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
makespan: # ms over # workers (# ms resource-seconds, speedup #x)"""

_Q18_FRAGMENTS = """\
fragment # [broadcast] SandwichJoin left (build) side, shipped to every partition  (worker # start=#ms busy=#ms wait=#ms)
  Scan customer  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
fragment # [broadcast] SandwichJoin right (build) side, shipped to every partition  (worker # start=#ms busy=#ms wait=#ms)
  Filter  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    SandwichAgg [l#.l_orderkey] -> sum_qty=sum  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
      Scan lineitem as l#  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
fragment # [source] repartition source #/#: scan orders: # zone-aligned partitions over # rows <- f#, f#  (worker # start=#ms busy=#ms wait=#ms)
  SandwichJoin semi ON o_orderkey=l#.l_orderkey  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    SandwichJoin inner ON c_custkey=o_custkey  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
      Repartition broadcast <- fragment #  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
      Scan orders  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    Repartition broadcast <- fragment #  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
fragment # [source] repartition source #/#: scan orders: # zone-aligned partitions over # rows <- f#, f#  (worker # start=#ms busy=#ms wait=#ms)
  SandwichJoin semi ON o_orderkey=l#.l_orderkey  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    SandwichJoin inner ON c_custkey=o_custkey  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
      Repartition broadcast <- fragment #  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
      Scan orders  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    Repartition broadcast <- fragment #  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
fragment # [source] repartition source #/#: scan orders: # zone-aligned partitions over # rows <- f#, f#  (worker # start=#ms busy=#ms wait=#ms)
  SandwichJoin semi ON o_orderkey=l#.l_orderkey  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    SandwichJoin inner ON c_custkey=o_custkey  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
      Repartition broadcast <- fragment #  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
      Scan orders  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    Repartition broadcast <- fragment #  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
fragment # [source] repartition source #/#: scan lineitem: # zone-aligned partitions over # rows  (worker # start=#ms busy=#ms wait=#ms)
  Scan lineitem  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
fragment # [source] repartition source #/#: scan lineitem: # zone-aligned partitions over # rows  (worker # start=#ms busy=#ms wait=#ms)
  Scan lineitem  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
fragment # [source] repartition source #/#: scan lineitem: # zone-aligned partitions over # rows  (worker # start=#ms busy=#ms wait=#ms)
  Scan lineitem  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
fragment # [source] repartition source #/#: scan lineitem: # zone-aligned partitions over # rows  (worker # start=#ms busy=#ms wait=#ms)
  Scan lineitem  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
fragment # [source] repartition source #/#: scan lineitem: # zone-aligned partitions over # rows  (worker # start=#ms busy=#ms wait=#ms)
  Scan lineitem  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
fragment # [source] repartition source #/#: scan lineitem: # zone-aligned partitions over # rows  (worker # start=#ms busy=#ms wait=#ms)
  Scan lineitem  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
fragment # [source] repartition source #/#: scan lineitem: # zone-aligned partitions over # rows  (worker # start=#ms busy=#ms wait=#ms)
  Scan lineitem  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
fragment # [source] repartition source #/#: scan lineitem: # zone-aligned partitions over # rows  (worker # start=#ms busy=#ms wait=#ms)
  Scan lineitem  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
fragment # [copartition] copartition #/#: co-partitioned SandwichJoin on D_DATE+D_NATION @# bits: # bin ranges over # live rows (both sides split) <- f#, f#, f#, f#, f#, f#, f#, f#, f#, f#, f#  (worker # start=#ms busy=#ms wait=#ms)
  SandwichJoin inner ON o_orderkey=l_orderkey  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    Repartition rebin [#/#] on __grp__orders__#+__grp__orders__#@# <- f#, f#, f#  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    Repartition rebin [#/#] on __grp__lineitem__#+__grp__lineitem__#@# <- f#, f#, f#, f#, f#, f#, f#, f#  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
fragment # [copartition] copartition #/#: co-partitioned SandwichJoin on D_DATE+D_NATION @# bits: # bin ranges over # live rows (both sides split) <- f#, f#, f#, f#, f#, f#, f#, f#, f#, f#, f#  (worker # start=#ms busy=#ms wait=#ms)
  SandwichJoin inner ON o_orderkey=l_orderkey  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    Repartition rebin [#/#] on __grp__orders__#+__grp__orders__#@# <- f#, f#, f#  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    Repartition rebin [#/#] on __grp__lineitem__#+__grp__lineitem__#@# <- f#, f#, f#, f#, f#, f#, f#, f#  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
fragment # [copartition] copartition #/#: co-partitioned SandwichJoin on D_DATE+D_NATION @# bits: # bin ranges over # live rows (both sides split) <- f#, f#, f#, f#, f#, f#, f#, f#, f#, f#, f#  (worker # start=#ms busy=#ms wait=#ms)
  SandwichJoin inner ON o_orderkey=l_orderkey  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    Repartition rebin [#/#] on __grp__orders__#+__grp__orders__#@# <- f#, f#, f#  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    Repartition rebin [#/#] on __grp__lineitem__#+__grp__lineitem__#@# <- f#, f#, f#, f#, f#, f#, f#, f#  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
fragment # [copartition] copartition #/#: co-partitioned SandwichJoin on D_DATE+D_NATION @# bits: # bin ranges over # live rows (both sides split) <- f#, f#, f#, f#, f#, f#, f#, f#, f#, f#, f#  (worker # start=#ms busy=#ms wait=#ms)
  SandwichJoin inner ON o_orderkey=l_orderkey  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    Repartition rebin [#/#] on __grp__orders__#+__grp__orders__#@# <- f#, f#, f#  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    Repartition rebin [#/#] on __grp__lineitem__#+__grp__lineitem__#@# <- f#, f#, f#, f#, f#, f#, f#, f#  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
fragment # [copartition] copartition #/#: co-partitioned SandwichJoin on D_DATE+D_NATION @# bits: # bin ranges over # live rows (both sides split) <- f#, f#, f#, f#, f#, f#, f#, f#, f#, f#, f#  (worker # start=#ms busy=#ms wait=#ms)
  SandwichJoin inner ON o_orderkey=l_orderkey  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    Repartition rebin [#/#] on __grp__orders__#+__grp__orders__#@# <- f#, f#, f#  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    Repartition rebin [#/#] on __grp__lineitem__#+__grp__lineitem__#@# <- f#, f#, f#, f#, f#, f#, f#, f#  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
fragment # [copartition] copartition #/#: co-partitioned SandwichJoin on D_DATE+D_NATION @# bits: # bin ranges over # live rows (both sides split) <- f#, f#, f#, f#, f#, f#, f#, f#, f#, f#, f#  (worker # start=#ms busy=#ms wait=#ms)
  SandwichJoin inner ON o_orderkey=l_orderkey  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    Repartition rebin [#/#] on __grp__orders__#+__grp__orders__#@# <- f#, f#, f#  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    Repartition rebin [#/#] on __grp__lineitem__#+__grp__lineitem__#@# <- f#, f#, f#, f#, f#, f#, f#, f#  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
fragment # [copartition] copartition #/#: co-partitioned SandwichJoin on D_DATE+D_NATION @# bits: # bin ranges over # live rows (both sides split) <- f#, f#, f#, f#, f#, f#, f#, f#, f#, f#, f#  (worker # start=#ms busy=#ms wait=#ms)
  SandwichJoin inner ON o_orderkey=l_orderkey  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    Repartition rebin [#/#] on __grp__orders__#+__grp__orders__#@# <- f#, f#, f#  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    Repartition rebin [#/#] on __grp__lineitem__#+__grp__lineitem__#@# <- f#, f#, f#, f#, f#, f#, f#, f#  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
fragment # [copartition] copartition #/#: co-partitioned SandwichJoin on D_DATE+D_NATION @# bits: # bin ranges over # live rows (both sides split) <- f#, f#, f#, f#, f#, f#, f#, f#, f#, f#, f#  (worker # start=#ms busy=#ms wait=#ms)
  SandwichJoin inner ON o_orderkey=l_orderkey  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    Repartition rebin [#/#] on __grp__orders__#+__grp__orders__#@# <- f#, f#, f#  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    Repartition rebin [#/#] on __grp__lineitem__#+__grp__lineitem__#@# <- f#, f#, f#, f#, f#, f#, f#, f#  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
fragment # [final] serial tail above the gathers <- f#, f#, f#, f#, f#, f#, f#, f#  (worker # start=#ms busy=#ms wait=#ms)
  Limit #  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
    Sort [o_totalprice desc, o_orderdate]  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
      SandwichAgg [c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice] -> sum_quantity=sum  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
        UnionAll [# partitions, canonical order]  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
          Exchange <- fragment # [#/#]  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
          Exchange <- fragment # [#/#]  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
          Exchange <- fragment # [#/#]  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
          Exchange <- fragment # [#/#]  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
          Exchange <- fragment # [#/#]  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
          Exchange <- fragment # [#/#]  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
          Exchange <- fragment # [#/#]  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
          Exchange <- fragment # [#/#]  (actual rows=#-># io=#ms cpu=#ms mem=#MB host=#ms)
makespan: # ms over # workers (# ms resource-seconds, speedup #x)"""


class TestGoldenFragmentPlans:
    """The analyzed fragment rendering — worker id, makespan
    contribution (busy) and queue wait per fragment — pinned for the
    paper's showcase scan queries under BDCC at 4 workers."""

    def test_q01_bdcc_workers4(self, bdcc_db, environment):
        assert _masked_fragment_skeleton(bdcc_db, environment, "Q01") == _Q01_FRAGMENTS

    def test_q06_bdcc_workers4(self, bdcc_db, environment):
        assert _masked_fragment_skeleton(bdcc_db, environment, "Q06") == _Q06_FRAGMENTS


    def test_q03_bdcc_workers4_copartitioned(self, bdcc_db, environment):
        """Q3's ORDERS x LINEITEM join co-partitions on D_DATE+D_NATION:
        both sides run as repartition sources, every join partition
        reads them through rebinning Repartition leaves, and the final
        gather is the canonical (order-insensitive) UnionAll."""
        assert _masked_fragment_skeleton(bdcc_db, environment, "Q03") == _Q03_FRAGMENTS

    def test_q18_bdcc_workers8_copartitioned(self, bdcc_db, environment):
        """Q18's big join needs 8 workers before the shuffle beats
        duplicating its (relatively small) build side - the cost-based
        strategy choice - and then shows the same Repartition shape."""
        assert (
            _masked_fragment_skeleton(bdcc_db, environment, "Q18", workers=8)
            == _Q18_FRAGMENTS
        )

    def test_workers_are_all_used_and_deterministic(self, bdcc_db, environment):
        _, metrics, _ = _run(bdcc_db, environment, "Q06", workers=4)
        partitions = [f for f in metrics.fragments if f.role == "partition"]
        assert sorted(f.worker for f in partitions) == [0, 1, 2, 3]
        assert all(f.queue_wait_seconds == 0.0 for f in partitions)
        final = next(f for f in metrics.fragments if f.role == "final")
        assert final.worker == 0
        assert final.start_seconds >= max(p.end_seconds for p in partitions)

    def test_explain_mentions_workers(self, bdcc_db, environment):
        from repro.planner.logical import scan

        executor = Executor(
            bdcc_db,
            disk=environment.disk,
            costs=environment.cost_model,
            options=ExecutionOptions(workers=4),
        )
        text = explain(executor, scan("lineitem"), analyze=True)
        assert "workers: 4" in text
        assert "fragment 0 [partition]" in text
        assert "makespan:" in text
