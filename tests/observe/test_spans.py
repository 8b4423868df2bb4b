"""Span tracing: nesting, the executor's phase spans, and the
passive-tracing invariant (bit-identical results and simulated charges
with tracing on or off) that ``repro.observe.spans`` promises."""

import numpy as np

from repro.observe import SpanTracer
from repro.planner.executor import ExecutionOptions, Executor
from repro.planner.logical import scan
from repro.tpch.queries import QUERIES
from repro.tpch.runner import run_query


def _run(pdb, environment, qname, workers=1, tracer=None):
    options = ExecutionOptions(workers=workers, min_partition_rows=256)
    return run_query(
        pdb, QUERIES[qname], disk=environment.disk,
        costs=environment.cost_model, options=options, tracer=tracer,
    )


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


def _charges(metrics):
    return (
        metrics.total_seconds,
        metrics.io_seconds,
        metrics.cpu_seconds,
        metrics.io_bytes,
        metrics.io_accesses,
        metrics.rows_scanned,
        metrics.peak_memory_bytes,
        metrics.makespan_seconds,
        dict(metrics.counters),
        [
            (f.index, f.worker, f.ready_seconds, f.start_seconds,
             f.io_end_seconds, f.end_seconds)
            for f in metrics.fragments
        ],
    )


class TestSpanTracer:
    def test_spans_nest_under_the_open_span(self):
        tracer = SpanTracer()
        with tracer.span("outer", kind="test"):
            with tracer.span("inner"):
                pass
        with tracer.span("second"):
            pass
        assert [s.name for s in tracer.roots] == ["outer", "second"]
        outer = tracer.roots[0]
        assert [c.name for c in outer.children] == ["inner"]
        assert outer.attributes == {"kind": "test"}
        inner = outer.children[0]
        assert outer.start_seconds <= inner.start_seconds
        assert inner.end_seconds <= outer.end_seconds
        assert outer.start_seconds <= outer.end_seconds

    def test_walk_and_to_dict_cover_the_tree(self):
        tracer = SpanTracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                pass
        names = [s.name for s in tracer.roots[0].walk()]
        assert names == ["a", "b", "c"]
        as_dict = tracer.roots[0].to_dict()
        assert as_dict["name"] == "a"
        assert [c["name"] for c in as_dict["children"]] == ["b", "c"]


class TestExecutorIntegration:
    def test_execute_wraps_phases_in_spans(self, bdcc_db, environment):
        tracer = SpanTracer()
        executor = Executor(
            bdcc_db, disk=environment.disk, costs=environment.cost_model,
            tracer=tracer,
        )
        executor.execute(scan("region"))
        assert [s.name for s in tracer.roots] == ["query"]
        child_names = [c.name for c in tracer.roots[0].children]
        assert child_names == ["lower", "execute"]

    def test_runner_records_query_spans(self, bdcc_db, environment):
        tracer = SpanTracer()
        _run(bdcc_db, environment, "Q06", workers=4, tracer=tracer)
        names = [s.name for s in tracer.roots]
        assert "lower" in names and "execute" in names


class TestPassiveInvariant:
    def test_tracing_serial_is_bit_identical(self, bdcc_db, environment):
        result_off, metrics_off = _run(bdcc_db, environment, "Q06")
        result_on, metrics_on = _run(
            bdcc_db, environment, "Q06", tracer=SpanTracer()
        )
        assert _identical(result_off.relation, result_on.relation)
        assert _charges(metrics_off) == _charges(metrics_on)

    def test_tracing_parallel_is_bit_identical(self, bdcc_db, environment):
        result_off, metrics_off = _run(bdcc_db, environment, "Q01", workers=4)
        result_on, metrics_on = _run(
            bdcc_db, environment, "Q01", workers=4, tracer=SpanTracer()
        )
        assert _identical(result_off.relation, result_on.relation)
        assert _charges(metrics_off) == _charges(metrics_on)
