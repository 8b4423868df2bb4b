"""A solo run is the one-stream case of a served one.

One stream at ``max_concurrent=1`` with no refresh has the shared
timeline to itself, query after query — so every served query's metrics
must equal, field for field and bit for bit, what ``Executor.execute``
reports for the same plan: the serving engine runs the executor's own
run stage, places the same works, and calls the same merge."""

import dataclasses

import pytest

from repro.planner.executor import ExecutionOptions
from repro.serving import PlanListStream, ServingEngine, capture_tpch_items
from repro.tpch.queries import QUERIES

QUERY_NAMES = ("Q01", "Q03", "Q06", "Q18")


def _simulated(metrics) -> dict:
    """Every field of an ``ExecutionMetrics`` but the host-dependent
    measured wall clocks, in comparable form."""
    fields = {f.name: getattr(metrics, f.name) for f in dataclasses.fields(metrics)}
    fields["measured_wall_seconds"] = None
    fields["fragments"] = [
        dataclasses.replace(
            f, measured_seconds=0.0, measured_start_seconds=0.0,
            measured_end_seconds=0.0,
        )
        for f in metrics.fragments
    ]
    return fields


@pytest.mark.parametrize("backend", ["simulated", "process"])
@pytest.mark.parametrize("workers", [1, 4])
def test_served_alone_equals_solo(bdcc_db, environment, workers, backend):
    disk, costs = environment.disk, environment.cost_model
    options = ExecutionOptions(
        workers=workers, min_partition_rows=256, backend=backend
    )
    items = capture_tpch_items(
        bdcc_db, {name: QUERIES[name] for name in QUERY_NAMES}, disk=disk, costs=costs
    )
    assert [item.description for item in items] == list(QUERY_NAMES)
    stream = PlanListStream(
        "solo", [item.plan for item in items], [item.description for item in items]
    )
    with ServingEngine(
        bdcc_db, disk=disk, costs=costs, options=options, max_concurrent=1
    ) as engine:
        report = engine.serve([stream])
        assert [r.description for r in report.queries] == list(QUERY_NAMES)
        for record, item in zip(report.queries, items):
            # the engine's own executor: same cached lowering, so even
            # the operator identities the actuals are keyed by agree
            solo = engine.executor.execute(item.plan).metrics
            served = record.metrics
            assert _simulated(served) == _simulated(solo), item.description
            # the full object, not just the summed charges
            assert served.operators and served.counters and served.fragments
            assert served.peak_memory_bytes > 0.0
            assert [
                (f.worker, f.start_seconds, f.io_end_seconds, f.end_seconds)
                for f in served.fragments
            ] == [
                (f.worker, f.start_seconds, f.io_end_seconds, f.end_seconds)
                for f in solo.fragments
            ]
            assert record.fragment_count == len(solo.fragments)
            assert record.service_seconds == pytest.approx(solo.makespan_seconds)
        if workers > 1:
            assert any(r.metrics.workers > 1 for r in report.queries)
