"""A serial run is the one-fragment, one-worker case of the fragment
path: run -> place -> merge must give makespan == total, one ``serial``
fragment and every operator's actuals, for every TPC-H query under every
scheme."""

import pytest

from repro.observe import REGISTRY
from repro.planner.executor import Executor
from repro.tpch.queries import QUERIES
from repro.tpch.runner import QueryRunner


@pytest.mark.parametrize("scheme", ["plain", "pk", "bdcc"])
@pytest.mark.parametrize("qname", sorted(QUERIES))
def test_serial_run_is_one_serial_fragment(physical_dbs, environment, qname, scheme):
    cache_before = {
        name: REGISTRY.get(name)
        for name in ("fragment_cache.hits", "fragment_cache.misses")
    }
    with Executor(
        physical_dbs[scheme], disk=environment.disk, costs=environment.cost_model
    ) as executor:
        runner = QueryRunner(executor)
        QUERIES[qname](runner)
        for pplan, metrics in zip(runner.physical_plans, runner.stage_metrics):
            plan = executor.execution_plan(pplan)
            assert not plan.is_parallel and plan.workers == 1
            assert plan.final.root is pplan.root  # the plan itself, not a clone
            (fragment,) = metrics.fragments
            assert fragment.role == "serial" and fragment.index == 0
            assert (fragment.worker, fragment.depends_on) == (0, ())
            assert fragment.ready_seconds == fragment.start_seconds == 0.0
            # exact: one worker, one disk stream, nothing to contend with
            assert fragment.io_end_seconds == metrics.io_seconds
            assert fragment.end_seconds == metrics.total_seconds
            assert metrics.makespan_seconds == metrics.total_seconds
            assert (fragment.io_seconds, fragment.cpu_seconds) == (
                metrics.io_seconds, metrics.cpu_seconds,
            )
            assert fragment.peak_memory_bytes == metrics.peak_memory_bytes
            assert fragment.output_bytes == 0.0
            assert fragment.rows_out == metrics.rows_produced
            assert metrics.workers == 1 and metrics.backend == "simulated"
            assert metrics.measured_wall_seconds == 0.0
            assert "exchange" not in metrics.peak_memory_by_tag
            assert metrics.operators
    # one worker never consults the fragment planner or its cache
    for name, before in cache_before.items():
        assert REGISTRY.get(name) == before, name
