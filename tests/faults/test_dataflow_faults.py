"""Work that waits on input that can never come ends in a
:class:`~repro.errors.DataflowError` (still a ``RuntimeError``), never in
a hang: a fragment dependency cycle, a serving loop that admits nothing,
and an exchange leaf run outside the parallel scheduler."""

import pytest

from repro.errors import DataflowError, ReproError
from repro.execution.cost import DEFAULT_COSTS
from repro.execution.metrics import ExecutionMetrics
from repro.execution.operators import ExecutionContext
from repro.parallel.scheduler import FragmentWork, TimelineSimulator
from repro.planner.executor import ExecutionOptions, Executor
from repro.planner.logical import scan
from repro.serving import PlanListStream, ServingEngine
from repro.storage.io_model import PAPER_SSD

from ..watchdog import guarded


def _raises_dataflow_error(target, match):
    outcome = guarded(target)
    error = outcome.get("error")
    assert isinstance(error, DataflowError), outcome
    assert isinstance(error, ReproError) and isinstance(error, RuntimeError)
    assert match in str(error)


def test_a_fragment_dependency_cycle():
    sim = TimelineSimulator(2, stream_rate=PAPER_SSD.stream_rate)
    sim.add_works([
        FragmentWork(0, 0.0, 1.0, depends_on=(1,)),
        FragmentWork(1, 0.0, 1.0, depends_on=(0,)),
        FragmentWork(2, 0.0, 1.0),
    ])
    _raises_dataflow_error(sim.run_to_idle, "fragment dependency cycle")


def test_a_serving_loop_that_admits_nothing(bdcc_db):
    engine = ServingEngine(bdcc_db, max_concurrent=1)
    engine.max_concurrent = 0  # every submitted query waits, none is in flight
    stream = PlanListStream("s0", [scan("nation")])
    _raises_dataflow_error(lambda: engine.serve([stream]), "serving deadlock")


def test_an_exchange_leaf_outside_the_scheduler(bdcc_db):
    executor = Executor(bdcc_db, options=ExecutionOptions(workers=4))
    parallel = executor.parallel_plan(executor.lower(scan("lineitem")))
    assert parallel.is_parallel
    ctx = ExecutionContext(PAPER_SSD, DEFAULT_COSTS, ExecutionMetrics())
    _raises_dataflow_error(lambda: parallel.final.root.run(ctx), "result not available")
