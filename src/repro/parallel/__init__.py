"""Partition-parallel execution: the sixth pillar.

BDCC co-clustering is a partitioning scheme: the zone ranges that let
sandwich operators cut joins and aggregations into independent chunks
also make those chunks *independently executable*.  This package turns
one lowered physical plan into zone-/page-aligned plan fragments
(:mod:`repro.parallel.fragments`), connects them with typed exchange
operators (:mod:`repro.parallel.exchange`) and runs them on *k*
simulated workers under a deterministic dependency-aware scheduler
(:mod:`repro.parallel.scheduler`) that reports wall clock as the
makespan over worker timelines.  Where the fragments *actually* execute
is a pluggable backend (:mod:`repro.parallel.backends`): in-process
under the simulated scheduler (the default), or on a real
``multiprocessing`` pool forked over the stored tables
(``ExecutionOptions(backend="process")``), which records measured
wall clock next to the simulated charges.

Results follow one of two explicit contracts (docs/execution-model.md):
plans without a reordering exchange gather contiguous storage ranges in
order and are **bit-identical** to serial execution, which the workload
oracle checks bit-for-bit across worker counts; plans with a
**co-partitioned join** — both sides split along shared BDCC dimension
bits through rebinning :class:`~repro.parallel.exchange.Repartition`
leaves, where the lowering's result contracts
(:func:`~repro.planner.propagation.compute_order_contracts`) admit it —
gather in a deterministic *canonical* order instead and are
**order-insensitive**: the same row multiset as serial, compared as
normalized multisets by the oracle.
"""

from .backends import (
    BACKEND_NAMES,
    ExecutionBackend,
    ProcessBackend,
    SimulatedBackend,
    create_backend,
)
from .exchange import Exchange, Repartition, UnionAll, concat_relations
from .fragments import (
    DEFAULT_MIN_PARTITION_ROWS,
    MIN_COPARTITION_PARTS,
    Fragment,
    ParallelPlan,
    plan_fragments,
    serial_plan,
)
from .scheduler import (
    FragmentWork,
    ScheduledFragment,
    TimelineSimulator,
    concurrent_peak,
    fragment_works,
    merge_parallel_metrics,
    merge_scheduled,
    run_fragment,
)

__all__ = [
    "Exchange",
    "Repartition",
    "UnionAll",
    "concat_relations",
    "DEFAULT_MIN_PARTITION_ROWS",
    "MIN_COPARTITION_PARTS",
    "Fragment",
    "ParallelPlan",
    "plan_fragments",
    "serial_plan",
    "FragmentWork",
    "ScheduledFragment",
    "TimelineSimulator",
    "concurrent_peak",
    "run_fragment",
    "fragment_works",
    "merge_scheduled",
    "merge_parallel_metrics",
    "BACKEND_NAMES",
    "ExecutionBackend",
    "SimulatedBackend",
    "ProcessBackend",
    "create_backend",
]
