"""Execution backends: *where* a plan's fragments run.

The engine keeps one fragmenting pass and one timing model, but two ways
of actually producing the fragment results — a backend is its
``execute_fragments``, the *run* stage, and nothing else:

* :class:`SimulatedBackend` — fragments execute in-process in
  topological order and wall clock is purely *modelled* by the
  deterministic scheduler.
* :class:`ProcessBackend` — the same :class:`~repro.parallel.fragments.ParallelPlan`
  on real worker processes forked from this one: the workers inherit
  every stored table (so every base column, copy-on-write), a fragment
  payload *names* the tables and dimensions it reads instead of carrying
  them, fragments are dispatched as their ``depends_on`` sets drain,
  exchange results are pickled back through the ordinary
  ``fragment_results`` map, and per-fragment wall-clock windows are
  recorded *alongside* the simulated charges.

Both run every fragment through
:func:`~repro.parallel.scheduler.run_fragment` and feed the shared
*time* stage (:func:`~repro.parallel.scheduler.merge_parallel_metrics`
for a solo run, the serving engine's shared timeline otherwise), so the
simulated totals, the makespan and the per-operator actuals are
identical whichever backend produced the results — and the results
themselves are bit-identical, which the workload oracle and the backend
tests check.  The measured quantities land in dedicated fields
(``FragmentActuals.measured_seconds``,
``ExecutionMetrics.measured_wall_seconds``) and never contaminate the
deterministic model outputs.

One pool per *process* (lifetime rules: ``docs/execution-model.md``):
the worker pool belongs to this module, not to a backend or an
executor, so a cold ``Executor`` per query — what ``run_query`` and the
CLI create — pays no fork.  The pool is forked over a snapshot: every
live :class:`~repro.storage.stored_table.StoredTable`, the tables the
dispatching plan scans, and the ``Dimension`` of every BDCC use of
those tables, all held by strong references so that no ``id()`` a
payload names can be recycled while the pool lives.  The payload
pickler turns a snapshot object into its ``id()``; the worker's
unpickler resolves that in its own inherited copy.  A stored table is
a value — a commit or a compaction publishes a new one — so before a
plan's first dispatch each table it scans is looked up in the snapshot:
one the snapshot does not hold drops the pool, and the dispatch forks a
fresh one over the current tables — a worker never reads a stale
table.  ``close()`` on a backend or an executor therefore releases
nothing; :func:`shutdown` (registered with ``atexit``) stops the pool
and releases the snapshot.  The process backend is POSIX-only (it needs
``fork``) and dispatched from one thread at a time.
"""

from __future__ import annotations

import atexit
import io
import pickle
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..errors import FragmentFailed, WorkerLost
from ..execution.cost import CostModel
from ..execution.metrics import ExecutionMetrics
from ..execution.operators import PhysicalScan, walk_physical
from ..execution.relation import Relation
from ..observe.registry import REGISTRY
from ..storage.io_model import DiskModel
from ..storage.stored_table import LIVE_TABLES, StoredTable
from .fragments import Fragment, ParallelPlan
from .scheduler import merge_parallel_metrics, run_fragment

__all__ = [
    "ExecutionBackend",
    "SimulatedBackend",
    "ProcessBackend",
    "create_backend",
    "shutdown",
    "BACKEND_NAMES",
]


# ------------------------------------------------- what workers inherit
#: the current pool's snapshot, by ``id()``: the stored tables and the
#: dimensions of their BDCC uses.  Strong references, so an id stays
#: this object's until :func:`shutdown` lets go.
_INHERITED: Dict[int, object] = {}
_MISSING = object()


def _snapshot(tables: Iterable[StoredTable]) -> None:
    global _INHERITED
    _INHERITED = {id(t): t for t in tables}
    for table in list(_INHERITED.values()):
        if table.bdcc is not None:
            for use in table.bdcc.uses:
                _INHERITED[id(use.dimension)] = use.dimension


class _NamingPickler(pickle.Pickler):
    """Pickles a payload, naming every snapshot object by its ``id()``."""

    def persistent_id(self, obj):
        # against a sentinel: with ``.get(id(obj)) is obj`` an object
        # missing from the snapshot would match the default, and every
        # ``None`` would become a reference
        if _INHERITED.get(id(obj), _MISSING) is obj:
            return id(obj)
        return None


class _NamingUnpickler(pickle.Unpickler):
    """Worker side: a name resolves to this process's inherited copy."""

    def persistent_load(self, pid):
        return _INHERITED[pid]


def _dumps(task) -> bytes:
    buffer = io.BytesIO()
    _NamingPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(task)
    return buffer.getvalue()


# ------------------------------------------------------ worker function
def _run_fragment_task(payload: bytes, deps_blob: bytes):
    """Executes one fragment in a pool worker.

    The payload carries ``(index, fragment root, disk, costs)``
    with the tables and dimensions it reads named, resolved against what
    this worker inherited; ``deps_blob`` carries the plainly pickled
    results of the fragment's dependencies (a relation pickles as its
    gathered rows, never the arrays it indexes; counted in
    ``process_backend.deps_bytes``).  Returns the fragment's
    relation, its metrics (each operator's actuals as a pair of its
    pre-order walk position and the record, in the order they were
    recorded, since ``id()`` keys do not survive the process boundary)
    and the measured wall-clock window as absolute
    ``perf_counter`` timestamps — with the fork start method the clock
    is shared with the parent, which rebases the window onto the run's
    origin to place the fragment on the measured timeline."""
    index, root, disk, costs = _NamingUnpickler(io.BytesIO(payload)).load()
    deps: Dict[int, Relation] = pickle.loads(deps_blob)
    started = time.perf_counter()
    relation, metrics = run_fragment(root, disk, costs, deps)
    ended = time.perf_counter()
    position = {id(op): i for i, op in enumerate(walk_physical(root))}
    actuals = [(position[key], record) for key, record in metrics.operators.items()]
    metrics.operators = {}
    return index, relation, metrics, actuals, (started, ended)


# ------------------------------------------------- process-wide pool
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0


def _pool(workers: int, scanned: List[StoredTable]) -> ProcessPoolExecutor:
    """The process's worker pool, forked on first use over the current
    snapshot.  It is replaced when a plan asks for more workers than it
    has, or scans a table its workers did not inherit."""
    global _POOL, _POOL_WORKERS
    # a pool forked again for a stale table keeps its size: it never shrinks
    size = max(workers, _POOL_WORKERS)
    # stale = not held by the snapshot; its strong references keep every
    # id it maps from being reused by another object
    stale = any(_INHERITED.get(id(t), _MISSING) is not t for t in scanned)
    if _POOL is not None and (_POOL_WORKERS < workers or stale):
        shutdown()
    if _POOL is None:
        # fork keeps worker start cheap, inherits the loaded modules and
        # the tables, and shares the perf_counter origin of the measured
        # windows; every worker is forked at the first submit, before
        # the manager thread — after this snapshot, so the workers
        # inherit exactly the state it records
        _snapshot([*LIVE_TABLES, *scanned])
        _POOL = ProcessPoolExecutor(size, mp_context=get_context("fork"))
        _POOL_WORKERS = size
        REGISTRY.inc("process_backend.pool_starts")
    return _POOL


def shutdown() -> None:
    """Stop the process-wide worker pool and release its snapshot.
    Idempotent and registered with ``atexit``; the next process-backend
    query forks a pool over the tables alive then."""
    global _POOL, _POOL_WORKERS
    pool, _POOL, _POOL_WORKERS = _POOL, None, 0
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=True)
    _snapshot(())


atexit.register(shutdown)


# ------------------------------------------------------------- backends
class ExecutionBackend:
    """How the *run* stage of an execution is carried out."""

    name = "abstract"

    def execute_fragments(
        self, plan: ParallelPlan, disk: DiskModel, costs: CostModel
    ) -> Tuple[Dict[int, Relation], Dict[int, ExecutionMetrics]]:
        """The *run* stage: every fragment executed once — per-fragment
        exact results and charged metrics, not yet placed on any
        timeline.  :meth:`run` places them on a private one; the
        serving layer (``repro.serving``) on its shared multi-query
        timeline."""
        raise NotImplementedError

    def run(
        self, plan: ParallelPlan, disk: DiskModel, costs: CostModel
    ) -> Tuple[Relation, ExecutionMetrics]:
        """A solo execution: run, place, merge.  Returns the final
        fragment's relation and the query's metrics."""
        results, fragment_metrics = self.execute_fragments(plan, disk, costs)
        return merge_parallel_metrics(plan, results, fragment_metrics, disk)

    def close(self) -> None:
        """Release what this *instance* holds: nothing, in both backends
        — the process backend's pool and its snapshot of the tables are
        :func:`shutdown`'s."""


class SimulatedBackend(ExecutionBackend):
    """In-process execution, fragments one after another in topological
    order — the engine's default.  Wall clock is purely modelled."""

    name = "simulated"

    def execute_fragments(self, plan, disk, costs):
        results: Dict[int, Relation] = {}
        fragment_metrics: Dict[int, ExecutionMetrics] = {}
        for fragment in plan.fragments:  # topological by construction
            results[fragment.index], fragment_metrics[fragment.index] = (
                run_fragment(fragment.root, disk, costs, results)
            )
        return results, fragment_metrics


class ProcessBackend(ExecutionBackend):
    """Executes the same fragment DAG on real worker processes,
    measuring wall clock next to the simulated charges.

    An instance is a stateless handle onto this module's process-wide
    pool: the pool is forked at the first fragment dispatched and then
    serves every query of every executor — replaced by a larger one
    when a plan asks for more workers, and forked afresh when a plan
    scans a table the workers did not inherit.  The final
    (serial-tail) fragment runs in the parent — it consumes every
    gathered partition anyway, so running it here saves one more
    process hop, and a one-fragment plan never touches the pool.

    A fragment that raises in a worker ends the query in
    :class:`~repro.errors.FragmentFailed`, a worker that dies in
    :class:`~repro.errors.WorkerLost` (both ``RuntimeError`` types), chained
    from the cause, its unstarted fragments cancelled; a pool that lost
    a worker is discarded and the next dispatch forks a fresh one.
    """

    name = "process"

    def execute_fragments(self, plan, disk, costs):
        """Dispatch the fragment DAG on the pool; the final (serial
        tail) fragment runs in the parent.  Every fragment's metrics
        carry its measured wall-clock window, rebased onto this call's
        start."""
        started = time.perf_counter()
        final = plan.final
        by_index: Dict[int, Fragment] = {f.index: f for f in plan.fragments}
        remaining = {f.index: set(f.depends_on) for f in plan.fragments}
        dependents: Dict[int, List[int]] = {}
        for fragment in plan.fragments:
            for dep in fragment.depends_on:
                dependents.setdefault(dep, []).append(fragment.index)

        results: Dict[int, Relation] = {}
        fragment_metrics: Dict[int, ExecutionMetrics] = {}
        pending: Set[Future] = set()

        def keep(index, relation, metrics, window) -> None:
            # rebase the perf_counter window onto this run's origin
            # (same clock across fork) for the measured timeline
            metrics.measured_start_seconds = window[0] - started
            metrics.measured_wall_seconds = window[1] - window[0]
            metrics.backend = self.name
            results[index] = relation
            fragment_metrics[index] = metrics

        pool: Optional[ProcessPoolExecutor] = None

        def submit(fragment: Fragment) -> None:
            nonlocal pool
            if pool is None:  # this plan's first dispatch
                scanned = [
                    op.stored for f in plan.fragments for op in walk_physical(f.root)
                    if isinstance(op, PhysicalScan)
                ]
                pool = _pool(plan.workers, scanned)
            payload = _dumps((fragment.index, fragment.root, disk, costs))
            REGISTRY.inc("process_backend.payload_bytes", len(payload))
            deps_blob = pickle.dumps(
                {dep: results[dep] for dep in fragment.depends_on},
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            REGISTRY.inc("process_backend.deps_bytes", len(deps_blob))
            pending.add(pool.submit(_run_fragment_task, payload, deps_blob))

        try:
            for fragment in plan.fragments:
                if fragment is not final and not remaining[fragment.index]:
                    submit(fragment)
            while pending:
                future = next(iter(wait(pending, return_when=FIRST_COMPLETED).done))
                pending.discard(future)
                error = future.exception()
                if isinstance(error, BrokenProcessPool):
                    raise error
                if error is not None:
                    raise FragmentFailed(
                        "process backend: a fragment failed in a pool worker"
                    ) from error
                index, relation, metrics, actuals, window = future.result()
                fragment = by_index[index]
                # the worker ran a pickled copy of the fragment tree; its
                # id() keys are meaningless here, so the actuals come back
                # by pre-order position and are re-keyed against our tree
                # (structurally identical across the pickle round-trip) in
                # the order the worker recorded them
                ops = list(walk_physical(fragment.root))
                metrics.operators = {id(ops[i]): record for i, record in actuals}
                keep(index, relation, metrics, window)
                for waiter in dependents.get(index, ()):
                    deps = remaining[waiter]
                    deps.discard(index)
                    if not deps and waiter != final.index:
                        submit(by_index[waiter])
        except BrokenProcessPool as error:
            # the executor has already failed the pool's other futures
            shutdown()
            raise WorkerLost(
                "process backend: a pool worker died (killed or crashed); "
                "the query was abandoned, the pool discarded, and the next "
                "query starts a fresh one"
            ) from error
        finally:
            for future in pending:  # empty unless the query failed
                future.cancel()

        # serial tail in the parent, over the gathered worker results
        tail_start = time.perf_counter()
        relation, metrics = run_fragment(final.root, disk, costs, results)
        keep(final.index, relation, metrics, (tail_start, time.perf_counter()))
        return results, fragment_metrics


BACKEND_NAMES = ("simulated", "process")


def create_backend(name: str) -> ExecutionBackend:
    """Instantiate a backend by its ``ExecutionOptions.backend`` name."""
    if name == "simulated":
        return SimulatedBackend()
    if name == "process":
        return ProcessBackend()
    raise ValueError(
        f"unknown execution backend {name!r} (expected one of {BACKEND_NAMES})"
    )
