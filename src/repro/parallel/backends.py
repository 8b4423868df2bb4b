"""Execution backends: *where* a plan's fragments run.

The engine keeps one fragmenting pass and one timing model, but two ways
of actually producing the fragment results — a backend is its
``execute_fragments``, the *run* stage, and nothing else:

* :class:`SimulatedBackend` — fragments execute in-process in
  topological order and wall clock is purely *modelled* by the
  deterministic scheduler.
* :class:`ProcessBackend` — the same :class:`~repro.parallel.fragments.ParallelPlan`
  on real worker processes: base numpy arrays are copied once into
  :mod:`multiprocessing.shared_memory` blocks (workers map them as
  zero-copy views), fragments are dispatched as their ``depends_on``
  sets drain, exchange results are pickled back through the ordinary
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

One pool and one export table per *process* (lifetime rules:
``docs/execution-model.md``): the worker pool and the
:class:`SharedArrayStore` belong to this module, not to a backend or an
executor, so a cold ``Executor`` per query — what ``run_query`` and the
CLI create — pays neither a fork nor a re-export.  A block lives as long
as the array it copied: a ``weakref.finalize`` on the array unlinks the
block and removes its ``id()`` entry before that id can be recycled, so
a commit/compaction, which builds *new* arrays, exports *new* blocks and
the old epoch's go with its arrays — epoch invalidation falls out of
object identity.  Every task tells its worker which blocks were retired
meanwhile, and the worker unmaps them.  ``close()`` on a backend or an
executor therefore releases nothing; :func:`shutdown` (registered with
``atexit``) stops the pool and unlinks every block.  The process
backend is POSIX-only and dispatched from one thread at a time.
"""

from __future__ import annotations

import atexit
import io
import mmap
import os
import pickle
import time
import weakref
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context, resource_tracker, shared_memory
from typing import Deque, Dict, List, Optional, Set, Tuple

import numpy as np

from ..execution.cost import CostModel
from ..execution.metrics import ExecutionMetrics
from ..execution.operators import walk_physical
from ..execution.relation import Relation
from ..observe.registry import REGISTRY
from ..storage.io_model import DiskModel
from .fragments import Fragment, ParallelPlan
from .scheduler import merge_parallel_metrics, run_fragment

__all__ = [
    "ExecutionBackend",
    "SimulatedBackend",
    "ProcessBackend",
    "SharedArrayStore",
    "create_backend",
    "shutdown",
    "BACKEND_NAMES",
]

#: arrays below this size are pickled inline — a shared-memory block
#: (mmap + attach syscalls in every worker) only pays off for real data.
SHARED_MIN_BYTES = 4096

#: how many of the latest retired block names ride along with every
#: task; a worker that has missed more retirements than this (it sat idle,
#: or was forked late) unmaps *every* block and re-attaches what it needs.
RETIRED_SUFFIX = 256


# ------------------------------------------------------- shared memory
class SharedArrayStore:
    """Parent-side table of numpy arrays copied into shared memory.

    Arrays are deduplicated by object identity and an entry dies with
    its array: the store holds no reference to it, only a
    ``weakref.finalize`` that removes the ``id()`` entry and unlinks the
    block while the dying array still occupies its id.  An ``id()`` hit
    therefore always means the *same* array, repeated plans export each
    base column once, and arrays nobody can reach any more — an old
    epoch's columns, a collected plan's selection runs — hold no
    ``/dev/shm`` space.  Nor does the parent keep a mapping: it unmaps a
    block right after copying into it (or its resident set would carry
    every base column twice); the name is all ``shm_unlink`` needs.
    """

    def __init__(self):
        #: id(array) -> (finalizer, (block name, dtype, shape))
        self._exports: Dict[int, tuple] = {}
        #: blocks :meth:`_retire` has unlinked and :meth:`retirement`
        #: has not yet unregistered, counted and announced
        self._unlinked: Deque[str] = deque()
        #: retirements settled so far, and the names of the latest ones
        self._retired = 0
        self._recent: Deque[str] = deque(maxlen=RETIRED_SUFFIX)

    def names(self) -> Set[str]:
        """The live blocks' names (a snapshot: finalizers drop entries any time)."""
        return {descriptor[0] for _, descriptor in list(self._exports.values())}

    def exportable(self, array: np.ndarray) -> bool:
        return array.dtype.kind != "O" and array.nbytes >= SHARED_MIN_BYTES

    def export(self, array: np.ndarray) -> Tuple[str, str, tuple]:
        """The ``(block name, dtype, shape)`` descriptor of ``array``,
        copying it into a fresh shared-memory block on first sight."""
        key = id(array)
        hit = self._exports.get(key)
        if hit is not None:
            return hit[1]
        block = shared_memory.SharedMemory(create=True, size=max(array.nbytes, 1))
        try:
            np.ndarray(array.shape, dtype=array.dtype, buffer=block.buf)[...] = array
        finally:
            block.close()
        descriptor = (block.name, array.dtype.str, array.shape)
        finalizer = weakref.finalize(array, self._retire, key, os.getpid())
        self._exports[key] = (finalizer, descriptor)
        REGISTRY.inc("process_backend.blocks_exported")
        REGISTRY.inc("process_backend.bytes_exported", array.nbytes)
        return descriptor

    def _retire(self, key: int, pid: int) -> None:
        """Finalizer of an exported array.  It runs wherever the array
        happens to die — inside any allocation, on the pool's manager
        thread, in a forked child collecting its copy — so it takes no
        lock and does only atomic things: drop the entry, ``shm_unlink``
        the block, queue the name.  Not ``SharedMemory.unlink()``: that
        also calls the resource tracker, which refuses re-entrant calls,
        and a finalizer can interrupt the tracker call of an export in
        progress; :meth:`retirement` unregisters later."""
        if pid != os.getpid():
            return  # the block belongs to the process that exported it
        entry = self._exports.pop(key, None)
        if entry is not None:
            self._unlink(entry[1][0])

    def _unlink(self, name: str) -> None:
        try:
            shared_memory._posixshmem.shm_unlink("/" + name)
        except FileNotFoundError:
            pass
        self._unlinked.append(name)

    def retirement(self) -> Tuple[int, Tuple[str, ...]]:
        """``(blocks retired so far, names of the latest RETIRED_SUFFIX)``
        for :func:`_release_retired` — after finishing, from ordinary
        (never finalizer) code, what :meth:`_retire` began: unregister
        the unlinked blocks from the resource tracker and count them."""
        while self._unlinked:
            name = self._unlinked.popleft()
            resource_tracker.unregister("/" + name, "shared_memory")
            self._retired += 1
            self._recent.append(name)
            REGISTRY.inc("process_backend.blocks_retired")
        return self._retired, tuple(self._recent)

    def close(self) -> None:
        """Retire every live block.  The table is swapped out first, so
        a finalizer firing meanwhile finds no entry and each block is
        unlinked exactly once."""
        exports, self._exports = self._exports, {}
        for finalizer, descriptor in exports.values():
            finalizer.detach()
            self._unlink(descriptor[0])
        self.retirement()


class _SharedArrayPickler(pickle.Pickler):
    """Pickles plan payloads, routing large numpy arrays through the
    shared store instead of the byte stream."""

    def __init__(self, file, store: SharedArrayStore):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._store = store

    def persistent_id(self, obj):
        if isinstance(obj, np.ndarray) and self._store.exportable(obj):
            return ("shm-ndarray", self._store.export(obj))
        return None


#: worker-side cache of attached blocks, one per pool process: block
#: name -> read-only mapping (open until the parent retires the block).
_ATTACHED_BLOCKS: Dict[str, mmap.mmap] = {}

#: how many of the parent's retirements this worker has acted on.
_RETIRED_SEEN = 0


def _attach_block(name: str) -> mmap.mmap:
    """This worker's mapping of a block.  Opened with ``shm_open``
    itself: ``SharedMemory(name=...)`` would register the block with a
    resource tracker, and a block's lifetime is the parent's alone."""
    mapping = _ATTACHED_BLOCKS.get(name)
    if mapping is None:
        fd = shared_memory._posixshmem.shm_open("/" + name, os.O_RDONLY, mode=0o600)
        try:
            mapping = _ATTACHED_BLOCKS[name] = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
        finally:
            os.close(fd)
    return mapping


def _release_retired(retired: int, recent: Tuple[str, ...]) -> None:
    """Worker side of a retirement: unmap the blocks the parent has
    retired since this worker's previous task — the last ``behind``
    names of ``recent``, or every attachment when ``recent`` does not
    reach back that far (live blocks re-attach on their next use).  Runs
    between tasks, and a worker keeps no view from one task to the next:
    numpy views hold no buffer export, so unmapping under one still in
    use would not raise, it would leave it dangling."""
    global _RETIRED_SEEN
    behind = retired - _RETIRED_SEEN
    if behind <= 0:
        return
    _RETIRED_SEEN = retired
    names = recent[-behind:] if behind <= len(recent) else tuple(_ATTACHED_BLOCKS)
    for name in names:
        mapping = _ATTACHED_BLOCKS.pop(name, None)
        if mapping is not None:
            mapping.close()


class _SharedArrayUnpickler(pickle.Unpickler):
    """Worker-side counterpart: persistent ids become zero-copy views
    over the attached blocks, read-only like the mappings themselves."""

    def persistent_load(self, pid):
        tag, descriptor = pid
        if tag != "shm-ndarray":
            raise pickle.UnpicklingError(f"unknown persistent id tag {tag!r}")
        name, dtype, shape = descriptor
        return np.ndarray(shape, dtype=np.dtype(dtype), buffer=_attach_block(name))


def _dumps_shared(obj, store: SharedArrayStore) -> bytes:
    buffer = io.BytesIO()
    _SharedArrayPickler(buffer, store).dump(obj)
    return buffer.getvalue()


def _loads_shared(payload: bytes):
    return _SharedArrayUnpickler(io.BytesIO(payload)).load()


# ------------------------------------------------------ worker function
def _run_fragment_task(payload: bytes, deps_blob: bytes, retirement: tuple):
    """Executes one fragment in a pool worker.

    The payload carries ``(index, fragment root, disk, costs, profile)``
    with base arrays as shared-memory references; ``deps_blob`` carries
    the plainly pickled results of the fragment's dependencies;
    ``retirement`` is :meth:`SharedArrayStore.retirement` at dispatch,
    acted on before anything is attached.  Returns the fragment's
    relation, its metrics (operator actuals re-listed in pre-order walk
    position, since ``id()`` keys do not survive the process
    boundary) and the measured wall-clock window as absolute
    ``perf_counter`` timestamps — with the fork start method the clock
    is shared with the parent, which rebases the window onto the run's
    origin to place the fragment on the measured timeline.  With
    ``profile`` the worker runs the fragment under ``cProfile`` and the
    top functions travel back on ``metrics.profile`` (plain dicts, so
    they pickle like everything else)."""
    _release_retired(*retirement)
    index, root, disk, costs, profile = _loads_shared(payload)
    deps: Dict[int, Relation] = pickle.loads(deps_blob)
    started = time.perf_counter()
    relation, metrics = run_fragment(root, disk, costs, deps, profile)
    ended = time.perf_counter()
    actuals = [metrics.operators.get(id(op)) for op in walk_physical(root)]
    metrics.operators = {}
    return index, relation, metrics, actuals, (started, ended)


# ------------------------------------------- process-wide pool and store
_STORE = SharedArrayStore()
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0


def _pool(workers: int) -> ProcessPoolExecutor:
    """The process's worker pool, started on first use and replaced by
    a larger one only when a plan asks for more workers than it has."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None and _POOL_WORKERS < workers:
        _drop_pool()
    if _POOL is None:
        # fork keeps worker start cheap, inherits the loaded modules and
        # shares the perf_counter origin of the measured windows; every
        # worker is forked at the first submit, before the manager thread
        _POOL = ProcessPoolExecutor(workers, mp_context=get_context("fork"))
        _POOL_WORKERS = workers
        REGISTRY.inc("process_backend.pool_starts")
    return _POOL


def _drop_pool() -> None:
    global _POOL, _POOL_WORKERS
    pool, _POOL, _POOL_WORKERS = _POOL, None, 0
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=True)


def shutdown() -> None:
    """Stop the process-wide worker pool and unlink every exported
    block.  Idempotent and registered with ``atexit``; the next
    process-backend query starts a pool and exports what it needs."""
    _drop_pool()
    _STORE.close()


atexit.register(shutdown)


# ------------------------------------------------------------- backends
class ExecutionBackend:
    """How the *run* stage of an execution is carried out."""

    name = "abstract"

    def execute_fragments(
        self, plan: ParallelPlan, disk: DiskModel, costs: CostModel,
        profile: bool = False,
    ) -> Tuple[Dict[int, Relation], Dict[int, ExecutionMetrics]]:
        """The *run* stage: every fragment executed once — per-fragment
        exact results and charged metrics, not yet placed on any
        timeline.  :meth:`run` places them on a private one; the
        serving layer (``repro.serving``) on its shared multi-query
        timeline."""
        raise NotImplementedError

    def run(
        self, plan: ParallelPlan, disk: DiskModel, costs: CostModel,
        profile: bool = False,
    ) -> Tuple[Relation, ExecutionMetrics]:
        """A solo execution: run, place, merge.  Returns the final
        fragment's relation and the query's metrics."""
        results, fragment_metrics = self.execute_fragments(
            plan, disk, costs, profile=profile
        )
        return merge_parallel_metrics(plan, results, fragment_metrics, disk)

    def close(self) -> None:
        """Release what this *instance* holds: nothing, in both backends
        — the process backend's pool and blocks are :func:`shutdown`'s."""


class SimulatedBackend(ExecutionBackend):
    """In-process execution, fragments one after another in topological
    order — the engine's default.  Wall clock is purely modelled."""

    name = "simulated"

    def execute_fragments(self, plan, disk, costs, profile=False):
        results: Dict[int, Relation] = {}
        fragment_metrics: Dict[int, ExecutionMetrics] = {}
        for fragment in plan.fragments:  # topological by construction
            results[fragment.index], fragment_metrics[fragment.index] = (
                run_fragment(fragment.root, disk, costs, results, profile)
            )
        return results, fragment_metrics


class ProcessBackend(ExecutionBackend):
    """Executes the same fragment DAG on real worker processes,
    measuring wall clock next to the simulated charges.

    An instance is a stateless handle onto this module's process-wide
    pool and store: the pool is forked at the first fragment dispatched
    and then serves every query of every executor (replaced only by a
    larger one, when a plan asks for more workers).  The final
    (serial-tail) fragment runs in the parent — it consumes every
    gathered partition anyway, so running it here saves one more
    process hop, and a one-fragment plan never touches the pool.

    A fragment that raises in a worker, or a worker that dies, ends the
    query in a ``RuntimeError`` chained from the cause, its unstarted
    fragments cancelled; a pool that lost a worker is discarded and the
    next dispatch forks a fresh one.
    """

    name = "process"

    def execute_fragments(self, plan, disk, costs, profile=False):
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

        def submit(fragment: Fragment) -> None:
            task = (fragment.index, fragment.root, disk, costs, profile)
            payload = _dumps_shared(task, _STORE)
            deps_blob = pickle.dumps(
                {dep: results[dep] for dep in fragment.depends_on},
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            pending.add(_pool(plan.workers).submit(
                _run_fragment_task, payload, deps_blob, _STORE.retirement()
            ))

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
                    raise RuntimeError(
                        "process backend: a fragment failed in a pool worker"
                    ) from error
                index, relation, metrics, actuals, window = future.result()
                fragment = by_index[index]
                # the worker ran a pickled copy of the fragment tree; its
                # id() keys are meaningless here, so the actuals come back
                # as a pre-order list and are re-keyed against our tree —
                # structurally identical across the pickle round-trip
                metrics.operators = {
                    id(op): record
                    for op, record in zip(walk_physical(fragment.root), actuals)
                    if record is not None
                }
                keep(index, relation, metrics, window)
                for waiter in dependents.get(index, ()):
                    deps = remaining[waiter]
                    deps.discard(index)
                    if not deps and waiter != final.index:
                        submit(by_index[waiter])
        except BrokenProcessPool as error:
            # the executor has already failed the pool's other futures
            _drop_pool()
            raise RuntimeError(
                "process backend: a pool worker died (killed or crashed); "
                "the query was abandoned, the pool discarded, and the next "
                "query starts a fresh one"
            ) from error
        finally:
            for future in pending:  # empty unless the query failed
                future.cancel()

        # serial tail in the parent, over the gathered worker results
        tail_start = time.perf_counter()
        relation, metrics = run_fragment(final.root, disk, costs, results, profile)
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
