"""Execution backends: *where* a plan's fragments run.

The engine keeps one fragmenting pass and one timing model, but two ways
of actually producing the fragment results — a backend is its
``execute_fragments``, the *run* stage, and nothing else:

* :class:`SimulatedBackend` — fragments execute in-process in
  topological order and wall clock is purely *modelled* by the
  deterministic scheduler.
* :class:`ProcessBackend` — the same :class:`~repro.parallel.fragments.ParallelPlan`
  on a real ``multiprocessing`` pool: base numpy arrays are exported
  once into :mod:`multiprocessing.shared_memory` blocks (workers map
  them as zero-copy views), fragments are dispatched as their
  ``depends_on`` sets drain, exchange results are pickled back through
  the ordinary ``fragment_results`` map, and per-fragment wall-clock
  windows are recorded *alongside* the simulated charges.

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

Shared-memory lifetime rules (see ``docs/execution-model.md``): the
parent-side :class:`SharedArrayStore` owns every exported block and
keeps a reference to the exporting array, so an array's ``id`` can
never be recycled into serving a stale block; a commit/compaction
builds *new* arrays, which export as *new* blocks — epoch invalidation
falls out of object identity.  Blocks are unlinked when the backend is
closed; workers cache their attachments for the life of the pool.
"""

from __future__ import annotations

import io
import pickle
import queue
import time
from multiprocessing import get_context, get_all_start_methods, shared_memory
from typing import Dict, List, Tuple

import numpy as np

from ..execution.cost import CostModel
from ..execution.metrics import ExecutionMetrics
from ..execution.operators import walk_physical
from ..execution.relation import Relation
from ..storage.io_model import DiskModel
from .fragments import Fragment, ParallelPlan
from .scheduler import merge_parallel_metrics, run_fragment

__all__ = [
    "ExecutionBackend",
    "SimulatedBackend",
    "ProcessBackend",
    "SharedArrayStore",
    "create_backend",
    "BACKEND_NAMES",
]

#: arrays below this size are pickled inline — a shared-memory block
#: (mmap + attach syscalls in every worker) only pays off for real data.
SHARED_MIN_BYTES = 4096


# ------------------------------------------------------- shared memory
class SharedArrayStore:
    """Parent-side registry of numpy arrays exported to shared memory.

    Arrays are deduplicated by object identity: the store keeps a
    reference to every exported array, which both prevents its ``id``
    from being recycled while the block lives and makes repeated plans
    (and repeated fragments of one plan) export each base column once.
    """

    def __init__(self, min_bytes: int = SHARED_MIN_BYTES):
        self.min_bytes = int(min_bytes)
        #: id(array) -> (array ref, SharedMemory, (name, dtype, shape))
        self._exports: Dict[int, tuple] = {}
        self.exported_bytes = 0

    def __len__(self) -> int:
        return len(self._exports)

    def exportable(self, array: np.ndarray) -> bool:
        return array.dtype.kind != "O" and array.nbytes >= self.min_bytes

    def export(self, array: np.ndarray) -> Tuple[str, str, tuple]:
        """The ``(block name, dtype, shape)`` descriptor of ``array``,
        copying it into a fresh shared-memory block on first sight."""
        key = id(array)
        hit = self._exports.get(key)
        if hit is not None:
            return hit[2]
        block = shared_memory.SharedMemory(create=True, size=max(array.nbytes, 1))
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=block.buf)
        view[...] = array
        descriptor = (block.name, array.dtype.str, array.shape)
        self._exports[key] = (array, block, descriptor)
        self.exported_bytes += array.nbytes
        return descriptor

    def close(self) -> None:
        for _, block, _ in self._exports.values():
            block.close()
            try:
                block.unlink()
            except FileNotFoundError:
                pass
        self._exports = {}
        self.exported_bytes = 0


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


#: worker-side cache of attached blocks, one per pool process:
#: block name -> SharedMemory (kept open for the life of the worker).
_ATTACHED_BLOCKS: Dict[str, shared_memory.SharedMemory] = {}


#: whether this process shares the parent's resource tracker — decided
#: once, *before* the first attach (attaching may itself start a
#: process-local tracker, which must not be mistaken for an inherited
#: one).  None until the first attach in this process.
_TRACKER_SHARED = None


def _tracker_shared_with_parent() -> bool:
    global _TRACKER_SHARED
    if _TRACKER_SHARED is None:
        try:
            from multiprocessing import resource_tracker

            # a live tracker fd before this process ever attached a
            # block means it was inherited across fork from the parent
            _TRACKER_SHARED = resource_tracker._resource_tracker._fd is not None
        except Exception:
            _TRACKER_SHARED = False
    return _TRACKER_SHARED


def _attach_block(name: str) -> shared_memory.SharedMemory:
    block = _ATTACHED_BLOCKS.get(name)
    if block is None:
        shares_parent_tracker = _tracker_shared_with_parent()
        block = shared_memory.SharedMemory(name=name)
        # Attaching registers the block with this process's resource
        # tracker (Python >= 3.8).  With a fork-inherited tracker that
        # registration lands in the parent's cache (a set — duplicate,
        # removed by the parent's own unlink) and must be left alone;
        # but a worker running its *own* tracker would unlink the
        # parent's live block when the worker exits — undo the
        # registration, the parent owns the block's lifetime.
        if not shares_parent_tracker:
            try:
                from multiprocessing import resource_tracker

                resource_tracker.unregister(block._name, "shared_memory")
            except Exception:
                pass
        _ATTACHED_BLOCKS[name] = block
    return block


class _SharedArrayUnpickler(pickle.Unpickler):
    """Worker-side counterpart: persistent ids become zero-copy,
    read-only views over the attached shared-memory blocks."""

    def persistent_load(self, pid):
        tag, descriptor = pid
        if tag != "shm-ndarray":
            raise pickle.UnpicklingError(f"unknown persistent id tag {tag!r}")
        name, dtype, shape = descriptor
        block = _attach_block(name)
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=block.buf)
        view.flags.writeable = False  # tripwire: base data is immutable
        return view


def _dumps_shared(obj, store: SharedArrayStore) -> bytes:
    buffer = io.BytesIO()
    _SharedArrayPickler(buffer, store).dump(obj)
    return buffer.getvalue()


def _loads_shared(payload: bytes):
    return _SharedArrayUnpickler(io.BytesIO(payload)).load()


# ------------------------------------------------------ worker function
def _run_fragment_task(payload: bytes, deps_blob: bytes):
    """Executes one fragment in a pool worker.

    The payload carries ``(index, fragment root, disk, costs, profile)``
    with base arrays as shared-memory references; ``deps_blob`` carries
    the plainly pickled results of the fragment's dependencies.  Returns
    the fragment's relation, its metrics (operator actuals re-listed in
    pre-order walk position, since ``id()`` keys do not survive the
    process boundary) and the measured wall-clock window as absolute
    ``perf_counter`` timestamps — with the fork start method the clock
    is shared with the parent, which rebases the window onto the run's
    origin to place the fragment on the measured timeline.  With
    ``profile`` the worker runs the fragment under ``cProfile`` and the
    top functions travel back on ``metrics.profile`` (plain dicts, so
    they pickle like everything else)."""
    index, root, disk, costs, profile = _loads_shared(payload)
    deps: Dict[int, Relation] = pickle.loads(deps_blob)
    started = time.perf_counter()
    relation, metrics = run_fragment(root, disk, costs, deps, profile)
    ended = time.perf_counter()
    actuals = [metrics.operators.get(id(op)) for op in walk_physical(root)]
    metrics.operators = {}
    return index, relation, metrics, actuals, (started, ended)


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

    def close(self) -> None:  # backends holding pools/blocks override
        pass


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
    """Executes the same fragment DAG on a real ``multiprocessing``
    pool, measuring wall clock next to the simulated charges.

    The pool is created lazily, when the first fragment is dispatched
    to it, and reused across queries (grown if a later plan asks for
    more workers); the final (serial-tail) fragment runs in the parent
    — it consumes every gathered partition anyway, so running it here
    saves shipping the gathered result through one more process hop,
    and a one-fragment plan never touches the pool.  ``close()`` tears
    down the pool and unlinks every shared-memory block; the next
    dispatch recreates what it needs.
    """

    name = "process"

    def __init__(self, min_shared_bytes: int = SHARED_MIN_BYTES):
        self._store = SharedArrayStore(min_bytes=min_shared_bytes)
        # fork keeps worker start cheap and inherits the loaded modules;
        # platforms without it (Windows/macOS spawn default) still work —
        # everything a worker needs travels through the pickled payload.
        methods = get_all_start_methods()
        self._mp = get_context("fork" if "fork" in methods else None)
        self._pool = None
        self._pool_size = 0

    # ------------------------------------------------------------- pool
    def _ensure_pool(self, workers: int):
        workers = max(int(workers), 1)
        if self._pool is not None and self._pool_size < workers:
            self._shutdown_pool()
        if self._pool is None:
            self._pool = self._mp.Pool(processes=workers)
            self._pool_size = workers
        return self._pool

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
            self._pool_size = 0

    def close(self) -> None:
        self._shutdown_pool()
        self._store.close()

    def __del__(self):  # best-effort; explicit close() is the contract
        try:
            self.close()
        except Exception:
            pass

    # -------------------------------------------------------------- run
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
        events: "queue.SimpleQueue" = queue.SimpleQueue()

        def keep(index, relation, metrics, window) -> None:
            # rebase the perf_counter window onto this run's origin
            # (same clock across fork) for the measured timeline
            metrics.measured_start_seconds = window[0] - started
            metrics.measured_wall_seconds = window[1] - window[0]
            metrics.backend = self.name
            results[index] = relation
            fragment_metrics[index] = metrics

        def submit(fragment: Fragment) -> None:
            payload = _dumps_shared(
                (fragment.index, fragment.root, disk, costs, profile),
                self._store,
            )
            deps_blob = pickle.dumps(
                {dep: results[dep] for dep in fragment.depends_on},
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            self._ensure_pool(plan.workers).apply_async(
                _run_fragment_task,
                (payload, deps_blob),
                callback=lambda value: events.put(("done", value)),
                error_callback=lambda exc: events.put(("error", exc)),
            )

        pool_fragments = [f for f in plan.fragments if f is not final]
        for fragment in pool_fragments:
            if not remaining[fragment.index]:
                submit(fragment)
        completed = 0
        while completed < len(pool_fragments):
            kind, value = events.get()
            if kind == "error":
                raise RuntimeError(
                    "process backend: a fragment failed in a pool worker"
                ) from value
            index, relation, metrics, actuals, window = value
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
            completed += 1
            for waiter in dependents.get(index, ()):
                deps = remaining[waiter]
                deps.discard(index)
                if not deps and waiter != final.index:
                    submit(by_index[waiter])

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
