"""Plan execution: lower once, fragment, then run.

The :class:`Executor` glues the layers of the engine together for one
:class:`~repro.schemes.base.PhysicalDatabase`:

* :func:`repro.planner.lowering.lower` turns the logical plan into a
  typed physical plan — every strategy decision (merge/sandwich/hash
  joins, streaming/sandwich/hash aggregation, scan pruning, replica
  choice) resolved and recorded on the operators;
* with ``options.workers > 1``, :func:`repro.parallel.plan_fragments`
  derives zone-/page-aligned partition fragments from that *same*
  lowering (fragments never re-lower); with one worker, or when nothing
  splits, the plan is its own single fragment
  (:func:`repro.parallel.fragments.serial_plan`);
* ``options.backend`` picks where the fragments run
  (:mod:`repro.parallel.backends`): in this process, or on a real
  ``multiprocessing`` pool that measures wall clock next to the
  simulated charges.  :mod:`repro.execution.operators` charges
  simulated IO/CPU time as they run; the scheduler
  (:mod:`repro.parallel.scheduler`) places the fragments on the
  simulated workers and merges their metrics — the makespan, and the
  peak of concurrently live operator memory (the paper's Figure 3
  quantity).  A serial run is the one-fragment, one-worker case of the
  same three steps.

Results are identical under every scheme *and every worker count* (the
integration tests assert this bit-for-bit for all 22 TPC-H queries);
what changes is the physical plan, its cost, and — in parallel — the
makespan.  Because lowering and fragmenting are pure and deterministic,
both are cached, each in an LRU dict keyed on a node's identity:
lowered plans on ``id(node)``, fragment plans on ``id(pplan.root)``.
The caches hold one epoch of the physical database: epochs only grow,
so once a commit moves it no older entry can hit again, and both
caches are emptied rather than left pinning the table versions their
plans scan.  The options are frozen, so they need no place in a key.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass
from typing import List, Optional

from ..execution.cost import DEFAULT_COSTS, CostModel
from ..execution.metrics import ExecutionMetrics
from ..execution.operators import PhysicalScan
from ..execution.relation import Relation
from ..observe.registry import REGISTRY
from ..parallel.backends import ExecutionBackend, create_backend
from ..parallel.fragments import ParallelPlan, plan_fragments, serial_plan
from ..schemes.base import PhysicalDatabase
from ..storage.io_model import PAPER_SSD, DiskModel
from .lowering import ExecutionOptions, PhysicalPlan, lower

__all__ = ["ExecutionOptions", "QueryResult", "Executor"]

_PLAN_CACHE_SIZE = 32


class _LruCache(OrderedDict):
    """The executor's plan and fragment caches: at most
    ``_PLAN_CACHE_SIZE`` entries, least recently used evicted first,
    every lookup counted as ``<name>.hits`` / ``<name>.misses`` in the
    registry."""

    def __init__(self, name: str):
        super().__init__()
        self.name = name

    def lookup(self, key):
        """The entry under ``key`` (now the most recently used), or None."""
        entry = self.get(key)
        REGISTRY.inc(f"{self.name}.misses" if entry is None else f"{self.name}.hits")
        if entry is not None:
            self.move_to_end(key)
        return entry

    def store(self, key, entry) -> None:
        self[key] = entry
        while len(self) > _PLAN_CACHE_SIZE:
            self.popitem(last=False)


@dataclass
class QueryResult:
    relation: Relation
    metrics: ExecutionMetrics

    @property
    def rows(self) -> List[tuple]:
        return self.relation.to_rows()


class Executor:
    def __init__(
        self,
        physical_db: PhysicalDatabase,
        disk: Optional[DiskModel] = None,
        costs: Optional[CostModel] = None,
        options: Optional[ExecutionOptions] = None,
        tracer=None,
    ):
        self.pdb = physical_db
        self.disk = disk or PAPER_SSD
        self.costs = costs or DEFAULT_COSTS
        self.options = options or ExecutionOptions()
        #: optional :class:`repro.observe.SpanTracer`.  Strictly passive:
        #: phases are wrapped in wall-clock spans, and the tracer never
        #: touches the metrics — simulated charges and results are
        #: bit-identical with tracing on or off.
        self.tracer = tracer
        #: backend name -> instantiated backend; created lazily on the
        #: first run (a process backend is only a handle: the process's
        #: one pool starts at the first fragment anyone dispatches).
        self._backends: dict = {}
        #: id(node) -> (node, PhysicalPlan), LRU-ordered.  Keyed by node
        #: *identity* (logical plans may hold unhashable expressions);
        #: the node is kept in the value so its id cannot be recycled
        #: while the entry lives.
        self._plan_cache = _LruCache("plan_cache")
        #: id(physical root) -> (PhysicalPlan, ParallelPlan); fragmenting
        #: reuses the cached lowering and never re-lowers.
        self._fragment_cache = _LruCache("fragment_cache")
        #: the epoch both caches hold: a commit moves it, so they never
        #: serve a plan lowered against an older version of a table.
        self._cached_epoch = self.pdb.epoch

    # ----------------------------------------------------------- planning
    def _span(self, name: str, **attributes):
        """A tracer span when a tracer is attached, else a no-op."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, **attributes)

    def _drop_older_epoch(self) -> None:
        """Empty both caches if the database's epoch moved since they
        were filled."""
        epoch = self.pdb.epoch
        if epoch != self._cached_epoch:
            self._plan_cache.clear()
            self._fragment_cache.clear()
            self._cached_epoch = epoch

    def lower(self, plan) -> PhysicalPlan:
        """Lower a logical plan (cached; pure — runs nothing)."""
        from .logical import Plan

        node = plan.node if isinstance(plan, Plan) else plan
        key = id(node)
        self._drop_older_epoch()
        hit = self._plan_cache.lookup(key)
        if hit is not None:
            return hit[1]
        with self._span("lower", scheme=self.pdb.scheme_name):
            pplan = lower(self.pdb, node, self.options)
        # counted here, not in lower(): lowering stays pure
        scans = [op for op in pplan.operators() if isinstance(op, PhysicalScan)]
        selected = [
            op.selection for op in scans if not op.selection.is_whole(op.stored.stored_rows)
        ]
        REGISTRY.inc("lowering.scans", len(scans))
        REGISTRY.inc("lowering.full_scans", len(scans) - len(selected))
        REGISTRY.inc("lowering.rows_selected", sum(map(len, selected)))
        self._plan_cache.store(key, (node, pplan))
        return pplan

    def parallel_plan(self, pplan: PhysicalPlan) -> ParallelPlan:
        """The fragment plan of a lowered plan for this executor's worker
        count (cached; derived from the lowering, never re-lowered)."""
        key = id(pplan.root)
        self._drop_older_epoch()
        hit = self._fragment_cache.lookup(key)
        if hit is not None:
            return hit[1]
        with self._span("fragment", workers=self.options.workers):
            parallel = plan_fragments(
                pplan, self.options.workers,
                min_partition_rows=self.options.min_partition_rows,
                enable_copartition=self.options.enable_copartition,
                enable_partial_agg=self.options.enable_partial_agg,
            )
        self._fragment_cache.store(key, (pplan, parallel))
        return parallel

    def execution_plan(self, pplan: PhysicalPlan) -> ParallelPlan:
        """The fragment DAG :meth:`run` executes for a lowered plan:
        its :meth:`parallel_plan` when the options ask for workers and
        something splits, else the whole plan as one serial fragment
        (built directly — one worker never consults the fragment
        planner or its cache)."""
        if self.options.workers > 1:
            parallel = self.parallel_plan(pplan)
            if parallel.is_parallel:
                return parallel
        return serial_plan(pplan)

    # ------------------------------------------------------------ running
    def backend(self) -> ExecutionBackend:
        """The execution backend the options name (created lazily and
        cached).  A process backend owns nothing: the worker pool is
        the *process's* (:mod:`repro.parallel.backends`), shared by
        every executor, so a cold executor per query forks nothing."""
        name = self.options.backend
        backend = self._backends.get(name)
        if backend is None:
            backend = create_backend(name)
            self._backends[name] = backend
        return backend

    def close(self) -> None:
        """Drop this executor's backend handles.  Releases nothing
        shared — the process backend's pool and the tables it holds for
        its workers outlive every executor and are torn down by
        :func:`repro.parallel.backends.shutdown` (registered with
        ``atexit``).  Safe to call repeatedly; the executor stays
        usable."""
        for backend in self._backends.values():
            backend.close()
        self._backends = {}

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run(self, pplan: PhysicalPlan) -> QueryResult:
        """Execute an already-lowered physical plan: its fragments run
        on the backend, are placed on the simulated workers and merged
        (see :meth:`execution_plan` for what the fragments are)."""
        plan = self.execution_plan(pplan)
        if plan.is_parallel:
            attributes = dict(
                backend=self.options.backend, workers=plan.workers,
                fragments=len(plan.fragments),
            )
        else:
            attributes = dict(backend="serial", workers=1)
        with self._span("execute", **attributes):
            relation, metrics = self.backend().run(plan, self.disk, self.costs)
        REGISTRY.inc("queries_executed")
        if metrics.delta_rows_scanned:
            REGISTRY.inc("delta_rows_scanned", metrics.delta_rows_scanned)
        # leaving the engine: the gathered rows, not the inputs they index
        return QueryResult(relation.materialised(), metrics)

    def execute(self, plan) -> QueryResult:
        """Lower (or fetch the cached lowering of) a plan and run it."""
        with self._span("query", category="query", scheme=self.pdb.scheme_name):
            if isinstance(plan, PhysicalPlan):
                return self.run(plan)
            return self.run(self.lower(plan))
