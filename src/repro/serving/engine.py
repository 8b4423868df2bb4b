"""The serving loop: N closed-loop streams on one shared timeline.

The engine keeps the repo's execute/schedule split at serving scale.
Events (query submissions, refresh commits) live in a deterministic
priority queue ordered by ``(simulated time, kind, insertion order)``
— commits rank before submissions at equal instants, and work
completions on the shared :class:`~repro.parallel.scheduler.TimelineSimulator`
are always processed before external events at the same instant.  When
an event is processed:

* **submit** — the stream draws its next item (generated queries sample
  literals from the *current* data, so generation order matters and is
  logged), a ticket joins the admission queue, and the policy fills
  free multiprogramming slots;
* **admit** — the query pins an :class:`~repro.serving.snapshot.EpochSnapshot`
  and is **physically executed right now**, in program order, before
  any later commit publishes — that is the MVCC mechanism: reads
  at the admission instant see exactly the pinned epochs, with zero
  copying.  This is the executor's own *run* stage
  (``backend.execute_fragments`` over ``executor.execution_plan``);
  only the *place* stage differs from a solo run: the fragments'
  *charged* costs (:func:`~repro.parallel.scheduler.fragment_works`)
  interleave with every other query's on the shared simulated
  timeline.  The query completes when its final fragment's slot ends,
  and its metrics are then merged by the solo run's own
  :func:`~repro.parallel.scheduler.merge_scheduled`, over its
  fragments' places counted from the admission instant;
* **commit** — the refresh batch is applied and becomes visible
  *atomically at the issue instant* (the write-ahead-log view: later
  admissions see it, in-flight queries — already executed — do not).
  Its charged work (binning CPU + delta-write IO) is scheduled on the
  pool afterward; the stream's next batch waits for that work, while
  compaction runs as a separate background unit that blocks nothing —
  charged to whatever worker is idle.

Determinism: given the same streams, seed, policy and worker count, the
event order, the interleaving, every instant and every charged second
are identical across runs (``ServingReport.fingerprint`` pins this).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import DataflowError
from ..execution.cost import DEFAULT_COSTS, CostModel
from ..execution.metrics import ExecutionMetrics
from ..execution.operators import walk_physical
from ..observe.registry import REGISTRY
from ..planner.executor import ExecutionOptions, Executor
from ..schemes.base import PhysicalDatabase
from ..storage.io_model import PAPER_SSD, DiskModel
from ..updates.compaction import CompactionPolicy
from ..updates.session import UpdateSession
from .metrics import CommitRecord, QueryRecord, ServingReport, WorkSlot
from .policies import AdmissionPolicy, create_policy
from .snapshot import EpochSnapshot
from .streams import QueryStream, RefreshStream
from ..parallel.scheduler import (
    FragmentWork,
    TimelineSimulator,
    fragment_works,
    merge_scheduled,
)

__all__ = ["QueryTicket", "ServingEngine"]

_EVENT_COMMIT = 0
_EVENT_SUBMIT = 1


@dataclass
class QueryTicket:
    """A submitted-but-not-yet-admitted query in the waiting queue."""

    stream: str
    seq: int
    submit_seq: int
    submitted: float
    plan: object
    description: str
    estimated_work: float = 0.0


@dataclass
class _WorkInfo:
    """What one timeline work unit belongs to."""

    kind: str                     # "fragment" | "commit" | "compaction"
    label: str
    stream: str
    finish: Optional[Callable[[float], None]] = None


class ServingEngine:
    """Serves concurrent query and refresh streams over one physical
    database on a shared simulated worker pool."""

    def __init__(
        self,
        pdb: PhysicalDatabase,
        disk: Optional[DiskModel] = None,
        costs: Optional[CostModel] = None,
        options: Optional[ExecutionOptions] = None,
        policy: object = "fifo",
        max_concurrent: Optional[int] = None,
        compaction_policy: Optional[CompactionPolicy] = None,
        keep_results: bool = True,
    ):
        self.pdb = pdb
        self.disk = disk or PAPER_SSD
        self.costs = costs or DEFAULT_COSTS
        self.options = options or ExecutionOptions()
        self.executor = Executor(
            pdb, disk=self.disk, costs=self.costs, options=self.options
        )
        self.policy: AdmissionPolicy = create_policy(policy)
        self.workers = self.options.workers
        #: multiprogramming limit: how many queries may be in flight at
        #: once; defaults to the pool size, so admission pressure (and
        #: with it the fairness policy) kicks in exactly when the pool
        #: would be oversubscribed.
        self.max_concurrent = (
            int(max_concurrent) if max_concurrent is not None else self.workers
        )
        if self.max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        self.compaction_policy = compaction_policy
        self.keep_results = bool(keep_results)

    def close(self) -> None:
        self.executor.close()

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -------------------------------------------------------------- serve
    def serve(
        self,
        query_streams: Sequence[QueryStream],
        refresh_streams: Sequence[RefreshStream] = (),
        observer: Optional[Callable[[QueryRecord], None]] = None,
    ) -> ServingReport:
        """Run every stream to exhaustion; returns the full report."""
        names = [s.name for s in list(query_streams) + list(refresh_streams)]
        if len(set(names)) != len(names):
            raise ValueError(f"stream names must be unique: {names}")

        self.policy.reset()
        report = ServingReport(
            scheme=self.pdb.scheme_name,
            policy=self.policy.name,
            workers=self.workers,
            max_concurrent=self.max_concurrent,
        )
        sim = TimelineSimulator(
            self.workers, stream_rate=self.disk.stream_rate
        )
        state = _ServeState(
            engine=self, sim=sim, report=report, observer=observer
        )
        for stream in query_streams:
            state.push(0.0, _EVENT_SUBMIT, stream, 0)
        for stream in refresh_streams:
            state.push(0.0, _EVENT_COMMIT, stream, 0)
        state.run()
        report.makespan_seconds = sim.makespan
        report.timeline = state.timeline()
        return report


@dataclass
class _ServeState:
    """One serve() run's mutable state (kept off the engine so engines
    are reusable and the loop reads as plain functions)."""

    engine: ServingEngine
    sim: TimelineSimulator
    report: ServingReport
    observer: Optional[Callable[[QueryRecord], None]]
    heap: list = field(default_factory=list)
    waiting: List[QueryTicket] = field(default_factory=list)
    inflight: int = 0
    next_event_seq: int = 0
    next_submit_seq: int = 0
    next_work_id: int = 0
    work_info: Dict[int, _WorkInfo] = field(default_factory=dict)
    streams: Dict[str, QueryStream] = field(default_factory=dict)

    # ---------------------------------------------------------- plumbing
    def push(self, when: float, kind: int, stream, index: int) -> None:
        heapq.heappush(
            self.heap, (when, kind, self.next_event_seq, stream, index)
        )
        self.next_event_seq += 1

    def new_work(
        self, info: _WorkInfo, io_seconds: float, cpu_seconds: float
    ) -> FragmentWork:
        index = self.next_work_id
        self.next_work_id += 1
        self.work_info[index] = info
        return FragmentWork(index, io_seconds, cpu_seconds)

    def log(self, kind: str, stream: str, index: int) -> None:
        self.report.events.append(
            {"kind": kind, "stream": stream, "index": index,
             "seconds": self.sim.now}
        )

    # -------------------------------------------------------------- loop
    def run(self) -> None:
        while True:
            t_next = self.sim.next_event_time()
            t_ext = self.heap[0][0] if self.heap else None
            if t_ext is None and t_next is None:
                if self.waiting:
                    raise DataflowError(
                        "serving deadlock: queries waiting with no "
                        "in-flight work or pending events"
                    )
                return
            if t_ext is not None and (t_next is None or t_ext <= t_next):
                completed = self.sim.run_until(t_ext)
                if completed:
                    # completions at or before the external instant are
                    # handled first; their consequences (closed-loop
                    # submissions) re-enter the heap and re-sort
                    self.on_completions(completed)
                    self.try_admit()
                    continue
                when, kind, _, stream, index = heapq.heappop(self.heap)
                if kind == _EVENT_COMMIT:
                    self.process_commit(stream, index)
                else:
                    self.process_submit(stream, index)
                self.try_admit()
            else:
                completed = self.sim.run_until(t_next)
                if completed:
                    self.on_completions(completed)
                self.try_admit()

    def on_completions(self, completed: List[int]) -> None:
        for index in completed:
            info = self.work_info[index]
            if info.finish is not None:
                # fires once; dropping it frees what it holds (a
                # query's per-fragment metrics) while the run goes on
                finish, info.finish = info.finish, None
                finish(self.sim.now)

    # ------------------------------------------------------- submissions
    def process_submit(self, stream: QueryStream, index: int) -> None:
        item = stream.item(index)
        if item is None:
            return  # stream exhausted: its closed loop ends here
        self.log("generate", stream.name, index)
        ticket = QueryTicket(
            stream=stream.name,
            seq=index,
            submit_seq=self.next_submit_seq,
            submitted=self.sim.now,
            plan=item.plan,
            description=item.description,
        )
        self.next_submit_seq += 1
        if getattr(self.engine.policy, "needs_estimate", False):
            ticket.estimated_work = self.estimate(item.plan)
        self.waiting.append(ticket)
        self.streams[stream.name] = stream
        REGISTRY.inc("serving.submitted")

    def estimate(self, plan) -> float:
        """Pure pre-execution work proxy: ``est_rows`` summed over the
        lowered physical plan (cached lowering; runs nothing)."""
        pplan = self.engine.executor.lower(plan)
        return float(
            sum(
                float(getattr(op, "est_rows", 0) or 0)
                for op in walk_physical(pplan.root)
            )
        )

    def try_admit(self) -> None:
        while self.waiting and self.inflight < self.engine.max_concurrent:
            position = self.engine.policy.select(self.waiting)
            ticket = self.waiting.pop(position)
            self.engine.policy.on_admitted(ticket)
            self.admit(ticket)

    # --------------------------------------------------------- admission
    def admit(self, ticket: QueryTicket) -> None:
        engine = self.engine
        snapshot = EpochSnapshot.pin(engine.pdb)
        self.log("execute", ticket.stream, ticket.seq)
        REGISTRY.inc("serving.admitted")

        executor = engine.executor
        plan = executor.execution_plan(executor.lower(ticket.plan))
        results, fragment_metrics = executor.backend().execute_fragments(
            plan, engine.disk, engine.costs
        )
        # reads must not move epochs: the MVCC invariant, checked hot
        snapshot.check(engine.pdb)
        # the fragments' results die with this call (the merge at finish
        # reads only their metrics), so an in-flight query holds no
        # intermediate relation, and no final one it will not report
        relation = results[plan.final.index].materialised() if engine.keep_results else None

        works = fragment_works(plan, fragment_metrics, self.next_work_id)
        self.next_work_id += len(works)
        for fragment, work in zip(plan.fragments, works):
            label = ticket.description
            if plan.is_parallel:
                label += f" f{fragment.index}"
            self.work_info[work.index] = _WorkInfo(
                kind="fragment", label=label, stream=ticket.stream
            )
        admit_seconds = self.sim.now
        self.inflight += 1
        slots = self.sim.add_works(works)

        def finish(now: float) -> None:
            metrics = merge_scheduled(plan, fragment_metrics, slots)
            record = QueryRecord(
                stream=ticket.stream,
                seq=ticket.seq,
                description=ticket.description,
                submit_seconds=ticket.submitted,
                admit_seconds=admit_seconds,
                finish_seconds=now,
                snapshot=snapshot,
                reorders=plan.reorders,
                reaggregates=plan.reaggregates,
                rows=metrics.rows_produced,
                fragment_count=len(plan.fragments),
                metrics=metrics,
                relation=relation,
            )
            self.report.queries.append(record)
            self.inflight -= 1
            REGISTRY.inc("serving.completed")
            if self.observer is not None:
                self.observer(record)
            # closed loop: the stream submits its next query now
            stream = self.streams.get(ticket.stream)
            if stream is not None:
                self.push(now, _EVENT_SUBMIT, stream, ticket.seq + 1)

        self.work_info[works[-1].index].finish = finish

    # ----------------------------------------------------------- commits
    def process_commit(self, stream: RefreshStream, index: int) -> None:
        engine = self.engine
        session = UpdateSession(
            engine.pdb,
            policy=engine.compaction_policy,
            disk=engine.disk,
            costs=engine.costs,
        )
        description = stream.apply(index, session)
        if description is None:
            return  # refresh stream exhausted
        self.log("commit", stream.name, index)
        result = session.commit()
        metrics = result.scheme_metrics.get(
            engine.pdb.scheme_name, ExecutionMetrics()
        )
        record = CommitRecord(
            stream=stream.name,
            seq=index,
            description=description,
            issue_seconds=self.sim.now,
            work_seconds=metrics.total_seconds,
            compaction_seconds=metrics.compaction_seconds,
            epochs=dict(result.epochs),
            rows_inserted=sum(result.inserted.values()),
            rows_deleted=sum(result.deleted.values()),
            compacted_tables=result.compacted_tables(),
        )
        self.report.commits.append(record)
        REGISTRY.inc("serving.commits")

        info = _WorkInfo(
            kind="commit", label=f"{stream.name}: {description}",
            stream=stream.name,
        )

        def commit_work_done(now: float) -> None:
            record.work_end_seconds = now
            # closed loop: the next refresh batch waits for the commit
            # *work*, never for background compaction
            self.push(now, _EVENT_COMMIT, stream, index + 1)

        info.finish = commit_work_done
        works = [self.new_work(info, metrics.io_seconds, metrics.cpu_seconds)]
        if metrics.compaction_seconds > 0.0:
            # compaction is rewrite-dominated: modelled as IO so it
            # contends for disk streams, on whichever worker is idle
            works.append(
                self.new_work(
                    _WorkInfo(
                        kind="compaction",
                        label=f"{stream.name}: compaction",
                        stream=stream.name,
                    ),
                    io_seconds=metrics.compaction_seconds,
                    cpu_seconds=0.0,
                )
            )
            REGISTRY.inc("serving.background_compactions")
        self.sim.add_works(works)

    # ------------------------------------------------------------ output
    def timeline(self) -> List[WorkSlot]:
        slots = []
        for index in sorted(self.sim.slots):
            slot = self.sim.slots[index]
            work = self.sim.works[index]
            info = self.work_info[index]
            slots.append(
                WorkSlot(
                    index=index,
                    kind=info.kind,
                    label=info.label,
                    stream=info.stream,
                    worker=slot.worker,
                    ready_seconds=slot.ready_seconds,
                    start_seconds=slot.start_seconds,
                    io_end_seconds=slot.io_end_seconds,
                    end_seconds=slot.end_seconds,
                    io_seconds=work.io_seconds,
                    cpu_seconds=work.cpu_seconds,
                )
            )
        return slots
