"""Deterministic multi-worker scheduling of plan fragments.

Execution is split from timing, mirroring the engine's simulation
philosophy (results are exact, time is modelled).  Every execution —
serial, simulated-parallel, process-parallel, served — is the same
three steps over a :class:`~repro.parallel.fragments.ParallelPlan`
(a serial plan is the one-fragment plan):

1. **Run** every fragment once, in topological order, each with its own
   :class:`~repro.execution.metrics.ExecutionMetrics`
   (:func:`run_fragment`) — producing exact results and the fragment's
   *charged* (uncontended) IO/CPU seconds.  Results flow between
   fragments through the context's ``fragment_results`` map, never
   recomputed.  *Where* fragments run is the backend's choice
   (:mod:`repro.parallel.backends`).
2. **Place** the fragments (:func:`fragment_works`) on a
   :class:`TimelineSimulator` of *k* simulated workers with
   dependency-aware list dispatch (longest fragment first, index as the
   deterministic tie-break).  The event-driven timeline models each
   fragment as an IO phase followed by a CPU phase; concurrent IO
   phases share the disk according to
   :meth:`~repro.storage.io_model.DiskModel.stream_rate`, so a device
   with 4 parallel streams serves 4 scans at full speed and stretches 8.
   A solo run owns a private timeline (:func:`merge_parallel_metrics`);
   the serving layer places the same works on its shared one.
3. **Merge** (:func:`merge_scheduled`): query totals are the *sums*
   over fragments (so exclusive per-operator actuals still sum to
   totals), the last fragment's finish becomes
   ``metrics.makespan_seconds``, and peak memory is recomputed as the
   peak of *concurrently live* footprints: overlapping fragments'
   held bytes plus exchanged result buffers held from a
   producer's finish until its last consumer finishes.

Shuffle accounting (co-partitioned joins): a producer feeding rebinning
:class:`~repro.parallel.exchange.Repartition` consumers has its whole
output buffered like any exchange — the buffer lives from the producer's
finish until the *last* bin-range consumer is done, so the concurrent
peak sees the full shuffled volume — and every consumer charges the
modelled transfer inside its own fragment: per-received-row re-binning
CPU plus :class:`~repro.storage.io_model.DiskModel` IO for the bucket it
keeps (one access per producer).  Those charges land in the consumer's
IO/CPU phases, so the shuffle competes for disk streams and shows up in
the makespan exactly like scan IO does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import DataflowError
from ..execution.cost import CostModel
from ..execution.metrics import ExecutionMetrics, FragmentActuals
from ..execution.operators import ExecutionContext, PhysicalOp
from ..execution.relation import Relation
from ..storage.io_model import DiskModel
from .fragments import ParallelPlan

__all__ = [
    "FragmentWork",
    "ScheduledFragment",
    "TimelineSimulator",
    "concurrent_peak",
    "run_fragment",
    "fragment_works",
    "merge_scheduled",
    "merge_parallel_metrics",
]

_EPS = 1e-15


@dataclass
class FragmentWork:
    """Scheduling input: one fragment's charged resource demands."""

    index: int
    io_seconds: float
    cpu_seconds: float
    depends_on: Tuple[int, ...] = ()


@dataclass
class ScheduledFragment:
    """Scheduling output: one fragment's place on the timeline."""

    index: int
    worker: int = -1
    ready_seconds: float = 0.0
    start_seconds: float = 0.0
    io_end_seconds: float = 0.0
    end_seconds: float = 0.0


@dataclass(eq=False)
class _BatchClock:
    """Seconds since one ``add_works`` call; ticks while the batch has
    unfinished works."""

    seconds: float = 0.0
    unfinished: int = 0


class TimelineSimulator:
    """The deterministic list scheduler, in online form.

    Among ready works the one with the most total work first (ties by
    index) onto the lowest-numbered free worker; concurrent IO phases
    share the disk through ``stream_rate`` — the per-stream rate as a
    function of the number of active streams
    (:meth:`~repro.storage.io_model.DiskModel.stream_rate`); phase
    finishes are processed in index order.  The interface is incremental
    because the serving layer (``repro.serving``) keeps adding work —
    fragments of newly admitted queries, refresh-commit work, background
    compaction: :meth:`add_works` registers work at the current instant,
    :meth:`run_until` advances the clock to the next completion (or a
    caller-supplied horizon), and the caller reacts to completions by
    adding more work.  A single query is the closed case — one
    ``add_works``, then :meth:`run_to_idle` — so the single-query timing
    model and the multi-query serving timeline are one piece of code.
    """

    def __init__(self, workers: int, stream_rate: Callable[[int], float]):
        self.workers = max(int(workers), 1)
        self._stream_rate = stream_rate
        self.now = 0.0
        self.works: Dict[int, FragmentWork] = {}
        self.slots: Dict[int, ScheduledFragment] = {}
        #: index -> (batch clock, slot on that clock); see add_works
        self._local: Dict[int, Tuple[_BatchClock, ScheduledFragment]] = {}
        self._clocks: List[_BatchClock] = []  # those still ticking
        self._remaining_deps: Dict[int, set] = {}
        self._dependents: Dict[int, List[int]] = {}
        self._ready: List[int] = []
        self._free: List[int] = list(range(self.workers))
        #: index -> [phase ("io"|"cpu"), remaining seconds, worker]
        self._running: Dict[int, list] = {}
        self._completed: set = set()
        self.makespan = 0.0

    # ------------------------------------------------------------ state
    @property
    def pending(self) -> int:
        """Registered works not yet completed."""
        return len(self.works) - len(self._completed)

    @property
    def idle(self) -> bool:
        return not self._running and not self._ready

    def _priority(self, index: int) -> Tuple[float, int]:
        work = self.works[index]
        return -(work.io_seconds + work.cpu_seconds), index

    # ------------------------------------------------------------ input
    def add_works(self, works: List[FragmentWork]) -> List[ScheduledFragment]:
        """Register works at the current instant.  ``depends_on`` may
        reference works in the same batch, earlier batches, or already
        completed ones; indices must be unique across the timeline's
        whole life.

        Returns the batch's slots *on its own clock* (parallel to
        ``works``; filled in as the timeline advances): positions
        counted from this instant by a clock that starts at 0.0 and
        takes the very steps ``now`` takes.  ``slot - now`` would lose
        bits to rounding; the batch clock does not, so a batch that has
        the timeline to itself gets, bit for bit, the positions a
        private timeline would give it — a solo run *is* the one-stream
        case of a served one."""
        clock = _BatchClock(unfinished=len(works))
        if works:
            self._clocks.append(clock)
        for w in works:
            if w.index in self.works:
                raise ValueError(f"duplicate work index {w.index}")
            self.works[w.index] = w
            self.slots[w.index] = ScheduledFragment(
                index=w.index, ready_seconds=self.now
            )
            self._local[w.index] = (clock, ScheduledFragment(index=w.index))
            deps = {d for d in w.depends_on if d not in self._completed}
            self._remaining_deps[w.index] = deps
            for dep in deps:
                self._dependents.setdefault(dep, []).append(w.index)
            if not deps:
                self._ready.append(w.index)
        self._ready.sort(key=self._priority)
        return [self._local[w.index][1] for w in works]

    def _stamp(self, index: int, instant: str) -> None:
        """Record the current instant on both of a work's slots."""
        setattr(self.slots[index], instant, self.now)
        clock, local = self._local[index]
        setattr(local, instant, clock.seconds)

    def _advance(self, seconds: float, to: float) -> None:
        self.now = to
        for clock in self._clocks:
            clock.seconds += seconds

    # --------------------------------------------------------- stepping
    def _dispatch(self) -> None:
        while self._free and self._ready:
            index = self._ready.pop(0)
            worker = self._free.pop(0)
            w = self.works[index]
            self.slots[index].worker = self._local[index][1].worker = worker
            self._stamp(index, "start_seconds")
            if w.io_seconds > _EPS:
                self._running[index] = ["io", w.io_seconds, worker]
            else:
                self._stamp(index, "io_end_seconds")
                self._running[index] = ["cpu", w.cpu_seconds, worker]

    def _next_step(self) -> Tuple[float, float]:
        """The ``(step, io rate)`` to the next phase finish among the
        currently running works (dispatch must already have happened)."""
        active_io = sum(1 for state in self._running.values() if state[0] == "io")
        rate = max(self._stream_rate(active_io), 1e-12) if active_io else 1.0
        step = min(
            state[1] / rate if state[0] == "io" else state[1]
            for state in self._running.values()
        )
        return max(step, 0.0), rate

    def next_event_time(self) -> Optional[float]:
        """The instant of the next phase finish, or ``None`` if nothing
        is running (after dispatching anything ready).  Exact: the
        active set — hence the shared-disk rate — cannot change before
        it."""
        self._dispatch()
        if not self._running:
            return None
        step, _ = self._next_step()
        return self.now + step

    def run_until(self, until: Optional[float] = None) -> List[int]:
        """Advance the clock to the first instant at which one or more
        works *complete* (internal IO->CPU phase transitions do not
        stop the run), or to ``until``, whichever comes first; ``None``
        means run until idle.  Returns the indices completed at the
        stopping instant in index order (empty when ``until`` or
        idleness was reached first).  The clock never exceeds
        ``until``."""
        while True:
            self._dispatch()
            if not self._running:
                if until is not None and self.now < until:
                    self.now = until
                return []
            step, rate = self._next_step()
            target = self.now + step
            if until is not None and target > until:
                partial = until - self.now
                if partial > 0.0:
                    for state in self._running.values():
                        state[1] -= partial * (
                            rate if state[0] == "io" else 1.0
                        )
                    self._advance(partial, to=until)
                return []
            self._advance(step, to=target)
            finished_phase = []
            for index, state in self._running.items():
                state[1] -= step * (rate if state[0] == "io" else 1.0)
                if state[1] <= _EPS:
                    finished_phase.append(index)
            completed: List[int] = []
            for index in sorted(finished_phase):
                phase, _, worker = self._running[index]
                if phase == "io":
                    self._stamp(index, "io_end_seconds")
                    cpu = self.works[index].cpu_seconds
                    if cpu > _EPS:
                        self._running[index] = ["cpu", cpu, worker]
                        continue
                self._stamp(index, "end_seconds")
                del self._running[index]
                self._completed.add(index)
                completed.append(index)
                clock = self._local[index][0]
                clock.unfinished -= 1
                if not clock.unfinished:
                    self._clocks.remove(clock)
                self._free.append(worker)
                self._free.sort()
                for dependent in self._dependents.get(index, ()):
                    deps = self._remaining_deps[dependent]
                    deps.discard(index)
                    if not deps and dependent not in self._running:
                        self._stamp(dependent, "ready_seconds")
                        self._ready.append(dependent)
                self._ready.sort(key=self._priority)
            if completed:
                self.makespan = max(self.makespan, self.now)
                return completed

    def run_to_idle(self) -> List[int]:
        """Run until nothing is runnable, returning every completion in
        completion order.  Raises if registered works can never run
        (dependency cycle: :class:`~repro.errors.DataflowError`)."""
        completed: List[int] = []
        while True:
            batch = self.run_until(None)
            if not batch:
                break
            completed.extend(batch)
        if self.pending and self.idle:
            raise DataflowError("fragment dependency cycle: nothing runnable")
        return completed


# --------------------------------------------------------------- memory
def concurrent_peak(intervals: List[Tuple[float, float, float]]) -> float:
    """Peak of overlapping ``(start, end, bytes)`` intervals.  At equal
    timestamps allocations apply before releases, so a handoff (producer
    buffer still live while the consumer starts) counts as overlap."""
    events = []
    for order, (start, end, num_bytes) in enumerate(intervals):
        if num_bytes <= 0.0:
            continue
        events.append((start, 0, order, num_bytes))
        events.append((end, 1, order, -num_bytes))
    events.sort()
    live = peak = 0.0
    for _, _, _, delta in events:
        live += delta
        peak = max(peak, live)
    return peak


# -------------------------------------------------------------- running
def run_fragment(
    root: PhysicalOp,
    disk: DiskModel,
    costs: CostModel,
    deps: Optional[Dict[int, Relation]] = None,
) -> Tuple[Relation, ExecutionMetrics]:
    """The *run* stage of one fragment: execute its operator tree once,
    in this process, under a fresh metrics object — producing the exact
    result and the fragment's charged (uncontended) metrics.  ``deps``
    holds the producer-fragment results its exchange leaves read.
    Every backend — and every worker process — runs fragments through
    this function."""
    metrics = ExecutionMetrics()
    ctx = ExecutionContext(disk, costs, metrics, fragment_results=deps)
    relation = root.run(ctx)
    metrics.rows_produced = relation.num_rows
    metrics.output_bytes = relation.data_bytes()
    return relation, metrics


def fragment_works(
    plan: ParallelPlan,
    fragment_metrics: Dict[int, ExecutionMetrics],
    first_index: int = 0,
) -> List[FragmentWork]:
    """The *place* stage's input: one work per executed fragment
    (parallel to ``plan.fragments``), carrying its charged seconds and
    its dependencies.  ``first_index`` offsets the work indices so many
    plans can share one timeline."""
    return [
        FragmentWork(
            index=first_index + f.index,
            io_seconds=fragment_metrics[f.index].io_seconds,
            cpu_seconds=fragment_metrics[f.index].cpu_seconds,
            depends_on=tuple(first_index + dep for dep in f.depends_on),
        )
        for f in plan.fragments
    ]


def merge_scheduled(
    plan: ParallelPlan,
    fragment_metrics: Dict[int, ExecutionMetrics],
    slots: Sequence[ScheduledFragment],
) -> ExecutionMetrics:
    """The *merge* stage: fold the executed fragments' metrics and
    their places on a timeline (``slots``, parallel to
    ``plan.fragments``, counted from the query's start — what
    :meth:`TimelineSimulator.add_works` returns) into the query's
    metrics.  It reads no fragment *result* — what it needs of one
    (rows, bytes) :func:`run_fragment` left on the fragment's metrics —
    so a caller that merges later (the serving engine, at query finish)
    holds no intermediate relation meanwhile.  Totals are sums over
    fragments; per-operator actuals
    *accumulate* across fragments (fragmenting clones only the spine,
    so a shared leaf/broadcast operator may have run several times
    under the same identity — see
    :func:`~repro.execution.metrics.merge_operator_actuals`); the
    makespan is the last fragment's finish; peak memory is the
    concurrent peak over fragment reservations plus every exchanged
    producer buffer held until its last consumer finishes."""
    slot_of = {f.index: slot for f, slot in zip(plan.fragments, slots)}
    merged = ExecutionMetrics()
    merged.workers = plan.workers
    merged.makespan_seconds = max(slot.end_seconds for slot in slots)
    consumers: Dict[int, List[int]] = {}
    for fragment in plan.fragments:
        for dep in fragment.depends_on:
            consumers.setdefault(dep, []).append(fragment.index)

    memory_intervals: List[Tuple[float, float, float]] = []
    #: per-tag live intervals, merged with the same concurrent-peak rule
    #: as the overall footprint (exchange buffers under "exchange").
    tag_intervals: Dict[str, List[Tuple[float, float, float]]] = {}
    for fragment in plan.fragments:
        metrics = fragment_metrics[fragment.index]
        slot = slot_of[fragment.index]
        merged.absorb(metrics)
        output_bytes = 0.0
        if consumers.get(fragment.index):
            output_bytes = metrics.output_bytes
            reads_end = max(slot_of[c].end_seconds for c in consumers[fragment.index])
            memory_intervals.append((slot.end_seconds, reads_end, output_bytes))
            tag_intervals.setdefault("exchange", []).append(
                (slot.end_seconds, reads_end, output_bytes)
            )
        memory_intervals.append(
            (slot.start_seconds, slot.end_seconds, metrics.peak_memory_bytes)
        )
        for tag, tag_peak in metrics.peak_memory_by_tag.items():
            tag_intervals.setdefault(tag, []).append(
                (slot.start_seconds, slot.end_seconds, tag_peak)
            )
        merged.fragments.append(
            FragmentActuals(
                index=fragment.index,
                role=fragment.role,
                description=fragment.note,
                worker=slot.worker,
                depends_on=fragment.depends_on,
                ready_seconds=slot.ready_seconds,
                start_seconds=slot.start_seconds,
                io_end_seconds=slot.io_end_seconds,
                end_seconds=slot.end_seconds,
                io_seconds=metrics.io_seconds,
                cpu_seconds=metrics.cpu_seconds,
                rows_out=metrics.rows_produced,
                output_bytes=output_bytes,
                peak_memory_bytes=metrics.peak_memory_bytes,
                measured_seconds=metrics.measured_wall_seconds,
                measured_start_seconds=metrics.measured_start_seconds,
                measured_end_seconds=(
                    metrics.measured_start_seconds + metrics.measured_wall_seconds
                ),
            )
        )
    merged.peak_memory_bytes = concurrent_peak(memory_intervals)
    merged.peak_memory_by_tag = {
        tag: concurrent_peak(intervals)
        for tag, intervals in tag_intervals.items()
    }
    # a measuring backend's wall clock is where its measured timeline ends
    merged.measured_wall_seconds = max(
        f.measured_end_seconds for f in merged.fragments
    )
    final = fragment_metrics[plan.final.index]
    merged.rows_produced = final.rows_produced
    merged.backend = final.backend
    return merged


def merge_parallel_metrics(
    plan: ParallelPlan,
    results: Dict[int, Relation],
    fragment_metrics: Dict[int, ExecutionMetrics],
    disk: DiskModel,
) -> Tuple[Relation, ExecutionMetrics]:
    """The *time* stage of a solo run: place the executed fragments on
    a private timeline of ``plan.workers`` workers and merge."""
    sim = TimelineSimulator(plan.workers, stream_rate=disk.stream_rate)
    slots = sim.add_works(fragment_works(plan, fragment_metrics))
    sim.run_to_idle()
    return results[plan.final.index], merge_scheduled(plan, fragment_metrics, slots)
