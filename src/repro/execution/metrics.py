"""Execution metrics: simulated IO/CPU time and peak memory accounting.

The reproduction targets of Figures 2 and 3 are *simulated* quantities:

* cold execution time = disk-model IO time + CPU-model operator time;
* memory usage = peak of concurrently live operator allocations (hash
  build sides, aggregation state, sort buffers) — what the paper's
  "query memory" measures, and what sandwich operators shrink.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

__all__ = [
    "OperatorActuals",
    "FragmentActuals",
    "ExecutionMetrics",
    "merge_operator_actuals",
]


@dataclass
class OperatorActuals:
    """Measured per-operator quantities of one plan execution.

    All charges are *exclusive*: the execution context adds each one to
    the running operator's record alone, so the values across a plan sum
    to the query totals (up to float summation order); ``rows_in`` is
    what a leaf read, else its children's rows out.  ``reserved_bytes``
    is the blocking state (hash builds, aggregation tables, sort
    buffers) this operator held; the query-wide peak of concurrently
    live reservations remains the Figure 3 quantity on
    :class:`ExecutionMetrics`.

    ``host_seconds`` is the one host-clock number: the real seconds the
    operator's own ``execute`` took, exclusive of its children's (see
    :meth:`~repro.execution.operators.PhysicalOp.run`).  It depends on
    the machine, so it takes no part in equality: two runs whose
    simulated actuals agree compare equal.

    ``executions`` counts how many times the operator ran within the
    recorded window.  An operator object can execute more than once per
    query — fragmenting clones only the spine of a plan, so a leaf or
    broadcast subtree may be shared by several fragments — and merged
    parallel metrics *accumulate* those runs (see
    :func:`merge_operator_actuals`) instead of keeping only the last
    one, preserving the sum-to-totals invariant.
    """

    kind: str
    description: str
    rows_in: int = 0
    rows_out: int = 0
    io_bytes: float = 0.0
    io_accesses: int = 0
    io_seconds: float = 0.0
    cpu_seconds: float = 0.0
    reserved_bytes: float = 0.0
    host_seconds: float = field(default=0.0, compare=False)
    executions: int = 1

    @property
    def total_seconds(self) -> float:
        return self.io_seconds + self.cpu_seconds

    def plus(self, other: "OperatorActuals") -> "OperatorActuals":
        """This and another execution of the same operator object, as a
        new record: actuals are values, no merge mutates one."""
        return replace(
            self,
            rows_in=self.rows_in + other.rows_in,
            rows_out=self.rows_out + other.rows_out,
            io_bytes=self.io_bytes + other.io_bytes,
            io_accesses=self.io_accesses + other.io_accesses,
            io_seconds=self.io_seconds + other.io_seconds,
            cpu_seconds=self.cpu_seconds + other.cpu_seconds,
            reserved_bytes=self.reserved_bytes + other.reserved_bytes,
            host_seconds=self.host_seconds + other.host_seconds,
            executions=self.executions + other.executions,
        )

    def summary(self) -> str:
        """One-line ``(actual ...)`` annotation for EXPLAIN ANALYZE."""
        parts = [f"rows={self.rows_in}->{self.rows_out}"]
        parts.append(f"io={self.io_seconds * 1e3:.3f}ms")
        parts.append(f"cpu={self.cpu_seconds * 1e3:.3f}ms")
        parts.append(f"mem={self.reserved_bytes / 1e6:.3f}MB")
        parts.append(f"host={self.host_seconds * 1e3:.3f}ms")
        if self.executions > 1:
            parts.append(f"execs={self.executions}")
        return "(actual " + " ".join(parts) + ")"


def merge_operator_actuals(
    merged: Dict[int, "OperatorActuals"],
    operators: Dict[int, "OperatorActuals"],
) -> None:
    """Fold one execution's per-operator actuals into ``merged``.

    Keys are operator identities (``id(op)``); a key already present
    means the same operator object ran again in another fragment (shared
    leaf/broadcast subtrees), so its charges are *accumulated* — never
    overwritten, which silently dropped work and broke the
    sum-to-totals invariant.  Entries are shared with ``operators``, never
    mutated: a repeat replaces the entry with :meth:`OperatorActuals.plus`."""
    for key, actuals in operators.items():
        existing = merged.get(key)
        merged[key] = actuals if existing is None else existing.plus(actuals)


@dataclass
class FragmentActuals:
    """Measured quantities of one plan fragment in a parallel execution.

    ``io_seconds``/``cpu_seconds`` are the *charged* (uncontended)
    resource seconds — across fragments they sum to the query totals.
    The timeline fields come from the deterministic scheduler: wall-clock
    positions on the assigned worker, with IO stretched when more
    concurrent streams than the disk supports were active."""

    index: int
    #: "partition" | "broadcast" | "source" | "copartition" | "final"
    #: | "serial" (see repro.parallel.fragments.Fragment)
    role: str
    description: str
    worker: int = -1
    depends_on: Tuple[int, ...] = ()
    ready_seconds: float = 0.0    # all dependencies finished
    start_seconds: float = 0.0    # dispatched to the worker
    io_end_seconds: float = 0.0   # IO phase done (includes contention)
    end_seconds: float = 0.0      # fragment finished
    io_seconds: float = 0.0       # charged IO (no contention stretch)
    cpu_seconds: float = 0.0
    rows_out: int = 0
    output_bytes: float = 0.0     # exchanged result buffer size
    peak_memory_bytes: float = 0.0
    #: real wall-clock seconds this fragment took on a measuring backend
    #: (the process backend); 0.0 on purely simulated runs.
    measured_seconds: float = 0.0
    #: measured wall-clock *positions* relative to the run's start (the
    #: process backend's timeline — what the trace exporter renders as
    #: the measured lane set); both 0.0 on purely simulated runs.
    measured_start_seconds: float = 0.0
    measured_end_seconds: float = 0.0

    @property
    def queue_wait_seconds(self) -> float:
        """Time spent ready but waiting for a free worker."""
        return max(self.start_seconds - self.ready_seconds, 0.0)

    @property
    def makespan_contribution_seconds(self) -> float:
        """Wall-clock this fragment occupied its worker (IO stretch
        under disk contention included)."""
        return max(self.end_seconds - self.start_seconds, 0.0)

    def summary(self) -> str:
        """One-line annotation for EXPLAIN ANALYZE fragment headers."""
        line = (
            f"(worker {self.worker} "
            f"start={self.start_seconds * 1e3:.3f}ms "
            f"busy={self.makespan_contribution_seconds * 1e3:.3f}ms "
            f"wait={self.queue_wait_seconds * 1e3:.3f}ms"
        )
        if self.measured_seconds > 0.0:
            line += f" measured={self.measured_seconds * 1e3:.3f}ms"
        return line + ")"


@dataclass
class ExecutionMetrics:
    """Accumulated cost of one query execution."""

    io_bytes: float = 0.0
    io_accesses: int = 0
    io_seconds: float = 0.0
    cpu_seconds: float = 0.0
    rows_scanned: int = 0
    rows_produced: int = 0
    #: on a single fragment's own metrics: the size of the result it
    #: produced — the exchange buffer its consumers read.  The merge
    #: takes a fragment's rows and bytes from here, never from the
    #: result itself.
    output_bytes: float = 0.0
    #: rows read from delta (uncompacted insert) runs by merge-on-read
    #: scans; a subset of ``rows_scanned``.
    delta_rows_scanned: int = 0
    #: amortized update cost: simulated seconds spent folding delta
    #: stores back into base layouts (charged by commits, reported next
    #: to query time by the refresh harness; not part of
    #: ``total_seconds``).
    compaction_seconds: float = 0.0
    #: peak of concurrently live operator state, the Figure 3 quantity.
    #: A fragment holds every reservation until it ends, so on one
    #: fragment's own metrics this is the sum of its holds; the
    #: scheduler's merge takes the concurrent peak over fragments.
    peak_memory_bytes: float = 0.0
    #: the same peak per kind of blocking state (hash build, aggregation
    #: table, sort buffer, exchange buffer).  Each tag peaks on its own,
    #: so the tag peaks need not sum to ``peak_memory_bytes``.
    peak_memory_by_tag: Dict[str, float] = field(default_factory=dict)
    #: free-form counters: CPU seconds per charge kind, and event counts.
    counters: Dict[str, float] = field(default_factory=dict)
    #: per-operator actuals, keyed by physical-operator identity
    #: (``id(op)``); populated by the execution context as it runs.
    operators: Dict[int, OperatorActuals] = field(default_factory=dict)
    #: simulated workers this execution ran on (1 = serial).
    workers: int = 1
    #: simulated wall clock: the makespan over worker timelines.  For a
    #: serial run this equals ``total_seconds``; a parallel run overlaps
    #: fragments, so makespan < total (the resource-seconds sum).
    makespan_seconds: float = 0.0
    #: per-fragment actuals of a finished execution (a serial run is one
    #: fragment of role ``serial``); empty on a single fragment's own
    #: metrics.
    fragments: List[FragmentActuals] = field(default_factory=list)
    #: execution backend that produced these metrics ("simulated" — the
    #: deterministic in-process scheduler — or "process"); merged metrics
    #: take it from their fragments'.
    backend: str = "simulated"
    #: real wall-clock seconds of the whole execution on a measuring
    #: backend, from its start to the end of the last fragment
    #: (dispatch, IPC and the serial tail included); 0.0 on purely
    #: simulated runs.  Lives *next to* the simulated charges — it never
    #: feeds ``total_seconds``/``wall_seconds``, which stay deterministic
    #: model outputs.
    measured_wall_seconds: float = 0.0
    #: on a single fragment's own metrics from a measuring backend:
    #: where its measured window starts, relative to the run's origin
    #: (``measured_wall_seconds`` is then the window's length).
    measured_start_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.io_seconds + self.cpu_seconds

    @property
    def wall_seconds(self) -> float:
        """Simulated wall clock: makespan when scheduled, else the
        serial total."""
        return self.makespan_seconds if self.makespan_seconds > 0.0 else self.total_seconds

    @property
    def parallel_speedup(self) -> float:
        """Resource-seconds over wall-seconds: how much the schedule
        overlapped (1.0 for a serial run)."""
        wall = self.wall_seconds
        return self.total_seconds / wall if wall > 0.0 else 1.0

    def charge_io(self, num_bytes: float, num_accesses: int, seconds: float) -> None:
        self.io_bytes += num_bytes
        self.io_accesses += num_accesses
        self.io_seconds += seconds

    def charge_cpu(self, seconds: float, counter: str | None = None) -> None:
        self.cpu_seconds += seconds
        if counter:
            self.counters[counter] = self.counters.get(counter, 0.0) + seconds

    def absorb(self, other: "ExecutionMetrics") -> None:
        """Add another execution's charges to this one: IO/CPU seconds,
        scan counts, counters and per-operator actuals (see
        :func:`merge_operator_actuals`).  How the two *overlapped* —
        wall clock, peak memory, fragment timelines — is the caller's
        to say."""
        self.charge_io(other.io_bytes, other.io_accesses, other.io_seconds)
        self.charge_cpu(other.cpu_seconds)
        self.rows_scanned += other.rows_scanned
        self.delta_rows_scanned += other.delta_rows_scanned
        self.compaction_seconds += other.compaction_seconds
        for key, value in other.counters.items():
            self.counters[key] = self.counters.get(key, 0.0) + value
        merge_operator_actuals(self.operators, other.operators)

    def bump(self, counter: str, amount: float = 1.0) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + amount

    def actuals_for(self, op) -> Optional[OperatorActuals]:
        """The recorded actuals of one physical operator, if it ran."""
        return self.operators.get(id(op))
