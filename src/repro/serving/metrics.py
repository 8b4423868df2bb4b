"""Per-stream serving metrics: latency percentiles, QPS, worker
accounting, and the Perfetto view of a serving run.

Everything here is derived from the engine's deterministic outputs
(simulated instants and charged seconds), so two runs with the same
seed, policy and streams produce byte-identical reports — the
admission-determinism tests compare :meth:`ServingReport.fingerprint`
across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..execution.metrics import ExecutionMetrics
from ..observe.query_log import latency_stats
from .snapshot import EpochSnapshot

__all__ = [
    "QueryRecord",
    "CommitRecord",
    "WorkSlot",
    "ServingReport",
    "serving_trace",
]


@dataclass
class QueryRecord:
    """One served query's life cycle on the simulated clock."""

    stream: str
    seq: int                      # index within its stream
    description: str
    submit_seconds: float
    admit_seconds: float
    finish_seconds: float
    snapshot: EpochSnapshot
    reorders: bool                # plan contract: gather may reorder
    reaggregates: bool            # plan contract: merge-agg may re-add
    rows: int
    fragment_count: int
    metrics: ExecutionMetrics
    relation: Optional[object] = None   # kept when the engine is asked to

    @property
    def latency_seconds(self) -> float:
        return self.finish_seconds - self.submit_seconds

    @property
    def queue_seconds(self) -> float:
        return self.admit_seconds - self.submit_seconds

    @property
    def service_seconds(self) -> float:
        return self.finish_seconds - self.admit_seconds


@dataclass
class CommitRecord:
    """One refresh-stream commit: visible at issue, charged afterward."""

    stream: str
    seq: int
    description: str
    issue_seconds: float          # visibility instant
    work_end_seconds: float = 0.0
    work_seconds: float = 0.0     # charged binning CPU + delta-write IO
    compaction_seconds: float = 0.0
    epochs: Dict[str, int] = field(default_factory=dict)
    rows_inserted: int = 0
    rows_deleted: int = 0
    compacted_tables: List[str] = field(default_factory=list)


@dataclass
class WorkSlot:
    """One unit on the shared timeline (fragment, commit, compaction)."""

    index: int
    kind: str                     # "fragment" | "commit" | "compaction"
    label: str
    stream: str
    worker: int
    ready_seconds: float
    start_seconds: float
    io_end_seconds: float
    end_seconds: float
    io_seconds: float
    cpu_seconds: float


@dataclass
class ServingReport:
    """Everything one :meth:`~repro.serving.engine.ServingEngine.serve`
    run produced: per-query records, commit records, the shared
    timeline, and the deterministic event log the differential oracle
    replays."""

    scheme: str
    policy: str
    workers: int
    max_concurrent: int
    makespan_seconds: float = 0.0
    queries: List[QueryRecord] = field(default_factory=list)
    commits: List[CommitRecord] = field(default_factory=list)
    timeline: List[WorkSlot] = field(default_factory=list)
    #: ordered log of every instant the engine touched the database:
    #: ``generate`` (item drawn at submission), ``commit`` (batch applied,
    #: visibility), ``execute`` (query physically run at admission).
    events: List[dict] = field(default_factory=list)

    # ------------------------------------------------------- aggregates
    @property
    def queries_per_second(self) -> float:
        return (
            len(self.queries) / self.makespan_seconds
            if self.makespan_seconds > 0 else 0.0
        )

    @property
    def worker_busy_seconds(self) -> float:
        return sum(s.end_seconds - s.start_seconds for s in self.timeline)

    @property
    def utilization(self) -> float:
        denom = self.workers * self.makespan_seconds
        return self.worker_busy_seconds / denom if denom > 0 else 0.0

    def stream_stats(self) -> Dict[str, dict]:
        """Per stream, in name order: query count, QPS over the stream's
        own window, and the latency / queue-delay aggregates — the
        ``to_dict()["streams"]`` entries."""
        per: Dict[str, List[QueryRecord]] = {}
        for record in self.queries:
            per.setdefault(record.stream, []).append(record)
        stats = {}
        for name, records in sorted(per.items()):
            latency = latency_stats([r.latency_seconds for r in records])
            window = max(r.finish_seconds for r in records) - min(
                r.submit_seconds for r in records
            )
            stats[name] = {
                "queries": latency["count"],
                "qps": len(records) / window if window > 0 else 0.0,
                "mean_latency_seconds": latency["mean"],
                "p50_latency_seconds": latency["p50"],
                "p95_latency_seconds": latency["p95"],
                "max_latency_seconds": latency["max"],
                "mean_queue_seconds": latency_stats(
                    [r.queue_seconds for r in records]
                )["mean"],
            }
        return stats

    # ---------------------------------------------------- serialization
    def fingerprint(self) -> tuple:
        """A deterministic digest of the interleaving and metrics —
        equal across runs iff the runs were identical (results
        excluded; the differential compares those)."""
        return (
            self.scheme, self.policy, self.workers, self.max_concurrent,
            self.makespan_seconds,
            tuple(
                (r.stream, r.seq, r.submit_seconds, r.admit_seconds,
                 r.finish_seconds, r.rows, r.fragment_count,
                 r.metrics.io_seconds, r.metrics.cpu_seconds)
                for r in self.queries
            ),
            tuple(
                (c.stream, c.seq, c.issue_seconds, c.work_end_seconds,
                 c.work_seconds, c.compaction_seconds)
                for c in self.commits
            ),
            tuple(
                (s.index, s.kind, s.worker, s.start_seconds, s.end_seconds)
                for s in self.timeline
            ),
        )

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "policy": self.policy,
            "workers": self.workers,
            "max_concurrent": self.max_concurrent,
            "makespan_seconds": self.makespan_seconds,
            "queries": len(self.queries),
            "commits": len(self.commits),
            "queries_per_second": self.queries_per_second,
            "worker_busy_seconds": self.worker_busy_seconds,
            "utilization": self.utilization,
            "streams": self.stream_stats(),
            "events": list(self.events),
        }

    def render(self) -> str:
        lines = [
            f"serving run: scheme={self.scheme} policy={self.policy} "
            f"workers={self.workers} mpl={self.max_concurrent}",
            f"  {len(self.queries)} queries, {len(self.commits)} commits, "
            f"makespan {self.makespan_seconds * 1e3:.3f} ms, "
            f"{self.queries_per_second:,.1f} q/s simulated, "
            f"utilization {self.utilization * 100:.1f}%",
            f"  {'stream':<14}{'queries':>8}{'qps':>12}{'p50 ms':>10}"
            f"{'p95 ms':>10}{'max ms':>10}{'queue ms':>10}",
        ]
        for name, s in self.stream_stats().items():
            lines.append(
                f"  {name:<14}{s['queries']:>8}{s['qps']:>12,.1f}"
                f"{s['p50_latency_seconds'] * 1e3:>10.3f}"
                f"{s['p95_latency_seconds'] * 1e3:>10.3f}"
                f"{s['max_latency_seconds'] * 1e3:>10.3f}"
                f"{s['mean_queue_seconds'] * 1e3:>10.3f}"
            )
        if self.commits:
            refresh_work = sum(c.work_seconds for c in self.commits)
            compaction = sum(c.compaction_seconds for c in self.commits)
            lines.append(
                f"  refresh: {refresh_work * 1e3:.3f} ms commit work, "
                f"{compaction * 1e3:.3f} ms background compaction"
            )
        return "\n".join(lines)


_US = 1e6


def serving_trace(report: ServingReport, builder=None):
    """A Chrome trace-event view of one serving run: the shared worker
    pool as one process (workers as lanes, every fragment / commit /
    compaction slot as a slice), and each stream as its own lane of a
    per-scheme ``streams`` process — one slice per query from submission
    to completion with the queue wait as a nested sub-slice.  Returns a
    :class:`~repro.observe.TraceBuilder` (call ``write(path)``); pass an
    existing ``builder`` to merge several schemes' runs into one file
    (process names are scheme-qualified, so lanes never collide)."""
    from ..observe.trace_events import TraceBuilder

    if builder is None:
        builder = TraceBuilder()
    pool_pid = builder.process(f"serving workers ({report.scheme})")
    for worker in range(report.workers):
        builder.thread(pool_pid, worker + 1, f"worker {worker}")
    for slot in report.timeline:
        builder.slice(
            pool_pid, slot.worker + 1, slot.label, slot.kind,
            slot.start_seconds * _US,
            (slot.end_seconds - slot.start_seconds) * _US,
            args={
                "stream": slot.stream,
                "kind": slot.kind,
                "ready_s": slot.ready_seconds,
                "io_s": slot.io_seconds,
                "cpu_s": slot.cpu_seconds,
            },
        )
        stretch = (
            (slot.io_end_seconds - slot.start_seconds) - slot.io_seconds
        )
        if slot.io_seconds > 0.0:
            builder.slice(
                pool_pid, slot.worker + 1, "io", "io",
                slot.start_seconds * _US,
                (slot.io_end_seconds - slot.start_seconds) * _US,
                args={"charged_io_s": slot.io_seconds, "stretch_s": stretch},
            )
    streams_pid = builder.process(f"streams ({report.scheme})")
    lanes: Dict[str, int] = {}
    for record in report.queries:
        lane = lanes.get(record.stream)
        if lane is None:
            lane = len(lanes) + 1
            lanes[record.stream] = lane
            builder.thread(streams_pid, lane, record.stream)
        builder.slice(
            streams_pid, lane, record.description, "query",
            record.submit_seconds * _US,
            record.latency_seconds * _US,
            args={
                "seq": record.seq,
                "queue_s": record.queue_seconds,
                "service_s": record.service_seconds,
                "rows": record.rows,
                "epoch": record.snapshot.epoch,
            },
        )
        if record.queue_seconds > 0.0:
            builder.slice(
                streams_pid, lane, "queued", "queue",
                record.submit_seconds * _US,
                record.queue_seconds * _US,
                args={},
            )
    refresh_lane_base = len(lanes) + 1
    refresh_lanes: Dict[str, int] = {}
    for commit in report.commits:
        lane = refresh_lanes.get(commit.stream)
        if lane is None:
            lane = refresh_lane_base + len(refresh_lanes)
            refresh_lanes[commit.stream] = lane
            builder.thread(streams_pid, lane, commit.stream)
        builder.slice(
            streams_pid, lane, commit.description, "commit",
            commit.issue_seconds * _US,
            max(commit.work_end_seconds - commit.issue_seconds, 0.0) * _US,
            args={
                "seq": commit.seq,
                "work_s": commit.work_seconds,
                "compaction_s": commit.compaction_seconds,
            },
        )
    return builder
