"""Concurrent multi-query serving: the ninth pillar.

Everything below this package serves *one* query at a time; production
systems serve streams of them — the TPC-H throughput test's N parallel
query streams plus refresh streams, all sharing one worker pool and one
disk.  This package adds that layer without giving up the engine's core
property (results computed exactly once, time modelled deterministically):

* :mod:`repro.serving.policies` — admission (fairness) policies: FIFO,
  round-robin per stream, shortest-remaining-makespan;
* :mod:`repro.serving.snapshot` — MVCC-style epoch snapshots: each
  query pins the table epochs it was admitted under, so refresh-stream
  commits and background compaction proceed concurrently with readers;
* :mod:`repro.serving.streams` — closed-loop query/refresh stream
  sources (generated workloads, TPC-H throughput and RF1/RF2 streams);
* :mod:`repro.serving.engine` — the event-driven serving loop over the
  shared :class:`~repro.parallel.scheduler.TimelineSimulator`;
* :mod:`repro.serving.metrics` — per-stream latency percentiles,
  aggregate QPS, worker accounting, Perfetto lanes per stream;
* :mod:`repro.serving.differential` — the serving-vs-solo oracle: every
  concurrently served query must match its solo run against the pinned
  epoch snapshot bit-for-bit (or order-insensitively where the plan's
  contracts allow).

See ``docs/serving.md`` for the model and its invariants.
"""

from .differential import ServingDifferentialReport, run_serving_differential
from .engine import ServingEngine
from .metrics import QueryRecord, ServingReport, serving_trace
from .policies import (
    POLICY_NAMES,
    AdmissionPolicy,
    FifoPolicy,
    RoundRobinPolicy,
    ShortestRemainingPolicy,
    create_policy,
)
from .snapshot import EpochSnapshot, SnapshotViolation
from .streams import (
    GeneratedQueryStream,
    GeneratedRefreshStream,
    PlanListStream,
    QueryStream,
    RefreshStream,
    TpchRefreshStream,
    capture_tpch_items,
)

__all__ = [
    "ServingEngine",
    "ServingReport",
    "QueryRecord",
    "serving_trace",
    "AdmissionPolicy",
    "FifoPolicy",
    "RoundRobinPolicy",
    "ShortestRemainingPolicy",
    "POLICY_NAMES",
    "create_policy",
    "EpochSnapshot",
    "SnapshotViolation",
    "QueryStream",
    "PlanListStream",
    "GeneratedQueryStream",
    "RefreshStream",
    "GeneratedRefreshStream",
    "TpchRefreshStream",
    "capture_tpch_items",
    "ServingDifferentialReport",
    "run_serving_differential",
]
