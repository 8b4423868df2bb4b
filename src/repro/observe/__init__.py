"""Structured observability: spans, traces, query logs, metrics registry.

The eighth pillar.  Everything else in the engine produces *numbers*
(simulated charges, measured walls, counters); this package makes them
*machine-readable and replayable* without perturbing them — tracing is
passive by construction, so simulated charges and results are
bit-identical with observability on or off:

* :mod:`repro.observe.spans` — nested wall-clock spans over the
  planning and execution phases;
* :mod:`repro.observe.trace_events` — Chrome trace-event (Perfetto)
  export of scheduler timelines: workers as lanes, fragments as slices,
  IO contention as sub-slices, exchanges as flow arrows;
* :mod:`repro.observe.query_log` — schema-versioned JSONL records, one
  per execution; the same record shape backs the CLIs' ``--json`` modes
  and the structured benchmark reports;
* :mod:`repro.observe.schema` — the one checker behind the record,
  trace and ledger validators: a shape is a declarative spec, a problem
  is named by path, and no JSON input makes it raise;
* :mod:`repro.observe.registry` — process-wide counters/gauges (cache
  hits, compactions, epoch bumps) snapshotted into every record;
* :mod:`repro.observe.sink` — the one fan-out from a finished execution
  to trace, query log and ``--json`` records that every driver uses;
* :mod:`repro.observe.history` — the benchmark history ledger:
  schema-versioned ``BENCH_<name>.json`` trajectories at the repo
  root, one record per benchmark run (git SHA, timestamp, host, flat
  metric dict);
* :mod:`repro.observe.regress` — the regression gate: a ledger's
  newest record, when produced at the checked-out commit, must equal
  the previous same-configuration record on every metric.  Ledgers
  hold simulated and counted numbers only; the host clock is judged by
  ``BENCHMARK.json``'s harness and nowhere else.

``python -m repro.observe validate|summary|regress ...`` validates
emitted artifacts, aggregates query logs and gates CI on the ledgers.
See ``docs/observability.md``.
"""

from .history import (
    LEDGER_SCHEMA_VERSION,
    Ledger,
    append_record,
    build_ledger_record,
    flatten_metrics,
    ledger_path,
    ledger_paths,
    ledger_record_errors,
    read_ledger,
)
from .query_log import (
    SCHEMA_VERSION,
    QueryLog,
    build_record,
    latency_stats,
    percentile,
    plan_fingerprint,
    read_records,
    record_errors,
    summarize_records,
    validate_record,
)
from .regress import (
    LedgerVerdict,
    MetricVerdict,
    check_ledger,
    format_table,
)
from .registry import REGISTRY, MetricsRegistry
from .sink import ObservabilitySink
from .spans import Span, SpanTracer
from .trace_events import TraceBuilder, validate_trace, validate_trace_events

__all__ = [
    "SCHEMA_VERSION",
    "QueryLog",
    "build_record",
    "latency_stats",
    "percentile",
    "plan_fingerprint",
    "read_records",
    "record_errors",
    "summarize_records",
    "validate_record",
    "LEDGER_SCHEMA_VERSION",
    "Ledger",
    "append_record",
    "build_ledger_record",
    "flatten_metrics",
    "ledger_path",
    "ledger_paths",
    "ledger_record_errors",
    "read_ledger",
    "LedgerVerdict",
    "MetricVerdict",
    "check_ledger",
    "format_table",
    "REGISTRY",
    "MetricsRegistry",
    "ObservabilitySink",
    "Span",
    "SpanTracer",
    "TraceBuilder",
    "validate_trace",
    "validate_trace_events",
]
