"""Structured query log: one schema-versioned JSON record per execution.

A record captures everything a later session needs to replay or regress
an execution without re-running it: what was asked (plan fingerprint,
scheme, full :class:`~repro.planner.lowering.ExecutionOptions`), against
what state (per-table update epochs), what the model charged (totals,
counters, per-operator actuals, the fragment timeline) and what — if
anything — was measured (backend, wall clocks).  The process-wide
:class:`~repro.observe.registry.MetricsRegistry` is snapshotted in so
cache effectiveness and update churn ride along.

The same record shape backs three surfaces, which therefore can never
diverge: ``--query-log FILE`` JSONL sinks, the ``--json`` CLI output
modes, and the structured benchmark reports.  ``validate_record``
checks a record against the schema; the CI ``observe`` job holds every
emitted record to it.

Records are plain JSON: floats, ints, strings, lists, string-keyed
dicts.  ``SCHEMA_VERSION`` bumps whenever a required field changes
meaning; adding optional fields is compatible.  Version 2 added the
per-record ``registry_delta`` (counter increments since the previous
record, next to the cumulative ``registry`` snapshot — in a suite run
record N's cumulative snapshot includes all prior queries' counters,
so per-execution churn needs the delta) and the optional per-fragment
``profile`` entries (top-N cProfile stats when
``ExecutionOptions.profile`` was on); the validator accepts both
versions.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from typing import Dict, List, Optional

from ..execution.metrics import ExecutionMetrics
from .registry import REGISTRY, MetricsRegistry

__all__ = [
    "SCHEMA_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
    "plan_fingerprint",
    "build_record",
    "record_errors",
    "validate_record",
    "QueryLog",
    "read_records",
    "summarize_records",
    "percentile",
]

SCHEMA_VERSION = 2
#: versions ``record_errors`` accepts — old logs keep validating.
SUPPORTED_SCHEMA_VERSIONS = (1, 2)


# ---------------------------------------------------------- fingerprints
def _skeleton(op, depth: int, lines: List[str]) -> None:
    lines.append("  " * depth + op.describe())
    for child in op.children():
        _skeleton(child, depth + 1, lines)


def plan_fingerprint(plans) -> str:
    """Stable hex digest of the structural skeleton of the query's
    physical plan stages (operator kinds, keys and shapes — the same
    text the golden plan tests pin, no rationale, no actuals).  Two
    executions share a fingerprint iff every stage lowered to the same
    operator tree."""
    lines: List[str] = []
    for plan in plans:
        root = getattr(plan, "root", plan)
        _skeleton(root, 0, lines)
        lines.append("---")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return digest[:16]


# --------------------------------------------------------------- records
def _operator_entries(metrics: ExecutionMetrics) -> List[dict]:
    return [
        {
            "kind": a.kind,
            "description": a.description,
            "rows_in": int(a.rows_in),
            "rows_out": int(a.rows_out),
            "io_bytes": float(a.io_bytes),
            "io_accesses": int(a.io_accesses),
            "io_seconds": float(a.io_seconds),
            "cpu_seconds": float(a.cpu_seconds),
            "reserved_bytes": float(a.reserved_bytes),
            "executions": int(a.executions),
        }
        for a in metrics.operators.values()
    ]


def _fragment_entries(metrics: ExecutionMetrics) -> List[dict]:
    return [
        {
            "index": int(f.index),
            "role": f.role,
            "description": f.description,
            "worker": int(f.worker),
            "depends_on": [int(d) for d in f.depends_on],
            "ready_seconds": float(f.ready_seconds),
            "start_seconds": float(f.start_seconds),
            "io_end_seconds": float(f.io_end_seconds),
            "end_seconds": float(f.end_seconds),
            "io_seconds": float(f.io_seconds),
            "cpu_seconds": float(f.cpu_seconds),
            "rows_out": int(f.rows_out),
            "output_bytes": float(f.output_bytes),
            "peak_memory_bytes": float(f.peak_memory_bytes),
            "measured_seconds": float(f.measured_seconds),
            "measured_start_seconds": float(f.measured_start_seconds),
            "measured_end_seconds": float(f.measured_end_seconds),
            "profile": [dict(entry) for entry in f.profile],
        }
        for f in metrics.fragments
    ]


def build_record(
    label: str,
    metrics: ExecutionMetrics,
    *,
    pdb=None,
    scheme: Optional[str] = None,
    options=None,
    plans=(),
    relation=None,
    registry: Optional[MetricsRegistry] = None,
) -> dict:
    """Assemble the query-log record of one finished execution.

    ``metrics`` may be a single run's or a multi-stage query's merged
    metrics (the fragment timeline then concatenates the stages).
    ``pdb`` contributes the scheme name and per-table epochs; ``plans``
    (lowered :class:`PhysicalPlan` stages) the fingerprint; ``relation``
    the result shape; ``registry`` defaults to the process-wide one."""
    if registry is None:
        registry = REGISTRY
    if scheme is None and pdb is not None:
        scheme = pdb.scheme_name
    table_epochs: Dict[str, int] = {}
    epoch = 0
    if pdb is not None:
        table_epochs = {name: int(t.epoch) for name, t in pdb.stored.items()}
        epoch = int(pdb.epoch)
    record = {
        "schema_version": SCHEMA_VERSION,
        "label": str(label),
        "scheme": str(scheme or "unknown"),
        "backend": str(metrics.backend),
        "workers": int(metrics.workers),
        "options": dataclasses.asdict(options) if options is not None else {},
        "plan_fingerprint": plan_fingerprint(plans) if plans else "",
        "epoch": epoch,
        "table_epochs": table_epochs,
        "simulated": {
            "io_seconds": float(metrics.io_seconds),
            "cpu_seconds": float(metrics.cpu_seconds),
            "total_seconds": float(metrics.total_seconds),
            "makespan_seconds": float(metrics.makespan_seconds),
            "wall_seconds": float(metrics.wall_seconds),
            "io_bytes": float(metrics.io_bytes),
            "io_accesses": int(metrics.io_accesses),
            "rows_scanned": int(metrics.rows_scanned),
            "delta_rows_scanned": int(metrics.delta_rows_scanned),
            "rows_produced": int(metrics.rows_produced),
            "compaction_seconds": float(metrics.compaction_seconds),
        },
        "measured": {
            "wall_seconds": float(metrics.measured_wall_seconds),
        },
        "memory": {
            "peak_bytes": float(metrics.peak_memory_bytes),
            "by_tag": {
                tag: float(peak)
                for tag, peak in sorted(metrics.memory.tag_peaks.items())
            },
        },
        "counters": {k: float(v) for k, v in sorted(metrics.counters.items())},
        "notes": list(metrics.notes),
        "operators": _operator_entries(metrics),
        "fragments": _fragment_entries(metrics),
        "registry": registry.snapshot(),
        # counter increments attributable to *this* record, next to the
        # cumulative snapshot above (which includes every prior query's
        # counters in a suite run)
        "registry_delta": {"counters": registry.delta_since_last()},
    }
    if relation is not None:
        record["result"] = {
            "rows": int(relation.num_rows),
            "columns": list(relation.column_names),
        }
    return record


# ------------------------------------------------------------ validation
_NUMBER = (int, float)

_TOP_LEVEL = {
    # name -> (types, required)
    "schema_version": (int, True),
    "label": (str, True),
    "scheme": (str, True),
    "backend": (str, True),
    "workers": (int, True),
    "options": (dict, True),
    "plan_fingerprint": (str, True),
    "epoch": (int, True),
    "table_epochs": (dict, True),
    "simulated": (dict, True),
    "measured": (dict, True),
    "memory": (dict, True),
    "counters": (dict, True),
    "notes": (list, True),
    "operators": (list, True),
    "fragments": (list, True),
    "registry": (dict, True),
    # required in schema version 2, absent in version 1
    "registry_delta": (dict, False),
    "result": (dict, False),
}

_SIMULATED_KEYS = (
    "io_seconds", "cpu_seconds", "total_seconds", "makespan_seconds",
    "wall_seconds", "io_bytes", "io_accesses", "rows_scanned",
    "delta_rows_scanned", "rows_produced", "compaction_seconds",
)

_OPERATOR_KEYS = {
    "kind": str, "description": str, "rows_in": _NUMBER, "rows_out": _NUMBER,
    "io_bytes": _NUMBER, "io_accesses": _NUMBER, "io_seconds": _NUMBER,
    "cpu_seconds": _NUMBER, "reserved_bytes": _NUMBER, "executions": _NUMBER,
}

_FRAGMENT_KEYS = {
    "index": _NUMBER, "role": str, "description": str, "worker": _NUMBER,
    "depends_on": list, "ready_seconds": _NUMBER, "start_seconds": _NUMBER,
    "io_end_seconds": _NUMBER, "end_seconds": _NUMBER, "io_seconds": _NUMBER,
    "cpu_seconds": _NUMBER, "rows_out": _NUMBER, "output_bytes": _NUMBER,
    "peak_memory_bytes": _NUMBER, "measured_seconds": _NUMBER,
    "measured_start_seconds": _NUMBER, "measured_end_seconds": _NUMBER,
}

#: per-fragment cProfile entries (schema version 2, opt-in profiling).
_PROFILE_KEYS = {
    "function": str, "calls": _NUMBER,
    "total_seconds": _NUMBER, "cumulative_seconds": _NUMBER,
}


def _check_mapping(errors, where, value, value_types) -> None:
    for key, item in value.items():
        if not isinstance(key, str):
            errors.append(f"{where}: non-string key {key!r}")
        elif not isinstance(item, value_types):
            errors.append(f"{where}[{key}]: expected number, got {type(item).__name__}")


def record_errors(record) -> List[str]:
    """Schema problems of one query-log record (empty = valid)."""
    errors: List[str] = []
    if not isinstance(record, dict):
        return ["record is not an object"]
    for name, (types, required) in _TOP_LEVEL.items():
        if name not in record:
            if required:
                errors.append(f"missing required field {name!r}")
            continue
        if not isinstance(record[name], types):
            errors.append(
                f"{name}: expected {getattr(types, '__name__', types)}, "
                f"got {type(record[name]).__name__}"
            )
    for name in record:
        if name not in _TOP_LEVEL:
            errors.append(f"unknown field {name!r}")
    if errors:
        return errors
    version = record["schema_version"]
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        errors.append(
            f"schema_version {version} not in {SUPPORTED_SCHEMA_VERSIONS}"
        )
    if version >= 2 and "registry_delta" not in record:
        errors.append("registry_delta: required from schema version 2 on")
    if "registry_delta" in record:
        delta = record["registry_delta"]
        if not isinstance(delta.get("counters"), dict):
            errors.append("registry_delta.counters: missing or not an object")
        else:
            _check_mapping(
                errors, "registry_delta.counters", delta["counters"], _NUMBER
            )
    for key in _SIMULATED_KEYS:
        if key not in record["simulated"]:
            errors.append(f"simulated.{key} missing")
        elif not isinstance(record["simulated"][key], _NUMBER):
            errors.append(f"simulated.{key}: not a number")
    if not isinstance(record["measured"].get("wall_seconds"), _NUMBER):
        errors.append("measured.wall_seconds: missing or not a number")
    memory = record["memory"]
    if not isinstance(memory.get("peak_bytes"), _NUMBER):
        errors.append("memory.peak_bytes: missing or not a number")
    if not isinstance(memory.get("by_tag"), dict):
        errors.append("memory.by_tag: missing or not an object")
    else:
        _check_mapping(errors, "memory.by_tag", memory["by_tag"], _NUMBER)
    _check_mapping(errors, "counters", record["counters"], _NUMBER)
    _check_mapping(errors, "table_epochs", record["table_epochs"], int)
    registry = record["registry"]
    for part in ("counters", "gauges"):
        if not isinstance(registry.get(part), dict):
            errors.append(f"registry.{part}: missing or not an object")
        else:
            _check_mapping(errors, f"registry.{part}", registry[part], _NUMBER)
    for position, entry in enumerate(record["operators"]):
        where = f"operators[{position}]"
        if not isinstance(entry, dict):
            errors.append(f"{where}: not an object")
            continue
        for key, types in _OPERATOR_KEYS.items():
            if not isinstance(entry.get(key), types):
                errors.append(f"{where}.{key}: missing or wrong type")
    for position, entry in enumerate(record["fragments"]):
        where = f"fragments[{position}]"
        if not isinstance(entry, dict):
            errors.append(f"{where}: not an object")
            continue
        for key, types in _FRAGMENT_KEYS.items():
            if not isinstance(entry.get(key), types):
                errors.append(f"{where}.{key}: missing or wrong type")
        if isinstance(entry.get("end_seconds"), _NUMBER) and isinstance(
            entry.get("start_seconds"), _NUMBER
        ):
            if entry["end_seconds"] < entry["start_seconds"]:
                errors.append(f"{where}: end_seconds before start_seconds")
        profile = entry.get("profile", [])
        if not isinstance(profile, list):
            errors.append(f"{where}.profile: not a list")
            continue
        for slot, stat in enumerate(profile):
            if not isinstance(stat, dict):
                errors.append(f"{where}.profile[{slot}]: not an object")
                continue
            for key, types in _PROFILE_KEYS.items():
                if not isinstance(stat.get(key), types):
                    errors.append(
                        f"{where}.profile[{slot}].{key}: missing or wrong type"
                    )
    return errors


def validate_record(record) -> None:
    """Raise ``ValueError`` when a record violates the schema."""
    errors = record_errors(record)
    if errors:
        raise ValueError(
            "invalid query-log record: " + "; ".join(errors[:10])
            + (f" (+{len(errors) - 10} more)" if len(errors) > 10 else "")
        )


# ----------------------------------------------------------------- JSONL
class QueryLog:
    """Append-only JSONL sink; every record is validated on write."""

    def __init__(self, path: str):
        self.path = path
        self._fh = open(path, "a")
        self.written = 0

    def write(self, record: dict) -> None:
        validate_record(record)
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self.written += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "QueryLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_records(path: str) -> List[dict]:
    """Load a JSONL query log (no validation; pair with
    :func:`record_errors` to check)."""
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


# --------------------------------------------------------------- summary
def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile: the ``ceil(n * fraction)``-th smallest
    value (exact for the small per-query samples a log or a serving run
    holds; deterministic, no interpolation surprises); 0.0 for an empty
    list."""
    if not values:
        return 0.0
    rank = max(math.ceil(len(values) * fraction), 1)
    return sorted(values)[min(rank, len(values)) - 1]


def _hit_rate(counters: Dict[str, float], prefix: str) -> Optional[float]:
    hits = counters.get(f"{prefix}.hits", 0.0)
    misses = counters.get(f"{prefix}.misses", 0.0)
    total = hits + misses
    return hits / total if total > 0 else None


def summarize_records(records: List[dict]) -> dict:
    """Aggregate query-log records into a per-label latency/cache view.

    Returns ``{"queries": {label: {...}}, "overall": {...}}``: per label
    the record count, p50/p95 simulated seconds and delta-scan totals;
    overall the record count, total delta rows and the plan-/fragment-
    cache hit rates.  Cache rates come from the version-2 per-record
    ``registry_delta`` counters summed over the log; version-1 records
    only carry cumulative snapshots, so for an all-v1 log the last
    record's cumulative registry is used instead (marked by
    ``overall["cache_source"]``)."""
    queries: Dict[str, dict] = {}
    by_label: Dict[str, List[dict]] = {}
    for record in records:
        by_label.setdefault(record.get("label", "?"), []).append(record)
    delta_counters: Dict[str, float] = {}
    deltas_seen = False
    for record in records:
        for name, value in (
            record.get("registry_delta", {}).get("counters", {}).items()
        ):
            deltas_seen = True
            delta_counters[name] = delta_counters.get(name, 0.0) + value
    for label, group in sorted(by_label.items()):
        seconds = [r["simulated"]["total_seconds"] for r in group]
        queries[label] = {
            "records": len(group),
            "p50_simulated_seconds": percentile(seconds, 0.50),
            "p95_simulated_seconds": percentile(seconds, 0.95),
            "delta_rows_scanned": int(
                sum(r["simulated"]["delta_rows_scanned"] for r in group)
            ),
        }
    if deltas_seen:
        cache_counters, cache_source = delta_counters, "registry_delta"
    else:
        cache_counters = (
            records[-1].get("registry", {}).get("counters", {}) if records else {}
        )
        cache_source = "cumulative (v1 log)"
    overall = {
        "records": len(records),
        "queries": len(queries),
        "delta_rows_scanned": int(
            sum(q["delta_rows_scanned"] for q in queries.values())
        ),
        "plan_cache_hit_rate": _hit_rate(cache_counters, "plan_cache"),
        "fragment_cache_hit_rate": _hit_rate(cache_counters, "fragment_cache"),
        "cache_source": cache_source,
    }
    return {"queries": queries, "overall": overall}
