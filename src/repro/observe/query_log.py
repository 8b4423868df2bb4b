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

Records are plain JSON: finite floats, ints, strings, lists,
string-keyed dicts.  ``SCHEMA_VERSION`` bumps whenever a required field
changes meaning, and the validator accepts exactly the current version
(4: every ``operators`` entry carries its exclusive ``host_seconds``,
and the per-fragment lists of hottest functions that 2 added are gone;
3: no free-text ``notes``, a decision is the operator's rationale in
the plan and a number is its entry in ``operators``; 2 added the
per-record ``registry_delta``).  The shape is declared once, in
``RECORD_SPEC`` (checked by :mod:`~repro.observe.schema`); the ``operators`` /
``fragments`` entries and the ``simulated`` block are derived from the
:mod:`~repro.execution.metrics` dataclasses that own those fields.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import typing
from typing import Dict, List, Optional, Tuple

from ..errors import CorruptArtifact
from ..execution.metrics import (
    ExecutionMetrics,
    FragmentActuals,
    OperatorActuals,
)
from .registry import REGISTRY, MetricsRegistry
from .schema import COUNT, NUMBER, Rule, problems

__all__ = [
    "SCHEMA_VERSION",
    "plan_fingerprint",
    "build_record",
    "record_errors",
    "validate_record",
    "QueryLog",
    "read_records",
    "summarize_records",
    "percentile",
    "latency_stats",
]

SCHEMA_VERSION = 4


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
#: declared type of an actuals attribute -> (cast to plain JSON, spec)
_BY_TYPE = {
    str: (str, str),
    int: (int, NUMBER),
    float: (float, NUMBER),
    Tuple[int, ...]: (lambda ids: [int(i) for i in ids], [COUNT]),
}


def _declared(cls, names=None) -> Dict[str, tuple]:
    """``{attribute: (cast, spec)}`` by declared type, for every
    dataclass field of ``cls`` or just the ``names`` given (a property
    counts by its return annotation).  The dataclass is the only place
    an entry's fields are named: the builder and the spec both read
    this, so a field added there shows up in both with no edit here."""
    hints = typing.get_type_hints(cls)
    declared = {}
    for name in names or [f.name for f in dataclasses.fields(cls)]:
        attribute = getattr(cls, name, None)
        if isinstance(attribute, property):
            hints[name] = typing.get_type_hints(attribute.fget)["return"]
        declared[name] = _BY_TYPE[hints[name]]
    return declared


_OPERATOR = _declared(OperatorActuals)
_FRAGMENT = _declared(FragmentActuals)
#: the ``simulated`` block: the query totals the model charged, by
#: ``ExecutionMetrics`` attribute name.
_SIMULATED = _declared(ExecutionMetrics, (
    "io_seconds", "cpu_seconds", "total_seconds", "makespan_seconds",
    "wall_seconds", "io_bytes", "io_accesses", "rows_scanned",
    "delta_rows_scanned", "rows_produced", "compaction_seconds",
))


def _entry(source, declared: Dict[str, tuple]) -> dict:
    return {
        name: cast(getattr(source, name)) for name, (cast, _) in declared.items()
    }


def _shape(declared: Dict[str, tuple]) -> dict:
    return {name: spec for name, (_, spec) in declared.items()}


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
        "simulated": _entry(metrics, _SIMULATED),
        "measured": {
            "wall_seconds": float(metrics.measured_wall_seconds),
        },
        "memory": {
            "peak_bytes": float(metrics.peak_memory_bytes),
            "by_tag": {
                tag: float(peak)
                for tag, peak in sorted(metrics.peak_memory_by_tag.items())
            },
        },
        "counters": {k: float(v) for k, v in sorted(metrics.counters.items())},
        "operators": [_entry(a, _OPERATOR) for a in metrics.operators.values()],
        "fragments": [_entry(f, _FRAGMENT) for f in metrics.fragments],
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
def _fragment_order(fragment: dict) -> List[str]:
    if fragment["end_seconds"] < fragment["start_seconds"]:
        return ["end_seconds before start_seconds"]
    return []


#: the record's shape — the schema's documentation; a new field of the
#: record is one entry here (and one line in ``build_record``).
RECORD_SPEC = {
    "schema_version": SCHEMA_VERSION,
    "label": str,
    "scheme": str,
    "backend": str,
    "workers": COUNT,
    "options": dict,
    "plan_fingerprint": str,
    "epoch": COUNT,
    "table_epochs": {...: COUNT},
    "simulated": _shape(_SIMULATED),
    "measured": {"wall_seconds": NUMBER},
    "memory": {"peak_bytes": NUMBER, "by_tag": {...: NUMBER}},
    "counters": {...: NUMBER},
    "operators": [_shape(_OPERATOR)],
    "fragments": [Rule(_shape(_FRAGMENT), _fragment_order)],
    "registry": {"counters": {...: NUMBER}, "gauges": {...: NUMBER}},
    "registry_delta": {"counters": {...: NUMBER}},
    "result?": {"rows": COUNT, "columns": [str]},
}


def record_errors(record) -> List[str]:
    """Schema problems of one query-log record (empty = valid)."""
    return problems(record, RECORD_SPEC)


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
        # allow_nan=False: a non-finite value where the schema does not
        # reach (the free-form ``options``) is an error, not a NaN on disk
        self._fh.write(json.dumps(record, sort_keys=True, allow_nan=False) + "\n")
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
    """Load a JSONL query log (no schema validation; pair with
    :func:`record_errors` to check).  A line that is not JSON — a
    half-written last line — raises :class:`~repro.errors.CorruptArtifact`
    naming the line."""
    records = []
    with open(path) as fh:
        for number, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise CorruptArtifact(
                        f"line {number}: not JSON ({exc.msg})"
                    ) from None
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


def latency_stats(values: List[float]) -> Dict[str, float]:
    """``count`` / ``mean`` / ``p50`` / ``p95`` / ``max`` of a list of
    seconds — the one aggregate the log summary, the serving report and
    the serving benchmark share; all 0 for an empty list."""
    return {
        "count": len(values),
        "mean": sum(values) / len(values) if values else 0.0,
        "p50": percentile(values, 0.50),
        "p95": percentile(values, 0.95),
        "max": max(values, default=0.0),
    }


def _hit_rate(counters: Dict[str, float], prefix: str) -> Optional[float]:
    hits = counters.get(f"{prefix}.hits", 0.0)
    misses = counters.get(f"{prefix}.misses", 0.0)
    total = hits + misses
    return hits / total if total > 0 else None


def summarize_records(records: List[dict]) -> dict:
    """Aggregate valid query-log records into a per-label latency/cache
    view.

    Returns ``{"queries": {label: {...}}, "operators": {kind: {...}},
    "overall": {...}}``: per label the record count, p50/p95 simulated
    seconds and delta-scan totals; per operator kind its executions and
    the host seconds it took beside the simulated seconds it charged;
    overall the record count, total delta rows and the plan-/fragment-
    cache hit rates, from the per-record ``registry_delta`` counters
    summed over the log."""
    by_label: Dict[str, List[dict]] = {}
    cache_counters: Dict[str, float] = {}
    operators: Dict[str, Dict[str, float]] = {}
    for record in records:
        by_label.setdefault(record["label"], []).append(record)
        for name, value in record["registry_delta"]["counters"].items():
            cache_counters[name] = cache_counters.get(name, 0.0) + value
        for entry in record["operators"]:
            totals = operators.setdefault(entry["kind"], dict.fromkeys(
                ("executions", "host_seconds", "simulated_seconds"), 0.0
            ))
            totals["executions"] += entry["executions"]
            totals["host_seconds"] += entry["host_seconds"]
            totals["simulated_seconds"] += entry["io_seconds"] + entry["cpu_seconds"]
    queries: Dict[str, dict] = {}
    for label, group in sorted(by_label.items()):
        stats = latency_stats([r["simulated"]["total_seconds"] for r in group])
        queries[label] = {
            "records": stats["count"],
            "p50_simulated_seconds": stats["p50"],
            "p95_simulated_seconds": stats["p95"],
            "delta_rows_scanned": int(
                sum(r["simulated"]["delta_rows_scanned"] for r in group)
            ),
        }
    overall = {
        "records": len(records),
        "queries": len(queries),
        "delta_rows_scanned": int(
            sum(q["delta_rows_scanned"] for q in queries.values())
        ),
        "plan_cache_hit_rate": _hit_rate(cache_counters, "plan_cache"),
        "fragment_cache_hit_rate": _hit_rate(cache_counters, "fragment_cache"),
    }
    return {
        "queries": queries,
        "operators": {kind: operators[kind] for kind in sorted(operators)},
        "overall": overall,
    }
