"""Benchmark history ledger: the repo's empirical perf trajectory.

Every benchmark harness writes a structured JSON report
(``benchmarks/conftest.write_report(data=)`` and the standalone
benches); this module *remembers* them.  Each run appends one
schema-versioned record — git SHA, UTC timestamp, host fingerprint and
a flat ``{metric: number}`` dict — to a per-benchmark ledger
``BENCH_<name>.json`` at the repository root.  The regression gate
(:mod:`repro.observe.regress`, ``python -m repro.observe regress``)
holds each ledger's newest record to the one before it.

Ledger files are plain JSON documents::

    {"ledger_schema_version": 1,
     "bench": "parallel_speedup",
     "records": [{"ledger_schema_version": 1,
                  "bench": "parallel_speedup",
                  "git_sha": "...", "timestamp_utc": "...Z",
                  "host": {"cpu_count": 4, "platform": "...", ...},
                  "meta": {"scale_factor": 0.01, "seed": 7},
                  "metrics": {"queries.Q01.speedup.4": 3.6, ...}}, ...]}

``meta`` names the benchmark configuration (scale factor, seed, worker
grid...); the gate only compares records whose ``meta`` matches, so a
smoke run is never held to a full-scale one.  Metrics are a *flat*
dotted-name → number mapping (:func:`flatten_metrics` collapses a
nested report) and hold only simulated-clock and counted numbers, which
repeat to the bit; host-clock numbers belong to ``BENCHMARK.json``.

Appends are read-modify-write with an atomic rename.  The reader
reports corrupted records individually (:func:`ledger_record_errors`)
and keeps the valid ones; an append refuses a ledger with any problem
and leaves the file as it found it, so corruption stays on disk to be
seen (and fails ``regress``) instead of being rewritten away.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import platform
import subprocess
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import CorruptArtifact
from .schema import NUMBER, problems

__all__ = [
    "LEDGER_SCHEMA_VERSION",
    "LEDGER_PREFIX",
    "host_fingerprint",
    "current_git_sha",
    "utc_timestamp",
    "flatten_metrics",
    "build_ledger_record",
    "ledger_record_errors",
    "Ledger",
    "ledger_path",
    "default_ledger_dir",
    "append_record",
    "read_ledger",
    "ledger_paths",
]

LEDGER_SCHEMA_VERSION = 1
#: ledger files are ``BENCH_<name>.json`` at the repository root.
LEDGER_PREFIX = "BENCH_"


# ------------------------------------------------------------ provenance
def host_fingerprint() -> Dict[str, object]:
    """Where a record was produced: provenance for a reader tracking
    down a number that moved (a different numpy or python), never used
    to *gate* — records are grouped by ``meta``, not by host."""
    return {
        "cpu_count": int(os.cpu_count() or 1),
        "platform": platform.system().lower(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


def current_git_sha(cwd=None) -> str:
    """The checked-out commit, or ``"unknown"`` outside a git repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def utc_timestamp() -> str:
    """ISO-8601 UTC with a trailing ``Z`` (sortable, timezone-safe)."""
    return (
        datetime.now(timezone.utc).replace(microsecond=0).isoformat()
        .replace("+00:00", "Z")
    )


# --------------------------------------------------------------- metrics
def flatten_metrics(data: dict, prefix: str = "") -> Dict[str, float]:
    """Collapse a nested benchmark report into dotted-name metrics.

    Numbers are kept (bools as 0/1 — ``ok`` flags become gateable),
    dicts recurse with dotted prefixes, lists recurse with the index as
    a path segment; strings and nulls (and non-finite floats, which
    JSON cannot round-trip) are dropped."""
    flat: Dict[str, float] = {}
    items: Sequence[Tuple[str, object]]
    if isinstance(data, dict):
        items = [(str(key), value) for key, value in data.items()]
    else:
        items = [(str(position), value) for position, value in enumerate(data)]
    for key, value in items:
        name = f"{prefix}.{key}" if prefix else key
        if isinstance(value, bool):
            flat[name] = float(value)
        elif isinstance(value, (int, float)):
            if math.isfinite(value):
                flat[name] = float(value)
        elif isinstance(value, (dict, list)):
            flat.update(flatten_metrics(value, name))
    return flat


# --------------------------------------------------------------- records
def build_ledger_record(
    name: str,
    metrics: Dict[str, float],
    *,
    meta: Optional[dict] = None,
    git_sha: Optional[str] = None,
) -> dict:
    """One self-describing trajectory point for benchmark ``name``."""
    record = {
        "ledger_schema_version": LEDGER_SCHEMA_VERSION,
        "bench": str(name),
        "git_sha": current_git_sha() if git_sha is None else str(git_sha),
        "timestamp_utc": utc_timestamp(),
        "host": host_fingerprint(),
        "meta": dict(meta or {}),
        "metrics": {
            str(metric): float(value) for metric, value in metrics.items()
        },
    }
    errors = ledger_record_errors(record)
    if errors:
        raise ValueError("invalid ledger record: " + "; ".join(errors[:5]))
    return record


#: one trajectory point; a metric is a finite number (``regress`` could
#: never find a NaN ``same``).
LEDGER_RECORD_SPEC = {
    "ledger_schema_version": LEDGER_SCHEMA_VERSION,
    "bench": str,
    "git_sha": str,
    "timestamp_utc": str,
    "host": dict,
    "meta": dict,
    "metrics": {...: NUMBER},
}


#: a whole ``BENCH_*.json`` file; its records are checked one by one, so
#: a corrupt record is reported while the valid ones are kept.
LEDGER_DOCUMENT_SPEC = {
    "bench": str,
    "ledger_schema_version": LEDGER_SCHEMA_VERSION,
    "records": list,
}


def ledger_record_errors(record) -> List[str]:
    """Schema problems of one ledger record (empty = valid)."""
    return problems(record, LEDGER_RECORD_SPEC)


# ---------------------------------------------------------------- ledger
@dataclass
class Ledger:
    """One benchmark's loaded trajectory: valid records in append order
    plus the problems of any rejected ones."""

    name: str
    path: Optional[str] = None
    records: List[dict] = field(default_factory=list)
    #: per-rejected-record problem descriptions (corruption never
    #: silently truncates a trajectory — it is reported).
    errors: List[str] = field(default_factory=list)


def default_ledger_dir(fallback: Optional[pathlib.Path] = None) -> pathlib.Path:
    """Where ``BENCH_*.json`` ledgers live: ``$REPRO_LEDGER_DIR`` if
    set, else the caller-supplied fallback (benchmark harnesses pass
    their repo root), else the nearest ancestor of the working
    directory that looks like a repository root."""
    env = os.environ.get("REPRO_LEDGER_DIR")
    if env:
        return pathlib.Path(env)
    if fallback is not None:
        return pathlib.Path(fallback)
    here = pathlib.Path.cwd()
    for candidate in (here, *here.parents):
        if (candidate / "pyproject.toml").exists() or (candidate / ".git").exists():
            return candidate
    return here


def ledger_path(name: str, directory=None) -> pathlib.Path:
    return pathlib.Path(
        default_ledger_dir(directory)
    ) / f"{LEDGER_PREFIX}{name}.json"


def ledger_paths(directory=None) -> List[pathlib.Path]:
    """Every ``BENCH_*.json`` ledger in ``directory``, sorted by name."""
    return sorted(
        pathlib.Path(default_ledger_dir(directory)).glob(f"{LEDGER_PREFIX}*.json")
    )


def read_ledger(path, *, name: Optional[str] = None) -> Ledger:
    """Load a ledger, keeping valid records and reporting corrupted
    ones (a missing file is an empty ledger, so the first append and
    the gate's "nothing yet" case need no special-casing)."""
    path = pathlib.Path(path)
    inferred = path.stem[len(LEDGER_PREFIX):] if path.stem.startswith(
        LEDGER_PREFIX
    ) else path.stem
    ledger = Ledger(name=name or inferred, path=str(path))
    if not path.exists():
        return ledger
    try:
        document = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        ledger.errors.append(f"unreadable ledger: {exc}")
        return ledger
    ledger.errors.extend(problems(document, LEDGER_DOCUMENT_SPEC))
    if ledger.errors:
        return ledger
    for position, record in enumerate(document["records"]):
        found = problems(record, LEDGER_RECORD_SPEC, f"records[{position}]")
        if found:
            ledger.errors.extend(found)
        else:
            ledger.records.append(record)
    return ledger


def append_record(
    name: str,
    metrics: Dict[str, float],
    *,
    meta: Optional[dict] = None,
    directory=None,
    git_sha: Optional[str] = None,
) -> dict:
    """Append one record to ``BENCH_<name>.json`` (created on first
    use) and return it; the commit is the one checked out in
    ``directory`` unless ``git_sha`` names it.  Read-modify-write with
    an atomic rename, so a crashed benchmark can truncate at worst its
    own append.  A ledger the reader has any problem with — truncated
    JSON, the wrong document shape, one corrupt record among good ones
    — is refused with :class:`~repro.errors.CorruptArtifact` (a
    ``ValueError``) and left byte-for-byte untouched:
    rewriting it from the records that still parse would replace the
    evidence with a shorter, clean-looking trajectory before
    ``regress`` ever saw it."""
    path = ledger_path(name, directory)
    ledger = read_ledger(path, name=name)
    if ledger.errors:
        raise CorruptArtifact(
            f"refusing to append to corrupt ledger {path}: "
            + "; ".join(ledger.errors[:5])
        )
    record = build_ledger_record(
        name, metrics, meta=meta,
        git_sha=current_git_sha(directory) if git_sha is None else git_sha,
    )
    document = {
        "ledger_schema_version": LEDGER_SCHEMA_VERSION,
        "bench": str(name),
        "records": ledger.records + [record],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    scratch = path.with_suffix(".json.tmp")
    scratch.write_text(
        json.dumps(document, sort_keys=True, indent=2, allow_nan=False) + "\n"
    )
    scratch.replace(path)
    return record
