"""Observability CLI: ``python -m repro.observe <subcommand> ...``.

Three subcommands:

* ``validate FILE...`` — check Chrome trace-event JSON, JSONL query
  logs, ``--json`` CLI documents and ``BENCH_*.json`` ledgers against
  their schemas; one summary line per file, nonzero exit on any
  invalid artifact (the CI ``observe`` job gate).  A bad file ends in
  ``INVALID`` and the path of each offending field, never a traceback.
* ``summary FILE...`` — aggregate JSONL query logs into per-query
  p50/p95 simulated seconds, cache hit rates, delta-scan totals and,
  per operator kind, host seconds against simulated seconds; nothing
  is aggregated from a log ``validate`` would refuse.
* ``regress [LEDGER...]`` — the regression gate: every benchmark
  ledger whose newest record was produced at the checked-out commit
  must equal its previous same-configuration record on every metric;
  exits nonzero with a diff table naming each metric that changed or
  went missing (see :mod:`repro.observe.regress`).  No options.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

from ..errors import CorruptArtifact
from .history import current_git_sha, ledger_paths, read_ledger
from .query_log import (
    RECORD_SPEC,
    read_records,
    record_errors,
    summarize_records,
)
from .regress import check_ledger, format_table
from .schema import problems
from .sink import run_main
from .trace_events import validate_trace

__all__ = ["main"]


def _log_problems(records: List[dict]) -> List[str]:
    """Every schema problem of a loaded log, as ``line N: problem``."""
    return [
        f"line {line_number}: {error}"
        for line_number, record in enumerate(records, start=1)
        for error in record_errors(record)
    ]


def _log_file_problems(records: List[dict]) -> List[str]:
    """Why a loaded JSONL log cannot be trusted (empty = it can)."""
    if not records:
        return ["no records"]
    return _log_problems(records)


def _validate_file(path: str) -> List[str]:
    if path.endswith(".jsonl"):
        return _log_file_problems(read_records(path))
    with open(path) as fh:
        try:
            document = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CorruptArtifact(f"not JSON ({exc})") from None
    if isinstance(document, dict) and "traceEvents" in document:
        errors = validate_trace(document)
        if not errors and not document["traceEvents"]:
            errors = ["no trace events"]
        return errors
    if isinstance(document, dict) and "ledger_schema_version" in document:
        ledger = read_ledger(path)
        errors = list(ledger.errors)
        if not errors and not ledger.records:
            errors = ["no records"]
        return errors
    if isinstance(document, dict) and "records" in document:
        if not document["records"]:
            return ["no records"]
        return problems(document["records"], [RECORD_SPEC], "records")
    return ["unrecognised document: neither a trace nor a record collection"]


def _print_invalid(path: str, errors: List[str], file) -> None:
    print(f"{path}: INVALID", file=file)
    for error in errors[:20]:
        print(f"  - {error}", file=file)
    if len(errors) > 20:
        print(f"  ... and {len(errors) - 20} more", file=file)


def _cmd_validate(files: List[str]) -> int:
    failed = False
    for path in files:
        try:
            errors = _validate_file(path)
        except (OSError, ValueError) as exc:  # unreadable, or not JSON
            errors = [str(exc)]
        if errors:
            failed = True
            _print_invalid(path, errors, sys.stdout)
        else:
            print(f"{path}: ok")
    return 1 if failed else 0


def _format_rate(value) -> str:
    return "-" if value is None else f"{value:.1%}"


def _cmd_summary(files: List[str], as_json: bool) -> int:
    records = []
    for path in files:
        try:
            batch = read_records(path)
            errors = _log_file_problems(batch)
        except (OSError, ValueError) as exc:  # unreadable, or a non-JSON line
            errors = [str(exc)]
        if errors:
            _print_invalid(path, errors, sys.stderr)
            return 1
        records.extend(batch)
    summary = summarize_records(records)
    if as_json:
        print(json.dumps(summary, sort_keys=True, indent=2))
        return 0
    overall = summary["overall"]
    print(
        f"{overall['records']} record(s), {overall['queries']} distinct "
        f"quer{'y' if overall['queries'] == 1 else 'ies'}"
    )
    print(
        f"  plan cache hit rate:     "
        f"{_format_rate(overall['plan_cache_hit_rate'])}"
    )
    print(
        f"  fragment cache hit rate: "
        f"{_format_rate(overall['fragment_cache_hit_rate'])}"
    )
    print(f"  delta rows scanned:      {overall['delta_rows_scanned']:.0f}")
    if summary["queries"]:
        print(
            f"  {'query':<28}{'runs':>6}{'p50 sim s':>14}{'p95 sim s':>14}"
            f"{'delta rows':>12}"
        )
        for label in sorted(summary["queries"]):
            stats = summary["queries"][label]
            print(
                f"  {label:<28}{stats['records']:>6}"
                f"{stats['p50_simulated_seconds']:>14.6f}"
                f"{stats['p95_simulated_seconds']:>14.6f}"
                f"{stats['delta_rows_scanned']:>12.0f}"
            )
    if summary["operators"]:
        print(
            f"  {'operator':<28}{'execs':>6}{'host s':>14}{'sim s':>14}"
            f"{'host/sim':>12}"
        )
        for kind, stats in summary["operators"].items():
            host, sim = stats["host_seconds"], stats["simulated_seconds"]
            ratio = f"{host / sim:>12.2f}" if sim > 0 else f"{'-':>12}"
            print(
                f"  {kind:<28}{stats['executions']:>6.0f}"
                f"{host:>14.6f}{sim:>14.6f}{ratio}"
            )
    return 0


def _cmd_regress(args) -> int:
    head = current_git_sha()
    verdicts = [
        check_ledger(read_ledger(path), head)
        for path in args.ledgers or ledger_paths(args.dir)
    ]
    if not verdicts:
        print("no BENCH_*.json ledgers found")
        return 0
    for verdict in verdicts:
        print(format_table(verdict, verbose=args.verbose))
    failed = [v.name for v in verdicts if not v.passed]
    judged = sum(v.judged for v in verdicts)
    print(
        "regression check: "
        + (f"FAILED ({', '.join(failed)})" if failed else "ok")
        + f" — {judged} ledger(s) judged at HEAD {head[:7]}, "
        f"{len(verdicts) - judged} skipped"
    )
    return 1 if failed else 0


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.observe",
        description=(
            "Validate, summarize and regression-gate observability "
            "artifacts."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser(
        "validate", help="validate traces, query logs and ledgers"
    )
    p_validate.add_argument("files", nargs="+", help="artifacts to validate")

    p_summary = sub.add_parser(
        "summary", help="aggregate JSONL query logs into p50/p95 stats"
    )
    p_summary.add_argument("files", nargs="+", help="JSONL query logs")
    p_summary.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    p_regress = sub.add_parser(
        "regress",
        help="newest ledger records produced at HEAD must equal the "
             "records before them",
    )
    p_regress.add_argument(
        "ledgers", nargs="*",
        help="BENCH_*.json files (default: every ledger in --dir)",
    )
    p_regress.add_argument(
        "--dir", default=None,
        help="ledger directory (default: $REPRO_LEDGER_DIR or repo root)",
    )
    p_regress.add_argument(
        "--verbose", action="store_true", help="list unchanged metrics too"
    )

    args = parser.parse_args(argv)
    if args.command == "validate":
        return _cmd_validate(args.files)
    if args.command == "summary":
        return _cmd_summary(args.files, args.json)
    return _cmd_regress(args)


if __name__ == "__main__":
    run_main(main)
