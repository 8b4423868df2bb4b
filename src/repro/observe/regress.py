"""Regression gate over benchmark ledgers: one rule, no options.

``python -m repro.observe regress`` loads every ``BENCH_*.json`` ledger
(:mod:`repro.observe.history`) and holds each one to the same rule:

    a ledger's newest record must equal the newest earlier record with
    the same ``meta`` on every metric.

Ledgers hold only numbers from the *simulated* clock and from counting
(host-clock numbers live in ``BENCHMARK.json``'s harness, nowhere
else), and those repeat to the bit — so "equal" means a relative
``1e-9`` (:data:`REL_TOLERANCE`, the constant ``benchmarks/e2e/run.py
--compare`` holds ``sim_*`` metrics to), with no band, no window and no
notion of a good or bad direction.  Per metric the verdict is

* ``same`` — within the tolerance of the baseline record's value;
* ``changed`` — anything else, a ``0 -> nonzero`` move included: fails;
* ``gone`` — in the baseline record, absent from the newest: fails (a
  bench that stops reporting a number is a move like any other);
* ``new`` — absent from the baseline record: passes, its series starts.

**Moving a number on purpose** is done by committing the record that
carries it: the next run compares against that record and finds it
``same``.  There is nothing to tune and nothing to outvote.

**Skipped ledgers.**  Only a ledger whose newest record was produced at
the checked-out commit (``git_sha == HEAD``) is judged.  A committed
record can never carry the SHA of the commit that contains it, so on a
clean checkout every ledger is skipped, and after a partial re-run (the
CI ``serving`` job runs one bench) only the re-run ledgers are judged —
the last PR's committed move is never re-judged.  A record with a
different ``meta`` (a smoke run next to a full-scale one) starts its own
series and passes with a note.  Corrupt ledgers fail, judged or not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .history import Ledger

__all__ = [
    "REL_TOLERANCE",
    "MetricVerdict",
    "LedgerVerdict",
    "check_ledger",
    "format_table",
]

#: two values are the same number when they differ by at most this
#: fraction of the baseline — room for a last-ulp difference between
#: numpy builds, none for a change in what is computed.
REL_TOLERANCE = 1e-9
#: the statuses that fail a ledger.
FAILING = ("changed", "gone")


@dataclass
class MetricVerdict:
    """One metric's comparison: newest record vs baseline record."""

    metric: str
    status: str  #: same | changed | new | gone
    baseline: Optional[float] = None
    latest: Optional[float] = None


@dataclass
class LedgerVerdict:
    """One ledger's outcome under the rule."""

    name: str
    path: Optional[str]
    verdicts: List[MetricVerdict] = field(default_factory=list)
    #: false when the newest record was not produced at HEAD (or there
    #: is none): nothing was compared.
    judged: bool = False
    #: ledger-level problems (corrupted records fail the gate loudly —
    #: a silently shrinking trajectory is itself a regression).
    errors: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def failures(self) -> List[MetricVerdict]:
        return [v for v in self.verdicts if v.status in FAILING]

    @property
    def passed(self) -> bool:
        return not self.errors and not self.failures


def _same(baseline: float, latest: float) -> bool:
    return abs(latest - baseline) <= REL_TOLERANCE * abs(baseline)


def check_ledger(ledger: Ledger, head: str) -> LedgerVerdict:
    """Hold a ledger's newest record, if it was produced at commit
    ``head``, to the newest earlier record with the same ``meta``."""
    verdict = LedgerVerdict(name=ledger.name, path=ledger.path)
    verdict.errors.extend(ledger.errors)
    if not ledger.records:
        verdict.notes.append("skipped: empty ledger")
        return verdict
    latest = ledger.records[-1]
    if latest["git_sha"] != head:
        verdict.notes.append(
            f"skipped: not re-run at HEAD {head[:7]} "
            f"(newest record is from {latest['git_sha'][:7]})"
        )
        return verdict
    verdict.judged = True
    earlier = [
        record
        for record in ledger.records[:-1]
        if record["meta"] == latest["meta"]
    ]
    if not earlier:
        verdict.notes.append(
            "no prior records with matching meta: baseline starts here"
        )
        return verdict
    baseline = earlier[-1]
    verdict.notes.append(
        f"baseline: record of {baseline['timestamp_utc']} "
        f"from {baseline['git_sha'][:7]}"
    )
    old, new = baseline["metrics"], latest["metrics"]
    for metric in sorted(old.keys() | new.keys()):
        if metric not in old:
            status = "new"
        elif metric not in new:
            status = "gone"
        else:
            status = "same" if _same(old[metric], new[metric]) else "changed"
        verdict.verdicts.append(
            MetricVerdict(
                metric=metric, status=status,
                baseline=old.get(metric), latest=new.get(metric),
            )
        )
    return verdict


def _format_value(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.12g}"


def format_table(verdict: LedgerVerdict, *, verbose: bool = False) -> str:
    """The human-readable diff table for one ledger.  By default only
    the rows that are not ``same`` are listed, with a one-line count of
    the rest; ``verbose`` lists them all."""
    lines = [f"{verdict.name}:"]
    for note in verdict.notes:
        lines.append(f"  {note}")
    for error in verdict.errors:
        lines.append(f"  ERROR: {error}")
    rows = [v for v in verdict.verdicts if verbose or v.status != "same"]
    if rows:
        lines.append(f"  {'metric':<56}{'baseline':>20}{'latest':>20}  status")
        for v in rows:
            lines.append(
                f"  {v.metric:<56}{_format_value(v.baseline):>20}"
                f"{_format_value(v.latest):>20}  "
                + (v.status.upper() if v.status in FAILING else v.status)
            )
    same = len(verdict.verdicts) - len(rows)
    if same:
        lines.append(f"  ({same} metric(s) same)")
    return "\n".join(lines)
