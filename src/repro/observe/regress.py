"""Regression sentinel over benchmark ledgers.

``python -m repro.observe regress`` loads every ``BENCH_*.json``
ledger (:mod:`repro.observe.history`), compares each ledger's newest
record against a robust baseline built from the prior records, and
exits nonzero with a human-readable diff table when any gated metric
moved the wrong way.  The CI ``observe`` job runs it after appending
fresh records, so a perf regression (or cost-model drift) fails the
build instead of shipping silently.

The comparison is deliberately conservative:

* **baseline** — the median of the previous ``window`` records whose
  ``meta`` equals the newest record's (a smoke run never regresses
  against a full-scale run; a new configuration starts its own
  trajectory and passes until it has history);
* **noise band** — per metric, the widest of a relative tolerance, a
  MAD-derived band from the baseline window, and an absolute floor.
  Deterministic simulated metrics get the tight relative tolerance;
  wall-clock-derived metrics (names containing ``wall``/``measured``/
  ``rel_error``, plus ``pearson``) get a wide one, because CI hosts
  differ in core count and load and measured seconds are expected to
  flap where simulated charges are bit-stable;
* **direction** — inferred from the metric name
  (:func:`metric_direction`): ``seconds``/``bytes``/``error`` up is
  bad, ``speedup``/``pearson``/``hit``-rates down is bad; metrics with
  no directional token (``bits``, ``scale`` ...) are informational and
  never gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .history import Ledger, ledger_paths, read_ledger

__all__ = [
    "RegressionPolicy",
    "MetricVerdict",
    "LedgerVerdict",
    "metric_direction",
    "check_ledger",
    "check_directory",
    "format_table",
]

#: name tokens that mark a metric where *smaller* is better.
LOWER_IS_BETTER = frozenset(
    {
        "seconds", "ms", "latency", "makespan", "error", "errors",
        "bytes", "misses", "miss", "compactions", "residual", "lines",
    }
)
#: ... and where *larger* is better.
HIGHER_IS_BETTER = frozenset(
    {
        "speedup", "throughput", "qps", "rate", "hit", "hits",
        "pearson", "pearson_r", "ok", "identical", "r",
    }
)
#: tokens marking wall-clock-derived (host-sensitive, noisy) metrics.
MEASURED_TOKENS = frozenset({"wall", "measured", "rel", "pearson", "stddev"})


#: denominator tokens that make an ``X_per_<unit>`` name a *rate over
#: time* — throughput-shaped, so higher is better (unless the numerator
#: itself is a bad thing: ``errors_per_second`` stays lower-is-better).
_TIME_UNIT_TOKENS = frozenset({"second", "seconds", "sec", "secs", "minute", "min"})


def _tokens(metric: str) -> List[str]:
    return metric.replace("-", "_").replace(".", "_").lower().split("_")


def metric_direction(metric: str) -> Optional[str]:
    """``"lower"``, ``"higher"`` or ``None`` (ungated) for a metric
    name.  Rates over time (``queries_per_second``, ``rows_per_sec``)
    are recognized by shape and gate higher-is-better — unless the
    numerator names a lower-is-better quantity (``errors_per_second``).
    Otherwise lower-is-better tokens win ties (``miss_rate`` is a rate,
    but it is a rate of *misses* — up is bad); note ``seconds_per_query``
    has no time-unit *denominator*, so it falls through to the ordinary
    token rules and stays lower-is-better."""
    ordered = _tokens(metric)
    if "per" in ordered:
        at = ordered.index("per")
        numerator, denominator = set(ordered[:at]), set(ordered[at + 1:])
        if denominator & _TIME_UNIT_TOKENS:
            if numerator & LOWER_IS_BETTER:
                return "lower"
            return "higher"
    tokens = set(ordered)
    if tokens & LOWER_IS_BETTER:
        return "lower"
    if tokens & HIGHER_IS_BETTER:
        return "higher"
    return None


def _is_measured(metric: str) -> bool:
    return bool(set(_tokens(metric)) & MEASURED_TOKENS)


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return 0.5 * (ordered[middle - 1] + ordered[middle])


@dataclass(frozen=True)
class RegressionPolicy:
    """How tolerant the sentinel is; the defaults gate CI."""

    #: baseline = median of up to this many prior same-``meta`` records.
    window: int = 8
    #: noise band for deterministic (simulated) metrics.
    rel_tolerance: float = 0.10
    #: noise band for wall-clock-derived metrics (CI hosts differ).
    measured_rel_tolerance: float = 1.5
    #: band is also at least this multiple of the window's MAD.
    mad_multiplier: float = 4.0
    #: and never below this (zero baselines would otherwise gate on
    #: any nonzero latest value).
    abs_floor: float = 1e-9
    #: per-metric-suffix absolute tolerances (matched on the last
    #: name token); correlation lives on [-1, 1] where relative bands
    #: are meaningless.
    abs_tolerance: Dict[str, float] = field(
        default_factory=lambda: {"pearson_r": 0.25, "r": 0.25}
    )

    def band(self, metric: str, baseline: float, window: Sequence[float]) -> float:
        rel = (
            self.measured_rel_tolerance
            if _is_measured(metric)
            else self.rel_tolerance
        )
        mad = _median([abs(v - baseline) for v in window]) if window else 0.0
        candidates = [rel * abs(baseline), self.mad_multiplier * mad, self.abs_floor]
        last_token = _tokens(metric)[-1]
        if last_token in self.abs_tolerance:
            candidates.append(self.abs_tolerance[last_token])
        return max(candidates)


@dataclass
class MetricVerdict:
    """One metric's comparison: latest vs baseline within the band."""

    metric: str
    status: str  #: ok | regressed | improved | new | ungated
    direction: Optional[str] = None
    baseline: Optional[float] = None
    latest: Optional[float] = None
    band: Optional[float] = None

    @property
    def delta(self) -> Optional[float]:
        if self.baseline is None or self.latest is None:
            return None
        return self.latest - self.baseline


@dataclass
class LedgerVerdict:
    """One ledger's sentinel outcome."""

    name: str
    path: Optional[str]
    verdicts: List[MetricVerdict] = field(default_factory=list)
    #: prior same-``meta`` records the baseline was built from.
    baseline_records: int = 0
    #: ledger-level problems (corrupted records fail the gate loudly —
    #: a silently shrinking trajectory is itself a regression).
    errors: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricVerdict]:
        return [v for v in self.verdicts if v.status == "regressed"]

    @property
    def passed(self) -> bool:
        return not self.errors and not self.regressions


def check_ledger(ledger: Ledger, policy: Optional[RegressionPolicy] = None) -> LedgerVerdict:
    """Compare a ledger's newest record against its robust baseline."""
    policy = policy or RegressionPolicy()
    verdict = LedgerVerdict(name=ledger.name, path=ledger.path)
    verdict.errors.extend(ledger.errors)
    if not ledger.records:
        verdict.notes.append("empty ledger: nothing to compare")
        return verdict
    latest = ledger.records[-1]
    pool = [
        record
        for record in ledger.records[:-1]
        if record["meta"] == latest["meta"]
    ][-policy.window:]
    verdict.baseline_records = len(pool)
    if not pool:
        verdict.notes.append(
            "no prior records with matching meta: baseline starts here"
        )
        return verdict
    for metric in sorted(latest["metrics"]):
        value = latest["metrics"][metric]
        history = [
            record["metrics"][metric]
            for record in pool
            if metric in record["metrics"]
        ]
        if not history:
            verdict.verdicts.append(
                MetricVerdict(metric=metric, status="new", latest=value)
            )
            continue
        direction = metric_direction(metric)
        baseline = _median(history)
        if direction is None:
            verdict.verdicts.append(
                MetricVerdict(
                    metric=metric, status="ungated",
                    baseline=baseline, latest=value,
                )
            )
            continue
        band = policy.band(metric, baseline, history)
        delta = value - baseline
        if direction == "lower":
            status = (
                "regressed" if delta > band
                else "improved" if delta < -band
                else "ok"
            )
        else:
            status = (
                "regressed" if delta < -band
                else "improved" if delta > band
                else "ok"
            )
        verdict.verdicts.append(
            MetricVerdict(
                metric=metric, status=status, direction=direction,
                baseline=baseline, latest=value, band=band,
            )
        )
    return verdict


def check_directory(
    directory=None, policy: Optional[RegressionPolicy] = None
) -> List[LedgerVerdict]:
    """Run the sentinel over every ``BENCH_*.json`` in ``directory``."""
    return [
        check_ledger(read_ledger(path), policy) for path in ledger_paths(directory)
    ]


def _format_value(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == 0.0:
        return "0"
    if abs(value) >= 1e6 or abs(value) < 1e-3:
        return f"{value:.3e}"
    return f"{value:.6g}"


def format_table(verdict: LedgerVerdict, *, verbose: bool = False) -> str:
    """The human-readable diff table for one ledger.  By default only
    the interesting rows (regressed / improved / new) are listed, with
    a one-line summary of the quiet ones; ``verbose`` lists them all."""
    lines = [
        f"{verdict.name}: baseline = median of {verdict.baseline_records} "
        f"prior record(s)"
    ]
    for note in verdict.notes:
        lines.append(f"  note: {note}")
    for error in verdict.errors:
        lines.append(f"  ERROR: {error}")
    rows = [
        v for v in verdict.verdicts
        if verbose or v.status in ("regressed", "improved", "new")
    ]
    if rows:
        lines.append(
            f"  {'metric':<48}{'baseline':>14}{'latest':>14}"
            f"{'delta':>14}{'band':>12}  status"
        )
        for v in rows:
            lines.append(
                f"  {v.metric:<48}{_format_value(v.baseline):>14}"
                f"{_format_value(v.latest):>14}{_format_value(v.delta):>14}"
                f"{_format_value(v.band):>12}  "
                + (v.status.upper() if v.status == "regressed" else v.status)
            )
    quiet = len(verdict.verdicts) - len(rows)
    if quiet:
        lines.append(f"  ({quiet} metric(s) within the noise band)")
    return "\n".join(lines)
