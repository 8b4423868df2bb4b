"""Cross-scheme differential oracle over generated plans.

Every generated plan is evaluated once by the SQL reference
(:mod:`repro.workload.reference`) and then executed under each physical
scheme x each ablation variant; normalized result multisets must agree
everywhere.  A divergence fails loudly: the report carries the seed and
query index (which fully determine the plan), the logical plan, and the
offending scheme/variant's physical plan annotated with its
per-operator actuals.

One verdict: "are these two results the same?" is decided here and
nowhere else.  :func:`reference_mismatch` judges an engine result
against the SQL reference, :func:`twin_mismatch` two engine results
against each other (bit-for-bit, or as multisets when the plan's
contract lets a gather reorder); every driver — this sweep, the serving
replay, the TPC-H suite's cross-scheme check — calls those two.

The multiset verdict compares canonical columns, not python rows: each
column, in name order, is one canonical array and one NULL mask, one
stable ``np.lexsort`` orders the rows (:func:`_sorted_columns`), and one
comparator holds two sides' columns to each other with one vector
expression per column (:func:`_agreement`).  The sweep judges each
distinct result of a plan once: one bit-identical to a result already
judged against the same reference takes that verdict.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.count_table import CountTable
from ..execution.cost import CostModel
from ..planner.executor import ExecutionOptions, Executor
from ..planner.explain import format_explain, format_plan
from ..schemes.base import PhysicalDatabase
from ..storage.io_model import DiskModel
from ..updates import UpdateSession
from .generator import PlanGenerator
from .reference import evaluate_reference
from .updates import UpdateGenerator

__all__ = [
    "Divergence",
    "WorkloadReport",
    "ablation_variants",
    "worker_count_variants",
    "column_tolerances",
    "normalized_rows",
    "rows_match",
    "bitwise_mismatch",
    "worst_relative_error",
    "reference_mismatch",
    "twin_mismatch",
    "run_differential",
]

_SWITCHES = (
    "enable_pushdown",
    "enable_propagation",
    "enable_minmax",
    "enable_sandwich",
    "enable_merge",
)

#: worker counts the default grid sweeps; parallel executions are
#: additionally checked *bit-for-bit* against the serial default run.
_WORKER_COUNTS = (1, 2, 4)


def worker_count_variants(
    counts: Sequence[int], backend: str = "simulated"
) -> Dict[str, ExecutionOptions]:
    """One ``workers-N`` variant per requested count (1 is the serial
    default and named so the report can point at the diverging count).
    Small scans still split under the sweep: the partition floor drops
    so tiny differential databases exercise the parallel machinery —
    including co-partitioned sandwich joins, which are on by default.

    With ``backend="process"`` the variants execute their fragments on
    the real multiprocessing backend (named ``workers-N-process``) and
    are held to exactly the same oracle as simulated parallel runs:
    normalized multisets against the reference, and bit-for-bit against
    the scheme's serial default run for plans without a reordering
    exchange."""
    suffix = "" if backend == "simulated" else f"-{backend}"
    return {
        f"workers-{n}{suffix}": ExecutionOptions(
            workers=n, min_partition_rows=256, backend=backend
        )
        for n in counts
    }


def ablation_variants(full: bool = True) -> Dict[str, ExecutionOptions]:
    """The option grid a differential run sweeps: the default plan,
    each feature switched off on its own, a narrow sandwich-bit budget,
    the everything-off baseline, the worker-count sweep, the
    gather-then-aggregate parallel variant (partial aggregation
    disabled, co-partitioning still on), and the broadcast-only parallel
    variant (co-partitioning *and* partial aggregation disabled, so
    every parallel plan keeps the bit-identical contract)."""
    variants = {"default": ExecutionOptions()}
    if not full:
        return variants
    for switch in _SWITCHES:
        variants["no-" + switch[len("enable_"):]] = ExecutionOptions(**{switch: False})
    variants["narrow-sandwich"] = ExecutionOptions(max_sandwich_bits=2)
    variants["baseline"] = ExecutionOptions(
        **{switch: False for switch in _SWITCHES}
    )
    variants.update(worker_count_variants([n for n in _WORKER_COUNTS if n > 1]))
    variants["workers-4-gatheragg"] = ExecutionOptions(
        workers=4, min_partition_rows=256, enable_partial_agg=False
    )
    variants["workers-4-broadcast"] = ExecutionOptions(
        workers=4, min_partition_rows=256,
        enable_copartition=False, enable_partial_agg=False,
    )
    return variants


# ---------------------------------------------------------- normalization
_NAN_SENTINEL = -8.98846567431158e307   # distinct, sortable stand-ins

#: comparison tolerance; the sort-key rounding granule (7 significant
#: digits: at most 1e-6 relative, at mantissa ~1) stays at or below
#: half this, so two rows that can end up ordered differently on the
#: two sides are themselves within tolerance of each other —
#: misalignment can never cause a spurious mismatch.
_REL_TOL = 2e-6
_ABS_TOL = 2e-6
#: per-dtype envelopes (keyed on float itemsize): float64 carries ~15
#: significant digits, so summation-order noise sits far below 2e-6;
#: float32 only carries ~7 — whenever either side stored one, the
#: looser envelope applies to that column.
_DTYPE_TOLERANCES = {8: (_REL_TOL, _ABS_TOL), 4: (1e-4, 1e-4)}


class _Null:
    """NULL in a normalized row, whatever placeholder the column holds
    under it: equal only to itself."""

    def __repr__(self) -> str:
        return "NULL"


NULL = _Null()

#: one canonical column: its values and its validity (False = NULL)
_Column = Tuple[np.ndarray, np.ndarray]


def column_tolerances(names: Sequence[str], *column_maps) -> List[Optional[tuple]]:
    """Per-column ``(rel_tol, abs_tol)`` over ``sorted(names)``: the
    loosest envelope any side's float dtype needs, ``None`` for
    non-float columns (compared exactly).  Pass every side's column
    mapping — the reference computes in float64, but an engine column
    that was stored narrower legitimately rounds more coarsely."""
    tolerances: List[Optional[tuple]] = []
    for name in sorted(names):
        dtypes = [np.asarray(columns[name]).dtype for columns in column_maps]
        envelopes = [_DTYPE_TOLERANCES.get(d.itemsize, _DTYPE_TOLERANCES[8])
                     for d in dtypes if d.kind == "f"]
        tolerances.append(max(envelopes, key=lambda tol: tol[0], default=None))
    return tolerances


def _sorted_columns(
    columns, names: Sequence[str], valid: Optional[Dict] = None
) -> List[_Column]:
    """The canonical columns over ``sorted(names)``: floats as float64
    with -0.0 as 0.0 and NaN as a sortable sentinel, integers and bools
    as int64, anything else as strings; ``valid`` holds per-column
    masks, a column without one is all valid.  Floats are *not* rounded
    — any digit-rounding can straddle a boundary and turn summation-order
    noise into a spurious mismatch; the comparison is tolerance-based
    instead (:func:`_agreement`).  One stable lexsort orders the rows,
    per column NULL first (one constant key under every NULL), then the
    value, floats rounded to 7 significant digits so summation-order
    noise (~1e-11 relative) cannot reorder rows across the two sides
    unless the rows are within comparison tolerance anyway."""
    masks = valid or {}
    canonical: List[_Column] = []
    keys: List[np.ndarray] = []
    for name in sorted(names):
        array = np.asarray(columns[name])
        ok = np.asarray(masks[name], bool) if name in masks else np.ones(len(array), bool)
        if array.dtype.kind == "f":
            # + 0.0 turns -0.0 into 0.0
            values = np.where(np.isnan(array), _NAN_SENTINEL, array.astype(np.float64)) + 0.0
            exponent = np.floor(np.log10(np.where(values == 0, 1.0, np.abs(values))))
            scale = np.power(10.0, 6.0 - exponent)
            with np.errstate(invalid="ignore"):   # an infinity's key is NaN
                key = np.round(values * scale) / scale
        else:
            values = key = array.astype(np.int64 if array.dtype.kind in "iub" else str, copy=False)
        canonical.append((values, ok))
        keys += [ok, np.where(ok, key, np.zeros((), key.dtype))]
    order = np.lexsort(keys[::-1]) if keys else None
    return [(values[order], ok[order]) for values, ok in canonical]


def normalized_rows(
    columns: Dict[str, np.ndarray], names: Sequence[str], valid: Optional[Dict] = None
) -> List[tuple]:
    """Canonically ordered multiset of rows over ``names`` as tuples
    (see :func:`_sorted_columns`): every NULL is :data:`NULL`, every
    other value a python float, int or str."""
    columns = _sorted_columns(columns, names, valid)
    cells = (np.where(ok, values.astype(object), NULL).tolist() for values, ok in columns)
    return list(zip(*cells))


def _transposed(rows: List[tuple]) -> List[_Column]:
    """Rows of one width (as :func:`normalized_rows` returns them) back
    into columns, :data:`NULL` into validity."""
    cells = np.array(rows, dtype=object).reshape(len(rows), len(rows[0]) if rows else 0)
    return [(np.array(np.where(c != NULL, c, 0).tolist()), c != NULL) for c in cells.T]


def _agreement(expected: List[_Column], got: List[_Column], tolerances) -> Tuple[np.ndarray, float]:
    """Which aligned rows (as many as the shorter side has) of two
    column lists agree, and the largest relative float error over the
    cells both sides hold.  NULL must meet NULL; non-float columns must
    be equal; a float column (or an int against a float) must lie within
    its ``(rel, abs)`` envelope by ``math.isclose``'s symmetric rule —
    never ``np.isclose``, which scales by one side only.  A column
    without a tolerance takes the float64 default."""
    agree, worst = np.True_, 0.0
    for (a, a_ok), (b, b_ok), tol in zip(expected, got, tolerances or [None] * len(got)):
        rows = min(len(a), len(b))
        a, a_ok, b, b_ok = a[:rows], a_ok[:rows], b[:rows], b_ok[:rows]
        kinds = a.dtype.kind + b.dtype.kind
        numeric = set(kinds) <= set("biuf")
        if numeric and "f" in kinds:
            rel, abs_ = tol if tol is not None else (_REL_TOL, _ABS_TOL)
            a, b = a.astype(np.float64, copy=False), b.astype(np.float64, copy=False)
            with np.errstate(over="ignore", invalid="ignore"):
                diff = np.abs(a - b)
            scale, finite = np.maximum(np.abs(a), np.abs(b)), np.isfinite(diff)
            same = (a == b) | finite & (diff <= np.maximum(rel * scale, abs_))
            counted = a_ok & b_ok & finite & (scale > 0)
            worst = max(worst, float((diff[counted] / scale[counted]).max(initial=0.0)))
        else:
            same = (a == b) if numeric or kinds[0] == kinds[1] else False
        agree &= (a_ok == b_ok) & (same | ~a_ok)
    return agree, worst


def rows_match(
    expected: List[tuple],
    got: List[tuple],
    tolerances: Optional[List[Optional[tuple]]] = None,
) -> bool:
    """Pairwise comparison of two sorted row multisets; floats compare
    with relative/absolute tolerance (sqlite's running sum in the
    reference and the engine's per-row accumulation round differently, and row
    order — hence accumulation order — differs per scheme).  With
    ``tolerances`` (see :func:`column_tolerances`) each column gets its
    own dtype-derived envelope; without, the float64 default applies."""
    if len(expected) != len(got):
        return False
    expected, got = _transposed(expected), _transposed(got)
    return len(expected) == len(got) and bool(_agreement(expected, got, tolerances)[0].all())


def worst_relative_error(expected: List[tuple], got: List[tuple]) -> float:
    """The largest relative float discrepancy between two matched row
    multisets — the sweep reports its maximum so the gap between the
    noise actually observed and the comparison tolerance stays
    visible."""
    return _agreement(_transposed(expected), _transposed(got), None)[1]


# -------------------------------------------------------------- reporting
@dataclass
class Divergence:
    """One (query, scheme, variant) whose result differs from the
    reference; self-contained for reproduction.  ``repro_flags`` pins
    the database the plan was generated against (predicate literals are
    sampled from the data, so the plan depends on the data too)."""

    seed: int
    index: int
    scheme: str
    variant: str
    description: str
    logical_plan: str
    physical_plan: str
    detail: str
    repro_flags: str = ""

    @classmethod
    def of(cls, executor: Executor, plan, metrics=None, **fields) -> "Divergence":
        """The divergence of ``plan`` under ``executor``: renders the
        logical plan and the executor's EXPLAIN of it, with the actuals
        of ``metrics`` when it ran."""
        return cls(
            logical_plan=format_plan(plan),
            physical_plan=format_explain(executor, executor.lower(plan), metrics),
            **fields,
        )

    def render(self) -> str:
        flags = f" {self.repro_flags}" if self.repro_flags else ""
        return "\n".join(
            [
                f"DIVERGENCE {self.description} under scheme={self.scheme} "
                f"variant={self.variant}",
                f"  reproduce: python -m repro.workload --seed {self.seed} "
                f"--queries {self.index + 1}{flags}",
                "  logical plan:",
                _indent(self.logical_plan, 4),
                "  physical plan (with per-operator actuals):",
                _indent(self.physical_plan, 4),
                "  mismatch:",
                _indent(self.detail, 4),
            ]
        )


def _indent(text: str, spaces: int) -> str:
    pad = " " * spaces
    return "\n".join(pad + line for line in text.splitlines())


#: the :class:`~repro.execution.metrics.OperatorActuals` fields a sweep
#: sums per operator kind, beside the number of calls
_OPERATOR_SUMS = (
    "rows_out", "io_seconds", "cpu_seconds", "reserved_bytes", "host_seconds"
)


@dataclass
class WorkloadReport:
    """Outcome of one differential sweep."""

    seed: int
    queries: int
    executions: int = 0
    divergences: List[Divergence] = field(default_factory=list)
    #: physical-operator kind -> times planned (default variant, all schemes)
    strategies: Dict[str, int] = field(default_factory=dict)
    #: per-operator-kind actuals accumulated over the default-variant runs
    operator_totals: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: largest relative float discrepancy seen across all matched
    #: (query, scheme, variant) results — how close the observed
    #: summation-order noise comes to the comparison tolerance
    worst_rel_error: float = 0.0
    #: update-aware sweeps only: committed batches and their volume
    commits: int = 0
    rows_inserted: int = 0
    rows_deleted: int = 0
    compactions: int = 0
    #: compacted BDCC tables held to the full count-table rebuild
    rebuild_checks: int = 0
    #: host seconds the sweep took, and the part of them spent judging
    #: (in :func:`reference_mismatch` and :func:`twin_mismatch`)
    wall_seconds: float = 0.0
    judge_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_dict(self) -> dict:
        """JSON-ready form of the report (the ``--json`` CLI mode);
        per-execution detail lives in query-log records, not here."""
        return {
            "seed": int(self.seed),
            "queries": int(self.queries),
            "executions": int(self.executions),
            "ok": self.ok,
            "worst_rel_error": float(self.worst_rel_error),
            "strategies": {k: int(v) for k, v in sorted(self.strategies.items())},
            "operator_totals": {
                kind: {key: float(value) for key, value in totals.items()}
                for kind, totals in sorted(self.operator_totals.items())
            },
            "commits": int(self.commits),
            "rows_inserted": int(self.rows_inserted),
            "rows_deleted": int(self.rows_deleted),
            "compactions": int(self.compactions),
            "rebuild_checks": int(self.rebuild_checks),
            "wall_seconds": float(self.wall_seconds),
            "judge_seconds": float(self.judge_seconds),
            "divergences": [
                {
                    "seed": d.seed,
                    "index": d.index,
                    "scheme": d.scheme,
                    "variant": d.variant,
                    "description": d.description,
                    "detail": d.detail,
                }
                for d in self.divergences
            ],
        }

    def render(self) -> str:
        lines = [
            f"workload differential: seed={self.seed} queries={self.queries} "
            f"executions={self.executions} divergences={len(self.divergences)}"
        ]
        if self.commits:
            lines.append(
                f"updates: {self.commits} commits (+{self.rows_inserted} rows, "
                f"-{self.rows_deleted} rows, {self.compactions} compactions, "
                f"{self.rebuild_checks} held to the full rebuild)"
            )
        if self.executions:
            lines.append(
                f"worst float relative error: {self.worst_rel_error:.2e} "
                f"(tolerance {_REL_TOL:.0e})"
            )
            lines.append(
                f"judge {self.judge_seconds:.1f} s of {self.wall_seconds:.1f} s"
            )
        if self.strategies:
            strategies = ", ".join(
                f"{kind}={count}" for kind, count in sorted(self.strategies.items())
            )
            lines.append(f"strategies planned: {strategies}")
        if self.operator_totals:
            lines.append("per-operator actuals (default variant, all schemes):")
            lines.append(
                f"  {'operator':<14}{'calls':>8}{'rows out':>12}"
                f"{'io ms':>10}{'cpu ms':>10}{'mem MB':>10}{'host ms':>10}"
            )
            for kind in sorted(self.operator_totals):
                totals = self.operator_totals[kind]
                lines.append(
                    f"  {kind:<14}{int(totals['calls']):>8}"
                    f"{int(totals['rows_out']):>12}"
                    f"{totals['io_seconds'] * 1e3:>10.2f}"
                    f"{totals['cpu_seconds'] * 1e3:>10.2f}"
                    f"{totals['reserved_bytes'] / 1e6:>10.2f}"
                    f"{totals['host_seconds'] * 1e3:>10.2f}"
                )
        for divergence in self.divergences:
            lines.append("")
            lines.append(divergence.render())
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)


def bitwise_mismatch(serial, got) -> Optional[str]:
    """Exact (order- and bit-sensitive) comparison of a parallel
    execution's relation against the same scheme's serial default run.
    Fragmented plans without a reordering exchange gather partitions in
    storage order, so their parallel stream must reproduce the serial
    one *exactly* — no tolerance, values and validity masks alike (a
    missing mask is all valid).  (Plans *with* a reordering
    co-partition gather carry the order-insensitive contract instead and
    are only held to the normalized-multiset check vs the reference.)"""
    serial_names = serial.column_names
    got_names = got.column_names
    if serial_names != got_names:
        return f"column mismatch: serial {serial_names}, parallel {got_names}"
    if serial.num_rows != got.num_rows:
        return f"row count mismatch: serial {serial.num_rows}, parallel {got.num_rows}"
    for name in serial_names:
        a, b = serial.column(name), got.column(name)
        same = a == b
        if a.dtype.kind == "f" and b.dtype.kind == "f":
            same = same | (np.isnan(a) & np.isnan(b))  # NaN pairs match
        if not np.all(same):
            where = int(np.flatnonzero(~same)[0])
            return (
                f"column {name!r} differs (first at row {where}: "
                f"serial {a[where]!r}, parallel {b[where]!r})"
            )
        # a gather adds all-true masks that a serial run lacks
        a, b = (r.valid.get(name, np.ones(r.num_rows, dtype=bool)) for r in (serial, got))
        if not np.array_equal(a, b):
            where = int(np.flatnonzero(a != b)[0])
            return f"column {name!r}: row {where} is NULL on one side only (serial valid {a[where]})"
    return None


# ---------------------------------------------------------------- verdicts
def _multiset_mismatch(
    names: List[str], expected_columns, expected: List[_Column], got
) -> Tuple[Optional[str], float]:
    """Compare relation ``got`` with an expected side already in
    canonical columns over its sorted visible ``names``, each column
    under the loosest tolerance either side's dtype needs; returns the
    mismatch text (``None`` when equal: the row counts, the first three
    aligned rows that differ and the first three rows only one side
    has) and the worst relative float error between the matched rows."""
    got_names = sorted(got.column_names)
    if got_names != names:
        return f"column mismatch: expected {names}, got {got_names}", 0.0
    tolerances = column_tolerances(names, expected_columns, got.columns)
    got = _sorted_columns(got.columns, names, got.valid)
    counts = [len(columns[0][0]) if columns else 0 for columns in (expected, got)]
    agree, worst = _agreement(expected, got, tolerances)
    if counts[0] == counts[1] and agree.all():
        return None, worst

    def row(columns, i):
        return tuple(v[i].item() if ok[i] else NULL for v, ok in columns)

    common = min(counts)
    differing = np.flatnonzero(~agree)
    lines = [f"expected {counts[0]} rows, got {counts[1]} rows"]
    for i in differing[:3]:
        lines.append(f"row {i}: expected {row(expected, i)}")
        lines.append(f"row {i}: got      {row(got, i)}")
    if len(differing) > 3:
        lines.append("...")
    longer, label = (expected, "missing") if counts[0] > counts[1] else (got, "unexpected")
    for i in range(common, min(common + 3, max(counts))):
        lines.append(f"{label}: {row(longer, i)}")
    return "\n".join(lines), 0.0


@functools.lru_cache(maxsize=1)
def _reference_columns(reference) -> Tuple[List[str], List[_Column]]:
    """``(sorted visible names, canonical columns)`` of a reference; the
    last one is kept, because the sweep judges every scheme x variant
    against the same reference in a row."""
    names = sorted(reference.visible_names)
    return names, _sorted_columns(reference.columns, names, reference.valid)


def reference_mismatch(reference, relation) -> Tuple[Optional[str], float]:
    """The verdict against the SQL reference: ``(detail, worst)`` —
    ``detail`` says how ``relation`` differs from ``reference`` (a
    :class:`~repro.workload.reference.RefRelation`) as a normalized
    multiset, ``None`` when it does not; ``worst`` is the largest
    relative float error between the matched rows, which the sweep
    reports next to the tolerance."""
    names, columns = _reference_columns(reference)
    return _multiset_mismatch(names, reference.columns, columns, relation)


def twin_mismatch(expected, got, exact: bool) -> Optional[str]:
    """The verdict between two engine results for one plan (serial vs
    parallel, solo vs served, scheme vs scheme): how ``got`` differs
    from ``expected``, or ``None``.  ``exact`` holds ``got`` to the
    bit-for-bit, order-included contract of plans without a reordering
    exchange (``not plan.reorders``); otherwise the two must be the same
    multiset within both sides' float tolerances.  Either way a column
    must have the same dtype *kind* on both sides: value comparison
    calls ``1498`` and ``1498.0`` equal, and an engine path that turns
    an integer column into floats is a divergence no oracle would
    otherwise see."""
    detail = bitwise_mismatch(expected, got)
    if detail is not None and not exact:   # bit-identical relations are equal multisets
        names = sorted(expected.column_names)
        columns = _sorted_columns(expected.columns, names, expected.valid)
        detail = _multiset_mismatch(names, expected.columns, columns, got)[0]
    if detail is not None:
        return detail
    for name in expected.column_names:
        a, b = expected.column(name).dtype, got.column(name).dtype
        if a.kind != b.kind:
            return f"column {name!r}: dtype {a} vs {b}"
    return None


# ------------------------------------------------------------------ runner
def run_differential(
    physical_dbs: Dict[str, PhysicalDatabase],
    seed: int = 0,
    num_queries: int = 50,
    variants: Optional[Dict[str, ExecutionOptions]] = None,
    disk: Optional[DiskModel] = None,
    costs: Optional[CostModel] = None,
    fail_fast: bool = False,
    progress: Optional[Callable[[int, int], None]] = None,
    repro_flags: str = "",
    observer: Optional[Callable] = None,
    *,
    update_rounds: int = 0,
    policy=None,
) -> WorkloadReport:
    """Generate plans from ``seed`` and check every scheme x variant
    against the scheme-independent reference — and parallel variants
    against the scheme's serial default run.

    With ``update_rounds`` the sweep is update-aware: that many seeded
    insert/delete batches are committed through one
    :class:`~repro.updates.UpdateSession` (all schemes share the logical
    database, so the SQL reference sees every change automatically),
    each followed by ``num_queries // update_rounds`` queries.  Every
    BDCC table a commit compacts is additionally held to the full
    re-aggregation of its own key column (the oracle's second
    reference, counted in ``rebuild_checks``).  Executors persist across
    rounds, so a stale cached plan surviving a commit would surface as a
    divergence — the epoch keying is under test too.  Plan ``index`` is
    drawn from ``(seed, index)`` with or without updates, so every
    seeded sweep checks the same sequence.

    ``repro_flags`` names the extra CLI flags (``--sf``,
    ``--datagen-seed``) that rebuild the same database, so divergence
    reports reproduce exactly.  ``observer`` is called as
    ``observer(query, scheme, variant, executor, result)`` after every
    execution — the CLI's observability sink hangs off it."""
    variants = variants or ablation_variants()
    db = next(iter(physical_dbs.values())).database
    plan_generator = PlanGenerator(db)
    executors: Dict[Tuple[str, str], Executor] = {
        (scheme, variant): Executor(pdb, disk=disk, costs=costs, options=options)
        for scheme, pdb in physical_dbs.items()
        for variant, options in variants.items()
    }
    per_round = max(num_queries // update_rounds, 1) if update_rounds else num_queries
    total = per_round * max(update_rounds, 1)
    report = WorkloadReport(seed=seed, queries=total)
    if update_rounds:
        update_generator = UpdateGenerator(db)
        session = UpdateSession(
            *physical_dbs.values(), policy=policy, disk=disk, costs=costs
        )
        repro_flags = f"{repro_flags} --updates {update_rounds}".strip()
    batch = None
    started = time.perf_counter()

    try:
        for index in range(total):
            if update_rounds and index % per_round == 0:
                batch = update_generator.generate(seed, index // per_round)
                batch.apply(session)
                result = session.commit()
                report.commits += 1
                report.rows_inserted += sum(result.inserted.values())
                report.rows_deleted += sum(result.deleted.values())
                report.compactions += sum(1 for c in result.changes if c.compacted)
                _compaction_second_reference(
                    report, physical_dbs, result, batch, repro_flags
                )
                if report.divergences and fail_fast:
                    break
            query = plan_generator.generate(seed, index)
            if batch is not None:
                query.description += f" (after {batch.description})"
            _check_one_query(report, executors, db, query, repro_flags, observer)
            if report.divergences and fail_fast:
                break
            if progress is not None:
                progress(index + 1, total)
        report.wall_seconds = time.perf_counter() - started
        return report
    finally:
        # drops backend handles only: the process backend's pool
        # outlives executors (backends.shutdown)
        for executor in executors.values():
            executor.close()


def _check_one_query(
    report: WorkloadReport,
    executors: Dict[Tuple[str, str], "Executor"],
    db,
    query,
    repro_flags: str,
    observer: Optional[Callable] = None,
) -> None:
    """Run one generated query under every (scheme, variant) executor and
    record divergences against the SQL reference (parallel variants
    additionally against the scheme's serial default run, execution by
    execution).  Each distinct result is judged against the reference
    once (:func:`_judge`)."""
    reference = evaluate_reference(db, query.plan)
    serial_relations: Dict[str, object] = {}
    judged: List[Tuple[object, Tuple[Optional[str], float]]] = []

    for (scheme, variant), executor in executors.items():
        result = executor.execute(query.plan)
        report.executions += 1
        if observer is not None:
            observer(query, scheme, variant, executor, result)
        if variant == "default":
            serial_relations[scheme] = result.relation
        clock = time.perf_counter()
        detail, worst = _judge(judged, reference, result.relation)
        report.worst_rel_error = max(report.worst_rel_error, worst)
        if (
            detail is None
            and executor.options.workers > 1
            and scheme in serial_relations
        ):
            # the one result-contract dispatch: a plan without a
            # reordering (canonical) gather must reproduce the serial
            # stream bit-for-bit, order included; one with it is a
            # deterministic multiset
            plan = executor.execution_plan(executor.lower(query.plan))
            mismatch = twin_mismatch(
                serial_relations[scheme], result.relation, exact=not plan.reorders
            )
            if mismatch is not None:
                contract = "bit-for-bit" if not plan.reorders else "as a multiset"
                detail = (
                    f"workers={executor.options.workers} diverges {contract} "
                    f"from the serial default run:\n{mismatch}"
                )
        report.judge_seconds += time.perf_counter() - clock
        if detail is not None:
            report.divergences.append(
                Divergence.of(
                    executor, query.plan, result.metrics,
                    seed=query.seed, index=query.index, scheme=scheme,
                    variant=variant, description=query.description,
                    detail=detail, repro_flags=repro_flags,
                )
            )
        elif variant == "default":
            pplan = executor.lower(query.plan)
            for op in pplan.operators():
                report.strategies[op.kind] = report.strategies.get(op.kind, 0) + 1
                actuals = result.metrics.actuals_for(op)
                if actuals is None:
                    continue
                totals = report.operator_totals.setdefault(
                    op.kind, dict.fromkeys(("calls",) + _OPERATOR_SUMS, 0.0)
                )
                totals["calls"] += 1
                for key in _OPERATOR_SUMS:
                    totals[key] += getattr(actuals, key)


def _judge(judged: list, reference, relation) -> Tuple[Optional[str], float]:
    """:func:`reference_mismatch`, once per distinct result of a query:
    ``judged`` holds each ``(relation, verdict)`` judged against
    ``reference`` so far, and a relation identical to one of them — bit
    for bit (:func:`bitwise_mismatch`) and in every column's dtype, on
    which the tolerances depend — takes that verdict."""
    for seen, verdict in judged:
        if bitwise_mismatch(seen, relation) is None and all(
            seen.column(name).dtype == relation.column(name).dtype
            for name in seen.column_names
        ):
            return verdict
    verdict = reference_mismatch(reference, relation)
    judged.append((relation, verdict))
    return verdict


def _compaction_second_reference(
    report: WorkloadReport,
    physical_dbs: Dict[str, PhysicalDatabase],
    result,
    batch,
    repro_flags: str,
) -> None:
    """Hold every BDCC table this commit compacted to the full rebuild:
    its merged keys must be non-decreasing and its incrementally
    maintained count table (``CountTable.merge_entries``) all-valid and
    equal to the re-aggregation of the merged key column
    (``CountTable.from_sorted_keys``) — the write path production runs,
    at real table sizes, in any round."""
    for change in result.changes:
        if not change.compacted:
            continue
        for stored in physical_dbs[change.scheme].stored_copies(change.table):
            bdcc = stored.bdcc
            if bdcc is None or stored.has_delta:
                continue  # not co-clustered, or a copy this commit left uncompacted
            report.rebuild_checks += 1
            ct = bdcc.count_table
            rebuilt = CountTable.from_sorted_keys(
                bdcc.keys, bdcc.total_bits, bdcc.granularity
            )
            problems = [
                f"count table {attr} differ from the full re-aggregation"
                for attr in ("keys", "counts", "offsets")
                if not np.array_equal(getattr(ct, attr), getattr(rebuilt, attr))
            ]
            if np.any(bdcc.keys[1:] < bdcc.keys[:-1]):
                problems.append("_bdcc_ keys are not sorted")
            if not ct.valid.all():
                problems.append("count table has invalid entries")
            if problems:
                report.divergences.append(
                    Divergence(
                        seed=batch.seed,
                        index=batch.index,
                        scheme=change.scheme,
                        variant="compaction-rebuild-reference",
                        description=batch.description,
                        logical_plan=f"compact {change.table} ({stored.stored_rows} rows)",
                        physical_plan="(merge_entries count table vs from_sorted_keys)",
                        detail="; ".join(problems),
                        repro_flags=repro_flags,
                    )
                )
