"""Benchmark harness: run the 22-query suite under the three schemes and
render the paper's Figure 2 / Figure 3 tables.

Reported times and memory are the *simulated* quantities of the cost
model (see ARCHITECTURE.md, Layer 5); the harness also prints an
SF100-equivalent column (linear extrapolation) next to the paper's
reported numbers, so paper and measured read side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

from ..core.advisor import AdvisorConfig
from ..planner.executor import ExecutionOptions
from ..schemes.base import PhysicalDatabase
from ..schemes.bdcc import BDCCScheme
from ..schemes.plain import PlainScheme
from ..schemes.primary_key import PrimaryKeyScheme
from ..storage.database import Database
from ..workload.differential import twin_mismatch
from .environment import Environment, make_environment
from .queries import QUERIES
from .runner import run_query

__all__ = ["QueryMeasurement", "SchemeResults", "SuiteResult", "build_schemes", "run_suite"]


@dataclass
class QueryMeasurement:
    seconds: float
    io_seconds: float
    cpu_seconds: float
    peak_memory_bytes: float
    rows: int
    #: simulated wall clock (scheduler makespan; == seconds when serial)
    makespan_seconds: float = 0.0
    workers: int = 1

    @property
    def speedup(self) -> float:
        """Resource-seconds over wall clock (1.0 for a serial run)."""
        return self.seconds / self.makespan_seconds if self.makespan_seconds else 1.0


@dataclass
class SchemeResults:
    scheme: str
    measurements: Dict[str, QueryMeasurement] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return sum(m.seconds for m in self.measurements.values())

    @property
    def total_peak_memory(self) -> float:
        return sum(m.peak_memory_bytes for m in self.measurements.values())

    @property
    def max_peak_memory(self) -> float:
        return max((m.peak_memory_bytes for m in self.measurements.values()), default=0.0)

    @property
    def avg_peak_memory(self) -> float:
        if not self.measurements:
            return 0.0
        return self.total_peak_memory / len(self.measurements)


@dataclass
class SuiteResult:
    environment: Environment
    schemes: Dict[str, SchemeResults]

    def speedup(self, slow: str = "plain", fast: str = "bdcc") -> float:
        denominator = self.schemes[fast].total_seconds
        return self.schemes[slow].total_seconds / denominator if denominator else float("inf")

    # ------------------------------------------------------------- tables
    def fig2_table(self) -> str:
        """Execution times per query (the paper's Figure 2)."""
        return self._table("seconds", "simulated time", 1e3, "ms")

    def fig3_table(self) -> str:
        """Peak query memory per query (the paper's Figure 3)."""
        return self._table("peak_memory_bytes", "peak memory", 1e-6, "MB")

    def parallel_table(self) -> str:
        """Per-query makespan and speedup columns of a ``--workers N``
        run: resource-seconds (the work done), wall clock (the
        scheduler's makespan) and their ratio per scheme."""
        names = list(self.schemes)
        workers = max(
            m.workers for r in self.schemes.values() for m in r.measurements.values()
        )
        header = f"{'query':<6}"
        for name in names:
            header += f"{name + ' work':>12}{name + ' wall':>12}{name + ' x':>9}"
        lines = [
            f"parallel execution, workers={workers} "
            f"(work = resource ms, wall = makespan ms)",
            header,
        ]
        queries = sorted(next(iter(self.schemes.values())).measurements)
        for query in queries:
            row = f"{query:<6}"
            for name in names:
                m = self.schemes[name].measurements[query]
                row += (
                    f"{m.seconds * 1e3:12.3f}"
                    f"{(m.makespan_seconds or m.seconds) * 1e3:12.3f}"
                    f"{m.speedup:9.2f}"
                )
            lines.append(row)
        totals = "total "
        for name in names:
            work = sum(m.seconds for m in self.schemes[name].measurements.values())
            wall = sum(
                (m.makespan_seconds or m.seconds)
                for m in self.schemes[name].measurements.values()
            )
            totals += f"{work * 1e3:12.3f}{wall * 1e3:12.3f}{work / wall if wall else 1.0:9.2f}"
        lines.append(totals)
        return "\n".join(lines)

    def _table(self, attr: str, title: str, scale: float, unit: str) -> str:
        names = list(self.schemes)
        lines = [
            f"{title} per TPC-H query, SF={self.environment.scale_factor} "
            f"(page={self.environment.page_model.page_bytes}B)",
            "query  " + "".join(f"{n:>12}" for n in names),
        ]
        queries = sorted(next(iter(self.schemes.values())).measurements)
        for query in queries:
            row = f"{query:<6}"
            for name in names:
                value = getattr(self.schemes[name].measurements[query], attr) * scale
                row += f"{value:12.3f}"
            lines.append(row)
        totals = "total "
        for name in names:
            total = sum(
                getattr(m, attr) for m in self.schemes[name].measurements.values()
            )
            totals += f"{total * scale:12.3f}"
        lines.append(totals + f"  [{unit}]")
        return "\n".join(lines)


def build_schemes(
    db: Database,
    environment: Optional[Environment] = None,
    include: Sequence[str] = ("plain", "pk", "bdcc"),
    advisor_config: Optional[AdvisorConfig] = None,
) -> Dict[str, PhysicalDatabase]:
    """Materialise the requested physical schemes on the shared device."""
    env = environment or make_environment(db.scale_factor or 0.01)
    result: Dict[str, PhysicalDatabase] = {}
    for name in include:
        if name == "plain":
            scheme = PlainScheme(page_model=env.page_model)
        elif name == "pk":
            scheme = PrimaryKeyScheme(page_model=env.page_model)
        elif name == "bdcc":
            scheme = BDCCScheme(
                advisor_config=advisor_config or env.advisor_config(),
                page_model=env.page_model,
            )
        else:
            raise ValueError(f"unknown scheme {name!r}")
        result[name] = scheme.build(db)
    return result


def run_suite(
    physical_dbs: Dict[str, PhysicalDatabase],
    environment: Environment,
    queries: Optional[Dict[str, Callable]] = None,
    options: Optional[ExecutionOptions] = None,
    check_results_match: bool = False,
    tracer=None,
    observer: Optional[Callable] = None,
) -> SuiteResult:
    """Run the query set cold under every scheme.  With
    ``check_results_match`` every scheme's result must equal the first
    scheme's as a multiset (the shared verdict,
    :func:`~repro.workload.differential.twin_mismatch`).

    ``tracer``/``observer`` thread through to :func:`run_query`; the
    observer here is called as ``observer(qname, sname, runner, result)``
    so sinks can label records by query and scheme.
    """
    queries = QUERIES if queries is None else queries
    schemes = {name: SchemeResults(name) for name in physical_dbs}
    first_relations: Dict[str, object] = {}
    for qname, fn in queries.items():
        for sname, pdb in physical_dbs.items():
            hook = None
            if observer is not None:
                hook = (
                    lambda runner, result, q=qname, s=sname:
                    observer(q, s, runner, result)
                )
            result, metrics = run_query(
                pdb, fn,
                disk=environment.disk,
                options=options,
                costs=environment.cost_model,
                tracer=tracer,
                observer=hook,
            )
            schemes[sname].measurements[qname] = QueryMeasurement(
                seconds=metrics.total_seconds,
                io_seconds=metrics.io_seconds,
                cpu_seconds=metrics.cpu_seconds,
                peak_memory_bytes=metrics.peak_memory_bytes,
                rows=result.relation.num_rows,
                makespan_seconds=metrics.makespan_seconds,
                workers=metrics.workers,
            )
            if check_results_match:
                # schemes order rows differently: the multiset contract
                first = first_relations.setdefault(qname, result.relation)
                detail = twin_mismatch(first, result.relation, exact=False)
                if detail is not None:
                    raise AssertionError(
                        f"{qname}: scheme {sname} returned different results\n"
                        f"{detail}"
                    )
    return SuiteResult(environment=environment, schemes=schemes)
