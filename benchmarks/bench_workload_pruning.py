"""Workload-aware use pruning (future-work extension, ``repro/core/workload.py``).

LINEITEM carries four dimension uses under the full design.  A
date-dominated workload lets the analyzer drop the part/supplier uses;
the pruned table clusters on fewer bits, improving the date queries'
granularity while giving up part-side acceleration — the trade-off the
paper's "ignore dimension uses with less impact" remark anticipates.
"""

from __future__ import annotations

import pytest

from repro.core.advisor import SchemaAdvisor
from repro.core.workload import WorkloadAnalyzer, prune_design
from repro.schemes.base import PhysicalScheme
from repro.schemes.bdcc import BDCCScheme
from repro.tpch.harness import run_suite
from repro.tpch.queries import QUERIES

DATE_QUERIES = {q: QUERIES[q] for q in ("Q01", "Q03", "Q04", "Q06", "Q10", "Q12")}
PART_QUERIES = {q: QUERIES[q] for q in ("Q09", "Q14", "Q16", "Q19")}

from conftest import write_report

#: the fast benchmark set: every pytest bench runs in seconds at the
#: default SF, so CI appends a ledger record for all of them
pytestmark = pytest.mark.fast

_rows = {}


class _PrunedBDCC(BDCCScheme):
    def __init__(self, scores, max_uses, **kwargs):
        super().__init__(**kwargs)
        self._scores = scores
        self._max_uses = max_uses

    def build(self, db):
        advisor = SchemaAdvisor(db.schema, self.advisor_config)
        self.design = prune_design(advisor.design(db), self._scores, self._max_uses)
        self._built = advisor.build(db, self.design)
        return PhysicalScheme.build(self, db)


def _score(bench_db):
    """Score against an archetype of the date-dominated workload."""
    design = SchemaAdvisor(bench_db.schema).design(bench_db)
    from repro.execution.aggregate import AggSpec
    from repro.execution.expressions import col
    from repro.planner.logical import scan
    from repro.tpch.dates import days

    archetype = (
        scan("orders", predicate=col("o_orderdate").lt(days("1995-01-01")))
        .join(scan("lineitem"), on=[("o_orderkey", "l_orderkey")])
        .groupby(["l_orderkey"], [AggSpec("n", "count")])
    )
    return design, WorkloadAnalyzer(bench_db.schema).score(design, [archetype] * 4)


@pytest.mark.parametrize("mode", ["full-design", "pruned-to-2"])
def test_workload_pruning(benchmark, mode, bench_db, bench_env):
    def run():
        if mode == "full-design":
            scheme = BDCCScheme(
                advisor_config=bench_env.advisor_config(),
                page_model=bench_env.page_model,
            )
        else:
            design, scores = _score(bench_db)
            scheme = _PrunedBDCC(
                scores, 2,
                advisor_config=bench_env.advisor_config(),
                page_model=bench_env.page_model,
            )
        pdb = scheme.build(bench_db)
        date = run_suite({"bdcc": pdb}, bench_env, queries=DATE_QUERIES).schemes["bdcc"]
        part = run_suite({"bdcc": pdb}, bench_env, queries=PART_QUERIES).schemes["bdcc"]
        uses = len(pdb.bdcc_tables()["lineitem"].uses)
        return uses, date.total_seconds, part.total_seconds

    uses, date_s, part_s = benchmark.pedantic(run, rounds=1, iterations=1)
    _rows[mode] = (uses, date_s, part_s)
    benchmark.extra_info.update(
        lineitem_uses=uses,
        date_queries_ms=round(date_s * 1e3, 3),
        part_queries_ms=round(part_s * 1e3, 3),
    )
    if len(_rows) == 2:
        lines = [
            f"Workload-aware use pruning (BDCC, SF={bench_env.scale_factor})",
            f"{'design':<14}{'lineitem uses':>14}{'date-q ms':>11}{'part-q ms':>11}",
        ]
        for mode_name, (u, d, p) in _rows.items():
            lines.append(f"{mode_name:<14}{u:>14}{d * 1e3:11.3f}{p * 1e3:11.3f}")
        lines.append(
            "pruning to the date-dominated workload keeps D_DATE + customer "
            "D_NATION; part-side queries lose their acceleration"
        )
        write_report(
            "workload_pruning",
            "\n".join(lines),
            data={
                "date_queries": sorted(DATE_QUERIES),
                "part_queries": sorted(PART_QUERIES),
                "modes": {
                    mode_name: {
                        "lineitem_uses": u,
                        "date_queries_seconds": d,
                        "part_queries_seconds": p,
                    }
                    for mode_name, (u, d, p) in _rows.items()
                },
            },
        )
