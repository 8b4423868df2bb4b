"""Ablation: selection pushdown and propagation (ARCHITECTURE.md, Layer 3).

Runs pushdown-heavy queries under BDCC with (a) everything on, (b)
propagation off (only local-dimension pushdown), (c) pushdown fully off.
The deltas isolate how much of BDCC's Figure-2 win comes from reading
fewer count-table groups.
"""

from __future__ import annotations

import pytest

from repro.planner.executor import ExecutionOptions
from repro.tpch.queries import QUERIES
from repro.tpch.runner import run_query

from conftest import write_report

#: the fast benchmark set: every pytest bench runs in seconds at the
#: default SF, so CI appends a ledger record for all of them
pytestmark = pytest.mark.fast

QUERY_SET = ["Q03", "Q04", "Q05", "Q07", "Q08", "Q10"]

MODES = {
    "full": ExecutionOptions(),
    "local-only": ExecutionOptions(enable_propagation=False),
    "no-pushdown": ExecutionOptions(enable_pushdown=False),
}

_rows = {}


@pytest.mark.parametrize("mode", list(MODES))
def test_pushdown_ablation(benchmark, mode, bench_pdbs, bench_env):
    def run():
        totals = {"seconds": 0.0, "io_bytes": 0.0}
        for qname in QUERY_SET:
            _, metrics = run_query(
                bench_pdbs["bdcc"], QUERIES[qname],
                disk=bench_env.disk, costs=bench_env.cost_model,
                options=MODES[mode],
            )
            totals["seconds"] += metrics.total_seconds
            totals["io_bytes"] += metrics.io_bytes
        return totals

    totals = benchmark.pedantic(run, rounds=1, iterations=1)
    _rows[mode] = totals
    benchmark.extra_info.update(
        simulated_ms=round(totals["seconds"] * 1e3, 3),
        io_MB=round(totals["io_bytes"] / 1e6, 3),
    )
    if len(_rows) == len(MODES):
        lines = [
            f"Pushdown/propagation ablation over {QUERY_SET} (BDCC, "
            f"SF={bench_env.scale_factor})",
            f"{'mode':<14}{'sim ms':>10}{'IO MB':>10}",
        ]
        for mode_name, t in _rows.items():
            lines.append(
                f"{mode_name:<14}{t['seconds'] * 1e3:10.3f}{t['io_bytes'] / 1e6:10.3f}"
            )
        write_report(
            "ablation_pushdown",
            "\n".join(lines),
            data={
                "queries": QUERY_SET,
                "modes": {
                    mode_name: {
                        "seconds": t["seconds"],
                        "io_bytes": t["io_bytes"],
                    }
                    for mode_name, t in _rows.items()
                },
            },
        )
