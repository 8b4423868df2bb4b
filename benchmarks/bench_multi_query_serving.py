"""Multi-query serving throughput: streams x admission policies.

Serves N concurrent closed-loop TPC-H query streams (each a rotation of
the probe queries) plus one RF1/RF2 refresh stream through the serving
layer, for every admission policy, and reports per-configuration:

* aggregate QPS (queries / makespan) and worker utilization;
* overall p50/p95 latency across all streams' queries;
* makespan and the refresh stream's commit + background compaction work.

Everything is simulated and deterministic, so the ledger record
(``BENCH_multi_query_serving.json``) is bit-stable per configuration
and ``regress`` holds every number in it to the committed record.

Usable standalone (CI runs ``python benchmarks/bench_multi_query_serving.py
--smoke``); the report is printed and its metrics appended to the
ledger.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.observe import SCHEMA_VERSION, history  # noqa: E402
from repro.planner.executor import ExecutionOptions  # noqa: E402
from repro.serving import (  # noqa: E402
    POLICY_NAMES,
    PlanListStream,
    ServingEngine,
    TpchRefreshStream,
    capture_tpch_items,
)
from repro.observe import latency_stats  # noqa: E402
from repro.tpch.datagen import generate  # noqa: E402
from repro.tpch.environment import make_environment  # noqa: E402
from repro.tpch.harness import build_schemes  # noqa: E402
from repro.tpch.queries import QUERIES  # noqa: E402

#: single-stage probe queries: cheap, scheme-sensitive, deterministic.
PROBES = ("Q01", "Q06", "Q12", "Q14")
SCHEME = "bdcc"
WORKERS = 4
REFRESH_PAIRS = 1
#: multiprogramming limit: below the stream counts, so the admission
#: queue is contended and the policies actually differ.
MAX_CONCURRENT = 2


def _serve_config(sf: float, seed: int, streams: int, policy: str) -> dict:
    """One (streams, policy) cell over a fresh build (the refresh
    stream mutates the database, so sharing builds across cells would
    couple their results)."""
    db = generate(scale_factor=sf, seed=seed)
    env = make_environment(sf)
    pdb = build_schemes(db, env, include=[SCHEME])[SCHEME]
    items = capture_tpch_items(
        pdb, {q: QUERIES[q] for q in PROBES},
        disk=env.disk, costs=env.cost_model,
    )
    query_streams = []
    for i in range(streams):
        rotation = i % len(items)
        rotated = items[rotation:] + items[:rotation]
        query_streams.append(
            PlanListStream(
                f"s{i:02d}",
                [item.plan for item in rotated],
                [item.description for item in rotated],
            )
        )
    refresh = [TpchRefreshStream("rf", db, seed, pairs=REFRESH_PAIRS)]
    options = ExecutionOptions(workers=WORKERS)
    with ServingEngine(
        pdb, disk=env.disk, costs=env.cost_model, options=options,
        policy=policy, max_concurrent=MAX_CONCURRENT, keep_results=False,
    ) as engine:
        report = engine.serve(query_streams, refresh)
    latency = latency_stats([r.latency_seconds for r in report.queries])
    return {
        "queries": len(report.queries),
        "commits": len(report.commits),
        "qps": report.queries_per_second,
        "makespan_seconds": report.makespan_seconds,
        "utilization": report.utilization,
        "p50_latency_seconds": latency["p50"],
        "p95_latency_seconds": latency["p95"],
        "mean_queue_seconds": latency_stats(
            [r.queue_seconds for r in report.queries]
        )["mean"],
        "commit_work_seconds": sum(c.work_seconds for c in report.commits),
        "compaction_seconds": sum(
            c.compaction_seconds for c in report.commits
        ),
    }


def run(sf: float, seed: int, stream_counts, json_mode: bool = False) -> int:
    cells = {}
    total_queries = 0
    total_makespan = 0.0
    for streams in stream_counts:
        for policy in POLICY_NAMES:
            print(
                f"serving {streams} stream(s) under {policy} ...",
                file=sys.stderr,
            )
            cell = _serve_config(sf, seed, streams, policy)
            cells[(streams, policy)] = cell
            total_queries += cell["queries"]
            total_makespan += cell["makespan_seconds"]

    lines = [
        f"multi-query serving (SF={sf}, scheme={SCHEME}, workers={WORKERS}, "
        f"probes={'/'.join(PROBES)}, {REFRESH_PAIRS} refresh pair(s))",
        f"{'streams':>8}{'policy':>14}{'queries':>9}{'qps':>12}"
        f"{'p50 ms':>10}{'p95 ms':>10}{'queue ms':>10}{'util %':>8}",
    ]
    for (streams, policy), cell in cells.items():
        lines.append(
            f"{streams:>8}{policy:>14}{cell['queries']:>9}"
            f"{cell['qps']:>12,.1f}"
            f"{cell['p50_latency_seconds'] * 1e3:>10.3f}"
            f"{cell['p95_latency_seconds'] * 1e3:>10.3f}"
            f"{cell['mean_queue_seconds'] * 1e3:>10.3f}"
            f"{cell['utilization'] * 100:>8.1f}"
        )
    aggregate_qps = total_queries / total_makespan if total_makespan else 0.0
    lines.append(
        f"aggregate: {total_queries} queries, "
        f"{aggregate_qps:,.1f} queries/second across all configurations"
    )
    text = "\n".join(lines)

    data = {
        "schema_version": SCHEMA_VERSION,
        "kind": "bench_multi_query_serving",
        "scale_factor": sf,
        "seed": seed,
        "scheme": SCHEME,
        "workers": WORKERS,
        "probes": list(PROBES),
        "stream_counts": list(stream_counts),
        "policies": list(POLICY_NAMES),
        "queries_per_second": aggregate_qps,
        "cells": {
            f"streams.{streams}.policy.{policy}": cell
            for (streams, policy), cell in cells.items()
        },
    }
    metrics = {"queries_per_second": aggregate_qps}
    for (streams, policy), cell in cells.items():
        prefix = f"streams.{streams}.policy.{policy}"
        for key in (
            "qps", "makespan_seconds", "p50_latency_seconds",
            "p95_latency_seconds", "mean_queue_seconds",
            "commit_work_seconds", "compaction_seconds",
        ):
            metrics[f"{prefix}.{key}"] = cell[key]
    history.append_record(
        "multi_query_serving",
        metrics,
        meta={
            "scale_factor": sf,
            "seed": seed,
            "scheme": SCHEME,
            "workers": WORKERS,
            "streams": list(stream_counts),
        },
        directory=pathlib.Path(__file__).resolve().parent.parent,
    )
    print(json.dumps(data, sort_keys=True, indent=2) if json_mode else text)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sf", type=float, default=0.02)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--streams", default="2,4",
        help="comma-separated stream counts to sweep (default 2,4)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small scale factor for CI (overrides --sf)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the structured JSON report instead of the text table "
             "(either way the metrics are appended to the BENCH_*.json ledger)",
    )
    args = parser.parse_args()
    sf = 0.004 if args.smoke else args.sf
    counts = [int(n) for n in args.streams.split(",") if n.strip()]
    return run(sf, args.seed, counts, json_mode=args.json)


if __name__ == "__main__":
    raise SystemExit(main())
