"""Command-line driver: ``python -m repro.tpch [options]``.

Generates TPC-H at a chosen scale, builds the requested physical
schemes, runs queries and prints Figure 2 / Figure 3-style tables or
per-query EXPLAIN output.

Observability flags (see docs/observability.md): ``--trace FILE``
writes a Chrome trace-event timeline of every execution (open it in
https://ui.perfetto.dev), ``--query-log FILE`` appends one validated
JSONL record per query, and ``--json`` replaces the text tables with a
machine-readable document built from the same record shape.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import List

from ..core.advisor import SchemaAdvisor
from ..core.report import design_report
from ..observe import SCHEMA_VERSION
from ..planner.executor import Executor
from ..planner.explain import format_explain
from ..serving import (
    PlanListStream,
    ServingEngine,
    TpchRefreshStream,
    capture_tpch_items,
    serving_trace,
)
from .driver import open_session, shared_flags
from .harness import run_suite
from .queries import QUERIES
from .refresh import run_refresh_suite
from .runner import QueryRunner

__all__ = ["main"]


def normalize_query_id(token: str) -> str:
    """Canonical query id of a user-supplied token: ``1``, ``q1``,
    ``Q1`` and ``Q01`` all name ``Q01``; unknown shapes pass through
    upper-cased so the caller reports them verbatim."""
    token = token.strip().upper()
    digits = token[1:] if token.startswith("Q") else token
    if digits.isdigit():
        return f"Q{int(digits):02d}"
    return token


def _parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tpch",
        description="Run the BDCC reproduction's TPC-H evaluation.",
        parents=[
            shared_flags(
                streams=(
                    "the TPC-H throughput test — each stream a deterministic "
                    "rotation of the selected queries — reporting per-stream "
                    "latency percentiles and aggregate QPS; combine with "
                    "--refresh for concurrent RF1/RF2 commits under MVCC "
                    "snapshot reads"
                )
            )
        ],
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--queries", default="all",
        help="comma-separated query ids (Q01..Q22) or 'all'",
    )
    parser.add_argument(
        "--explain", action="store_true",
        help="print per-query plans and strategy decisions instead of tables",
    )
    parser.add_argument(
        "--design", action="store_true",
        help="print the advisor's schema design report and exit",
    )
    parser.add_argument(
        "--no-sandwich", action="store_true", help="disable sandwich operators"
    )
    parser.add_argument(
        "--no-pushdown", action="store_true", help="disable BDCC group pruning"
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help=(
            "simulated workers for partition-parallel execution; with N > 1 "
            "a speedup table (resource-seconds vs makespan) is printed"
        ),
    )
    parser.add_argument(
        "--refresh", type=int, default=0, metavar="N",
        help=(
            "run N TPC-H refresh pairs (RF1 inserts / RF2 deletes) through "
            "the update subsystem instead of the query suite, reporting "
            "per-scheme refresh cost next to Q1/Q6 latency over the "
            "refreshed (merge-on-read) state; with --streams the pairs "
            "run as a concurrent refresh stream instead"
        ),
    )
    args = parser.parse_args(argv)
    # the design report and the refresh-cost report hand no execution to
    # the sink: refuse its flags rather than accept and drop them
    reports_only = args.design or (args.refresh > 0 and args.streams == 0)
    if reports_only and (args.trace or args.query_log or args.json):
        parser.error(
            "--trace/--query-log/--json observe query executions; "
            "--design and --refresh (without --streams) report none"
        )
    return args


def _run_serving(args, pdbs, env, selected, options, sink) -> int:
    """The ``--streams N`` throughput test: N rotated closed-loop query
    streams (plus an optional RF1/RF2 refresh stream) per scheme through
    the serving layer."""
    documents = {}
    for sname, pdb in pdbs.items():
        items = capture_tpch_items(
            pdb, selected, disk=env.disk, costs=env.cost_model
        )
        streams = []
        for i in range(args.streams):
            # the TPC-H throughput test runs a distinct permutation per
            # stream; a rotation is the deterministic, seed-free analogue
            rotation = i % len(items)
            rotated = items[rotation:] + items[:rotation]
            streams.append(
                PlanListStream(
                    f"s{i:02d}",
                    [item.plan for item in rotated],
                    [item.description for item in rotated],
                )
            )
        refresh = []
        if args.refresh > 0:
            refresh.append(
                TpchRefreshStream(
                    "rf", pdb.database, args.seed, pairs=args.refresh
                )
            )
        with ServingEngine(
            pdb, disk=env.disk, costs=env.cost_model, options=options,
            policy=args.policy, max_concurrent=args.max_concurrent,
            keep_results=False,
        ) as engine:
            report = engine.serve(
                streams, refresh,
                observer=functools.partial(sink.served, pdb=pdb, options=options)
                if sink.enabled else None,
            )
        documents[sname] = report.to_dict()
        if sink.builder is not None:
            serving_trace(report, builder=sink.builder)
        if not args.json:
            print(report.render())
            print()
    sink.finish()
    if args.json:
        print(
            json.dumps(
                {
                    "schema_version": SCHEMA_VERSION,
                    "kind": "tpch_serving",
                    "scale_factor": args.sf,
                    "seed": args.seed,
                    "streams": args.streams,
                    "policy": args.policy,
                    "workers": options.workers,
                    "refresh_pairs": args.refresh,
                    "schemes": documents,
                    "records": sink.records or [],
                },
                sort_keys=True,
                indent=2,
            )
        )
    return 0


def main(argv: List[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    if args.queries == "all":
        selected = dict(QUERIES)
    else:
        wanted = [normalize_query_id(q) for q in args.queries.split(",") if q.strip()]
        unknown = [q for q in wanted if q not in QUERIES]
        if unknown:
            print(f"unknown queries: {unknown}", file=sys.stderr)
            return 2
        if not wanted:
            print(f"--queries {args.queries!r} selects no query", file=sys.stderr)
            return 2
        selected = {q: QUERIES[q] for q in wanted}

    names, options, sink, env, build = open_session(
        args, datagen_seed=args.seed, workers=args.workers,
        enable_sandwich=not args.no_sandwich,
        enable_pushdown=not args.no_pushdown,
    )
    pdbs = build()

    if args.streams > 0:
        return _run_serving(args, pdbs, env, selected, options, sink)

    if args.refresh > 0:
        result = run_refresh_suite(
            pdbs, env, pairs=args.refresh, seed=args.seed
        )
        print(result.render())
        return 0

    if args.design:
        db = next(iter(pdbs.values())).database
        advisor = SchemaAdvisor(db.schema, env.advisor_config())
        design = advisor.design(db)
        built = advisor.build(db, design)
        print(design_report(design, built))
        return 0

    def observe(qname: str, sname: str, runner: QueryRunner, result) -> None:
        sink.observe(
            f"{qname}/{sname}", runner.metrics, pdb=runner.executor.pdb,
            options=options, plans=runner.physical_plans,
            relation=result.relation, stages=runner.stage_metrics,
        )

    if args.explain:
        for qname, fn in selected.items():
            for scheme_name, pdb in pdbs.items():
                # close() drops backend handles only: the pool is the
                # process's (backends.shutdown)
                with Executor(
                    pdb, disk=env.disk, costs=env.cost_model, options=options
                ) as executor:
                    print(f"\n=== {qname} / {scheme_name} ===")
                    # run through a runner: it lowers every stage, so the
                    # physical plans are available alongside the actuals
                    runner = QueryRunner(executor)
                    result = fn(runner)
                    observe(qname, scheme_name, runner, result)
                    stages = zip(runner.physical_plans, runner.stage_metrics)
                    for stage, (pplan, stage_metrics) in enumerate(stages):
                        if len(runner.physical_plans) > 1:
                            print(f"-- stage {stage + 1}")
                        print(format_explain(executor, pplan, stage_metrics))
        sink.finish()
        return 0

    suite = run_suite(
        pdbs, env, queries=selected, options=options,
        observer=observe if sink.enabled else None,
    )
    sink.finish()
    if args.json:
        document = {
            "schema_version": SCHEMA_VERSION,
            "kind": "tpch_suite",
            "scale_factor": args.sf,
            "seed": args.seed,
            "schemes": names,
            "queries": sorted(selected),
            "workers": options.workers,
            "backend": options.backend,
            "records": sink.records or [],
        }
        print(json.dumps(document, sort_keys=True, indent=2))
        return 0
    print(suite.fig2_table())
    print()
    print(suite.fig3_table())
    if options.workers > 1:
        print()
        print(suite.parallel_table())
    if "plain" in pdbs and "bdcc" in pdbs:
        print(f"\nBDCC speedup over plain: {suite.speedup():.2f}x")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
