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
import json
import sys
from typing import List, Optional

from ..observe import SCHEMA_VERSION, QueryLog, TraceBuilder, build_record
from ..planner.executor import ExecutionOptions, Executor
from ..planner.explain import format_parallel_plan, format_physical_plan
from .datagen import generate
from .environment import make_environment
from .harness import build_schemes, run_suite
from .queries import QUERIES
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


class ObservabilitySink:
    """Fans one finished query out to the enabled sinks: the trace
    builder (``--trace``), the JSONL query log (``--query-log``) and an
    in-memory record list (``--json``)."""

    def __init__(
        self,
        trace_path: Optional[str],
        query_log_path: Optional[str],
        collect: bool,
        options: ExecutionOptions,
    ):
        self.trace_path = trace_path
        self.builder = TraceBuilder() if trace_path else None
        self.query_log = QueryLog(query_log_path) if query_log_path else None
        self.records: Optional[List[dict]] = [] if collect else None
        self.options = options

    @property
    def enabled(self) -> bool:
        return bool(self.builder or self.query_log or self.records is not None)

    def observe(self, qname: str, sname: str, runner, result) -> None:
        label = f"{qname}/{sname}"
        if self.builder is not None:
            stages = runner.stage_metrics
            for position, stage in enumerate(stages):
                stage_label = (
                    label if len(stages) == 1
                    else f"{label} stage {position + 1}"
                )
                self.builder.add_execution(stage_label, stage)
        if self.query_log is not None or self.records is not None:
            record = build_record(
                label,
                runner.metrics,
                pdb=runner.executor.pdb,
                scheme=sname,
                options=self.options,
                plans=runner.physical_plans,
                relation=result.relation,
            )
            if self.query_log is not None:
                self.query_log.write(record)
            if self.records is not None:
                self.records.append(record)

    def finish(self) -> None:
        if self.builder is not None:
            self.builder.write(self.trace_path)
        if self.query_log is not None:
            self.query_log.close()


def _parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tpch",
        description="Run the BDCC reproduction's TPC-H evaluation.",
    )
    parser.add_argument("--sf", type=float, default=0.01, help="scale factor (default 0.01)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--schemes", default="plain,pk,bdcc",
        help="comma-separated subset of plain,pk,bdcc",
    )
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
        "--backend", choices=("simulated", "process"), default="simulated",
        help=(
            "where parallel fragments execute: 'simulated' (in-process, "
            "deterministic scheduler; the default) or 'process' (a real "
            "multiprocessing pool over shared-memory column exports — "
            "bit-identical results, with measured wall clock reported "
            "next to the simulated charges)"
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
    parser.add_argument(
        "--streams", type=int, default=0, metavar="N",
        help=(
            "TPC-H throughput test: serve N concurrent closed-loop query "
            "streams (each a deterministic rotation of the selected "
            "queries) through the multi-query serving layer on the shared "
            "worker pool, reporting per-stream latency percentiles and "
            "aggregate QPS; combine with --refresh for concurrent RF1/RF2 "
            "commits under MVCC snapshot reads"
        ),
    )
    parser.add_argument(
        "--policy", choices=("fifo", "round-robin", "shortest"),
        default="fifo",
        help="admission (fairness) policy for --streams (default fifo)",
    )
    parser.add_argument(
        "--max-concurrent", type=int, default=None, metavar="M",
        help=(
            "multiprogramming limit for --streams: at most M queries in "
            "flight at once (default: the worker count)"
        ),
    )
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help=(
            "write a Chrome trace-event JSON timeline of every execution "
            "(workers as lanes, fragments as slices, exchanges as flow "
            "arrows; open in https://ui.perfetto.dev)"
        ),
    )
    parser.add_argument(
        "--query-log", metavar="FILE", default=None,
        help=(
            "append one schema-validated JSONL record per query "
            "(plan fingerprint, options, epochs, actuals, timeline)"
        ),
    )
    parser.add_argument(
        "--json", action="store_true",
        help=(
            "print a machine-readable JSON document (query-log record "
            "shape) instead of the text tables"
        ),
    )
    parser.add_argument(
        "--profile", action="store_true",
        help=(
            "run every fragment under cProfile and attach the top "
            "functions to query-log records and trace slices (passive: "
            "simulated charges and results are unchanged)"
        ),
    )
    return parser.parse_args(argv)


def _run_serving(args, pdbs, env, selected, options, sink) -> int:
    """The ``--streams N`` throughput test: N rotated closed-loop query
    streams (plus an optional RF1/RF2 refresh stream) per scheme through
    the serving layer."""
    from ..observe import build_record
    from ..serving import (
        PlanListStream,
        ServingEngine,
        TpchRefreshStream,
        capture_tpch_items,
        serving_trace,
    )

    documents = {}
    trace_builder = None
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

        observer = None
        if sink.query_log is not None or sink.records is not None:
            def observer(record, sname=sname, pdb=pdb):
                log_record = build_record(
                    f"{record.description}/{sname}/{record.stream}",
                    record.metrics,
                    pdb=pdb,
                    scheme=sname,
                    options=options,
                    relation=record.relation,
                )
                if sink.query_log is not None:
                    sink.query_log.write(log_record)
                if sink.records is not None:
                    sink.records.append(log_record)

        with ServingEngine(
            pdb, disk=env.disk, costs=env.cost_model, options=options,
            policy=args.policy, max_concurrent=args.max_concurrent,
            keep_results=False,
        ) as engine:
            report = engine.serve(streams, refresh, observer=observer)
        documents[sname] = report.to_dict()
        if sink.builder is not None:
            trace_builder = serving_trace(report, builder=trace_builder)
        if not args.json:
            print(report.render())
            print()
    if trace_builder is not None:
        trace_builder.write(sink.trace_path)
    if sink.query_log is not None:
        sink.query_log.close()
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
    names = [s.strip() for s in args.schemes.split(",") if s.strip()]
    if args.queries == "all":
        selected = dict(QUERIES)
    else:
        wanted = [normalize_query_id(q) for q in args.queries.split(",") if q.strip()]
        unknown = [q for q in wanted if q not in QUERIES]
        if unknown:
            print(f"unknown queries: {unknown}", file=sys.stderr)
            return 2
        selected = {q: QUERIES[q] for q in wanted}

    options = ExecutionOptions(
        enable_sandwich=not args.no_sandwich,
        enable_pushdown=not args.no_pushdown,
        workers=max(args.workers, 1),
        backend=args.backend,
        profile=args.profile,
    )
    sink = ObservabilitySink(
        args.trace, args.query_log, collect=args.json, options=options
    )

    print(f"generating TPC-H SF={args.sf} (seed {args.seed}) ...", file=sys.stderr)
    db = generate(scale_factor=args.sf, seed=args.seed)
    env = make_environment(args.sf)
    pdbs = build_schemes(db, env, include=names)

    if args.streams > 0:
        return _run_serving(args, pdbs, env, selected, options, sink)

    if args.refresh > 0:
        from .refresh import run_refresh_suite

        result = run_refresh_suite(
            pdbs, env, pairs=args.refresh, seed=args.seed
        )
        print(result.render())
        return 0

    if args.design:
        from ..core.advisor import SchemaAdvisor
        from ..core.report import design_report

        advisor = SchemaAdvisor(db.schema, env.advisor_config())
        design = advisor.design(db)
        built = advisor.build(db, design)
        print(design_report(design, built))
        return 0

    if args.explain:
        for qname, fn in selected.items():
            for scheme_name, pdb in pdbs.items():
                # context-managed: a process-backend executor holds a
                # worker pool and shared-memory blocks to release
                with Executor(
                    pdb, disk=env.disk, costs=env.cost_model, options=options
                ) as executor:
                    print(f"\n=== {qname} / {scheme_name} ===")
                    # run through a runner: it lowers every stage, so the
                    # physical plans are available alongside the actuals
                    runner = QueryRunner(executor)
                    result = fn(runner)
                    if sink.enabled:
                        sink.observe(qname, scheme_name, runner, result)
                    for stage, pplan in enumerate(runner.physical_plans):
                        if len(runner.physical_plans) > 1:
                            print(f"-- stage {stage + 1}")
                        stage_metrics = runner.stage_metrics[stage]
                        parallel = executor.execution_plan(pplan)
                        if parallel.is_parallel:
                            print(format_parallel_plan(parallel, metrics=stage_metrics))
                        else:
                            print(format_physical_plan(pplan, metrics=stage_metrics))
                    print(
                        "cost: %.3f ms simulated, peak memory %.3f MB, %d rows"
                        % (
                            runner.metrics.total_seconds * 1e3,
                            runner.metrics.peak_memory_bytes / 1e6,
                            result.relation.num_rows,
                        )
                    )
                    # single-stage queries already printed the same
                    # number inside the fragment view above
                    if (
                        runner.metrics.measured_wall_seconds > 0.0
                        and len(runner.stage_metrics) > 1
                    ):
                        print(
                            "measured: %.3f ms wall on the %s backend"
                            % (
                                runner.metrics.measured_wall_seconds * 1e3,
                                runner.metrics.backend,
                            )
                        )
                    for note in runner.metrics.notes:
                        print(f"  - {note}")
        sink.finish()
        return 0

    suite = run_suite(
        pdbs, env, queries=selected, options=options,
        observer=sink.observe if sink.enabled else None,
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
