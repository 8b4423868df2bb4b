"""Command-line driver: ``python -m repro.workload [options]``.

Generates TPC-H data, builds the physical schemes, then sweeps ``N``
seeded random plans through every scheme x ablation variant against the
SQL reference.  Exits non-zero on any result divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List

from ..observe import SCHEMA_VERSION
from ..observe.sink import run_main
from ..serving import run_serving_differential, serving_trace
from ..tpch.driver import open_session, shared_flags
from .differential import (
    ablation_variants,
    run_differential,
    worker_count_variants,
)

__all__ = ["main"]


def _parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workload",
        description=(
            "Randomized differential testing: seeded random plans executed "
            "under Plain/PK/BDCC x the ablation grid, checked against a "
            "scheme-independent reference evaluator."
        ),
        parents=[
            shared_flags(
                streams=(
                    "the concurrent-serving differential — N generated "
                    "streams (plus --updates refresh rounds) are served, "
                    "then the recorded event log is replayed solo against "
                    "a pristine identical database; every served result "
                    "must match its pinned-epoch solo run bit-for-bit "
                    "(and the SQL reference)"
                )
            )
        ],
    )
    parser.set_defaults(sf=0.005)
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--queries", type=int, default=100, help="number of plans (default 100)")
    parser.add_argument("--datagen-seed", type=int, default=7, help="data generator seed")
    parser.add_argument(
        "--variants", choices=("all", "default"), default="all",
        help="'all' sweeps the ablation grid, 'default' runs only default options",
    )
    parser.add_argument(
        "--workers", default="",
        help=(
            "comma-separated worker counts to sweep (e.g. 1,2,4) on the "
            "--backend; parallel runs are additionally checked against the "
            "serial default run (the full ablation grid already includes 2 "
            "and 4); with --streams the first count is the pool size "
            "(default 4)"
        ),
    )
    parser.add_argument(
        "--updates", type=int, default=0, metavar="ROUNDS",
        help=(
            "make the sweep update-aware: ROUNDS seeded insert/delete "
            "batches committed through an UpdateSession, each followed by "
            "generated queries checked against the reference (which reads "
            "the shared logical database, so it sees every commit); with "
            "--streams the rounds run as a concurrent refresh stream"
        ),
    )
    parser.add_argument("--fail-fast", action="store_true", help="stop at the first divergence")
    parser.add_argument("--verbose", action="store_true", help="per-query progress")
    return parser.parse_args(argv)


def main(argv: List[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    counts = [int(n) for n in args.workers.split(",") if n.strip()]
    names, options, sink, env, build = open_session(
        args, datagen_seed=args.datagen_seed, workers=counts[0] if counts else 4
    )
    repro_flags = f"--sf {args.sf} --datagen-seed {args.datagen_seed}"
    started = time.time()

    if args.streams > 0:
        def progress(scheme: str, divergences: int) -> None:
            print(
                f"  {scheme}: served + replayed "
                f"({divergences} divergence(s) so far)",
                file=sys.stderr,
            )

        kind = "serving_differential"
        report = run_serving_differential(
            build,
            seed=args.seed,
            num_streams=args.streams,
            queries_per_stream=max(args.queries // args.streams, 1),
            refresh_rounds=args.updates,
            policy=args.policy,
            options=options,
            max_concurrent=args.max_concurrent,
            disk=env.disk,
            costs=env.cost_model,
            schemes=names,
            check_reference=True,
            fail_fast=args.fail_fast,
            progress=progress if args.verbose else None,
            repro_flags=repro_flags,
            observer=sink.served if sink.enabled else None,
        )
        if sink.builder is not None:
            for served in report.serving_reports.values():
                serving_trace(served, builder=sink.builder)
    else:
        def progress(done: int, total: int) -> None:
            if args.verbose or done % 25 == 0 or done == total:
                print(f"  {done}/{total} queries checked", file=sys.stderr)

        def observe(query, scheme, variant, executor, result) -> None:
            # --trace and --query-log capture *every* (scheme, variant)
            # execution; the --json record list keeps only the default
            # variant's (one per query x scheme) so the document stays
            # bounded
            sink.observe(
                f"q{query.index}/{scheme}/{variant}", result.metrics,
                pdb=executor.pdb, options=executor.options,
                plans=[executor.lower(query.plan)], relation=result.relation,
                stages=[result.metrics], collect=variant == "default",
            )

        variants = ablation_variants(full=args.variants == "all")
        variants.update(
            worker_count_variants(
                [n for n in counts if n > 1], backend=args.backend
            )
        )
        kind = "workload_differential"
        report = run_differential(
            build(),
            seed=args.seed,
            num_queries=args.queries,
            variants=variants,
            disk=env.disk,
            costs=env.cost_model,
            fail_fast=args.fail_fast,
            progress=progress,
            repro_flags=repro_flags,
            observer=observe if sink.enabled else None,
            update_rounds=args.updates,
        )
    sink.finish()
    if args.json:
        document = {
            "schema_version": SCHEMA_VERSION,
            "kind": kind,
            "report": report.to_dict(),
            "records": sink.records or [],
        }
        print(json.dumps(document, sort_keys=True, indent=2))
    else:
        print(report.render())
    print(f"({time.time() - started:.1f}s)", file=sys.stderr)
    return 0 if report.ok else 1


if __name__ == "__main__":
    run_main(main)
