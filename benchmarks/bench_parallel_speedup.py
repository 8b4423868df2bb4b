"""Parallel speedup: makespan vs worker count, scans and joins.

Runs the scan-heavy Q1/Q6 and the join-bearing Q3 under BDCC across
worker counts and prints resource-seconds vs makespan per count; for
Q1/Q6 it additionally prints the gather-then-aggregate path (partial
aggregation disabled) and for Q3 the broadcast-only path
(co-partitioning disabled) next to the default one.  Asserts the
invariants the subsystem promises:

* the makespan is monotonically non-increasing in the worker count for
  every reported query — joins included — while the disk has free
  parallel streams, and never regresses materially beyond them;
* Q1/Q6 reach >= 2x at 4 workers;
* Q1's two-phase aggregation reaches >= 3x at 4 workers and beats the
  gather-then-aggregate path by >= 1.3x there (Q1's serial tail —
  aggregating every gathered row on one worker — is the bottleneck the
  partial/merge rewrite removes);
* Q3's co-partitioned join reaches >= 1.5x at 4 workers and beats the
  broadcast-only path, whose build side serialises it.

Everything here is on the simulated clock, so the ledger record repeats
to the bit.  The real-process side lives where a host clock is judged:
bit-identity across backends in ``tests/parallel/test_backends.py``,
measured walls in the ``process_parallel`` workload of
``benchmarks/e2e``.

Usable standalone (CI runs ``python benchmarks/bench_parallel_speedup.py
--smoke``) — no pytest required.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.observe import SCHEMA_VERSION, history  # noqa: E402
from repro.planner.executor import ExecutionOptions, Executor  # noqa: E402
from repro.tpch.datagen import generate  # noqa: E402
from repro.tpch.environment import make_environment  # noqa: E402
from repro.tpch.harness import build_schemes  # noqa: E402
from repro.tpch.queries import QUERIES  # noqa: E402
from repro.tpch.runner import QueryRunner  # noqa: E402

WORKER_COUNTS = (1, 2, 4, 8)
SCAN_QUERIES = ("Q01", "Q06")  # scan-heavy: the headline >= 2x speedups
JOIN_QUERIES = ("Q03",)        # co-partitioned sandwich join vs broadcast


def _makespans(pdb, env, qname, copartition=True, partial_agg=True,
               counts=WORKER_COUNTS):
    spans = {}
    serial_total = None
    for workers in counts:
        executor = Executor(
            pdb, disk=env.disk, costs=env.cost_model,
            options=ExecutionOptions(
                workers=workers, enable_copartition=copartition,
                enable_partial_agg=partial_agg,
            ),
        )
        runner = QueryRunner(executor)
        QUERIES[qname](runner)
        spans[workers] = runner.metrics.makespan_seconds
        if workers == 1:
            serial_total = runner.metrics.total_seconds
    return spans, serial_total


def run(scale_factor: float, seed: int, json_mode: bool = False) -> int:
    print(f"generating TPC-H SF={scale_factor} (seed {seed}) ...", file=sys.stderr)
    db = generate(scale_factor=scale_factor, seed=seed)
    env = make_environment(scale_factor)
    pdb = build_schemes(db, env, include=["bdcc"])["bdcc"]
    streams = env.disk.parallel_streams

    lines = [
        f"parallel speedup (BDCC, SF={scale_factor}, "
        f"{streams} disk streams); wall = makespan ms",
        f"{'query':<14}" + "".join(f"{f'w={w} wall':>12}{f'w={w} x':>9}" for w in WORKER_COUNTS),
    ]
    failures = []
    # the structured twin of the text report: printed instead of it
    # under --json, and the source of the ledger record
    data = {
        "schema_version": SCHEMA_VERSION,
        "kind": "bench_parallel_speedup",
        "scale_factor": scale_factor,
        "seed": seed,
        "disk_streams": streams,
        "worker_counts": list(WORKER_COUNTS),
        "queries": {},
    }

    def check_monotone(qname, spans):
        counts = list(WORKER_COUNTS)
        for prev, cur in zip(counts, counts[1:]):
            slack = 1.02 if cur <= streams else 1.10
            if spans[cur] > spans[prev] * slack:
                failures.append(
                    f"{qname}: makespan rose {spans[prev] * 1e3:.3f} -> "
                    f"{spans[cur] * 1e3:.3f} ms going {prev} -> {cur} workers"
                )

    def report_row(label, spans, serial_total):
        row = f"{label:<14}"
        for workers in WORKER_COUNTS:
            row += (
                f"{spans[workers] * 1e3:12.3f}"
                f"{serial_total / spans[workers]:9.2f}"
            )
        lines.append(row)
        data["queries"][label] = {
            "serial_total_seconds": serial_total,
            "makespan_seconds": {str(w): spans[w] for w in WORKER_COUNTS},
            "speedup": {str(w): serial_total / spans[w] for w in WORKER_COUNTS},
        }

    for qname in SCAN_QUERIES:
        spans, serial_total = _makespans(pdb, env, qname)
        # a serial plan never rewrites, so the w=1 run is shared
        gather, _ = _makespans(
            pdb, env, qname, partial_agg=False,
            counts=[w for w in WORKER_COUNTS if w > 1],
        )
        gather[1] = spans[1]
        report_row(qname, spans, serial_total)
        report_row(f"{qname} (gather)", gather, serial_total)
        check_monotone(qname, spans)
        if spans[4] >= spans[1] / 2:
            failures.append(
                f"{qname}: 4 workers reached only "
                f"{spans[1] / spans[4]:.2f}x over 1 worker"
            )
        if qname == "Q01":
            partial_x = serial_total / spans[4]
            over_gather = gather[4] / spans[4]
            if partial_x < 3.0:
                failures.append(
                    f"Q01: two-phase aggregation reached only "
                    f"{partial_x:.2f}x at 4 workers (expected >= 3.0x)"
                )
            if over_gather < 1.3:
                failures.append(
                    f"Q01: partial aggregation beat gather-then-aggregate "
                    f"by only {over_gather:.2f}x at 4 workers "
                    "(expected >= 1.3x)"
                )

    for qname in JOIN_QUERIES:
        spans, serial_total = _makespans(pdb, env, qname)
        # a serial plan cannot co-partition, so reuse the w=1 run above
        broadcast, _ = _makespans(
            pdb, env, qname, copartition=False,
            counts=[w for w in WORKER_COUNTS if w > 1],
        )
        broadcast[1] = spans[1]
        report_row(qname, spans, serial_total)
        report_row(f"{qname} (bcast)", broadcast, serial_total)
        check_monotone(qname, spans)
        copart_x = serial_total / spans[4]
        broadcast_x = serial_total / broadcast[4]
        if copart_x < 1.5:
            failures.append(
                f"{qname}: co-partitioned join reached only {copart_x:.2f}x "
                "at 4 workers (expected >= 1.5x)"
            )
        if copart_x <= broadcast_x:
            failures.append(
                f"{qname}: co-partition ({copart_x:.2f}x) did not beat the "
                f"broadcast-only path ({broadcast_x:.2f}x) at 4 workers"
            )

    data["failures"] = list(failures)
    data["ok"] = not failures
    report = "\n".join(lines)

    history.append_record(
        "parallel_speedup",
        history.flatten_metrics({"queries": data["queries"], "ok": data["ok"]}),
        meta={"scale_factor": scale_factor, "seed": seed},
        directory=pathlib.Path(__file__).resolve().parent.parent,
    )

    print(json.dumps(data, sort_keys=True, indent=2) if json_mode else report)
    if failures:
        print("\nFAIL:\n" + "\n".join(f"  - {f}" for f in failures), file=sys.stderr)
        return 1
    print("\nmakespan monotone non-increasing in worker count: PASS", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small scale factor for CI (default uses REPRO_SF or 0.02)",
    )
    parser.add_argument("--sf", type=float, default=None)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--json", action="store_true",
        help="print the structured JSON report instead of the text table "
             "(either way the metrics are appended to the BENCH_*.json ledgers)",
    )
    args = parser.parse_args(argv)
    scale_factor = args.sf
    if scale_factor is None:
        scale_factor = 0.01 if args.smoke else float(os.environ.get("REPRO_SF", "0.02"))
    return run(scale_factor, args.seed, json_mode=args.json)


if __name__ == "__main__":
    raise SystemExit(main())
