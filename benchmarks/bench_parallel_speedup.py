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

A final cost-model validation stage re-runs Q1/Q6/Q3 on the *process*
backend (a real multiprocessing pool over shared-memory column exports)
and regresses the simulated makespans against the measured wall clocks:
results must be bit-identical across backends, and the Pearson
correlation of simulated-vs-measured is reported.  Measured-speedup
assertions are gated on the host's core count — a single-core container
physically cannot show wall-clock speedup, and the report says so
instead of pretending.

Usable standalone (CI runs ``python benchmarks/bench_parallel_speedup.py
--smoke``) — no pytest required.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

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
VALIDATION_QUERIES = ("Q01", "Q06", "Q03")
VALIDATION_WORKERS = (2, 4)
VALIDATION_REPEATS = 3


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


def _timed_query(executor, qname, repeats):
    """Best-of-``repeats`` execution: (relation, merged metrics, wall s)."""
    best = None
    for _ in range(repeats):
        runner = QueryRunner(executor)
        started = time.perf_counter()
        result = QUERIES[qname](runner)
        wall = time.perf_counter() - started
        if best is None or wall < best[2]:
            best = (result.relation, runner.metrics, wall)
    return best


def _identical(a, b):
    """Bit-for-bit relation equality (NaN pairs count as equal)."""
    if a.column_names != b.column_names or a.num_rows != b.num_rows:
        return False
    for name in a.column_names:
        left, right = a.column(name), b.column(name)
        equal = (
            np.array_equal(left, right, equal_nan=True)
            if left.dtype.kind == "f" and right.dtype.kind == "f"
            else np.array_equal(left, right)
        )
        if not equal:
            return False
    return True


def validate_backends(pdb, env, lines, failures, repeats=VALIDATION_REPEATS,
                      data=None):
    """Run the validation queries on the process backend and regress the
    simulated makespans against the measured wall clocks.

    Wall measurements are best-of-``repeats`` whole-query timings; the
    correlation uses the backend's own fragment wall
    (``measured_wall_seconds``), which is the quantity the simulated
    makespan models.  Measured-speedup assertions only arm on hosts with
    enough cores to make speedup physically possible."""
    cores = os.cpu_count() or 1
    lines.append("")
    lines.append(
        "cost-model validation: process backend vs simulated charges "
        f"({cores} core(s), best of {repeats} runs)"
    )
    lines.append(
        f"{'query':<8}{'w':>3}{'sim makespan ms':>17}{'measured ms':>13}"
        f"{'measured x':>12}{'identical':>11}"
    )
    serial_walls = {}
    points = []
    executors = []
    try:
        serial_ex = Executor(
            pdb, disk=env.disk, costs=env.cost_model,
            options=ExecutionOptions(workers=1),
        )
        executors.append(serial_ex)
        for qname in VALIDATION_QUERIES:
            serial_walls[qname] = _timed_query(serial_ex, qname, repeats)[2]
        for workers in VALIDATION_WORKERS:
            sim_ex = Executor(
                pdb, disk=env.disk, costs=env.cost_model,
                options=ExecutionOptions(workers=workers, min_partition_rows=256),
            )
            # one process executor per worker count: the pool and the
            # shared-memory exports are reused across the three queries
            proc_ex = Executor(
                pdb, disk=env.disk, costs=env.cost_model,
                options=ExecutionOptions(
                    workers=workers, min_partition_rows=256, backend="process"
                ),
            )
            executors.extend([sim_ex, proc_ex])
            for qname in VALIDATION_QUERIES:
                sim_rel, sim_metrics, _ = _timed_query(sim_ex, qname, 1)
                proc_rel, proc_metrics, proc_wall = _timed_query(
                    proc_ex, qname, repeats
                )
                identical = _identical(sim_rel, proc_rel)
                if not identical:
                    failures.append(
                        f"{qname} w={workers}: process-backend result is not "
                        "bit-identical to the simulated backend's"
                    )
                if proc_metrics.backend != "process":
                    failures.append(
                        f"{qname} w={workers}: expected process-backend "
                        f"metrics, got {proc_metrics.backend!r}"
                    )
                measured = proc_metrics.measured_wall_seconds
                speedup = serial_walls[qname] / proc_wall
                points.append((sim_metrics.makespan_seconds, measured))
                if data is not None:
                    data["validation"].append(
                        {
                            "query": qname,
                            "workers": workers,
                            "simulated_makespan_seconds": sim_metrics.makespan_seconds,
                            "measured_wall_seconds": measured,
                            "best_wall_seconds": proc_wall,
                            "measured_speedup": speedup,
                            "identical": identical,
                        }
                    )
                lines.append(
                    f"{qname:<8}{workers:>3}"
                    f"{sim_metrics.makespan_seconds * 1e3:>17.3f}"
                    f"{measured * 1e3:>13.3f}"
                    f"{speedup:>12.2f}"
                    f"{'yes' if identical else 'NO':>11}"
                )
                if qname == "Q06" and workers == 4:
                    if cores >= 4 and speedup <= 1.0:
                        failures.append(
                            f"Q06: measured speedup {speedup:.2f}x at 4 "
                            f"workers on a {cores}-core host (expected > 1)"
                        )
    finally:
        for executor in executors:
            executor.close()
    simulated = np.array([p[0] for p in points])
    measured = np.array([p[1] for p in points])
    if len(points) >= 2 and simulated.std() > 0 and measured.std() > 0:
        r = float(np.corrcoef(simulated, measured)[0, 1])
        if data is not None:
            data["pearson_r"] = r
        lines.append(
            f"simulated-makespan vs measured-wall Pearson r = {r:.3f} "
            f"over {len(points)} parallel plans"
        )
    if cores < 4:
        lines.append(
            f"note: {cores}-core host — measured wall-clock speedup > 1 is "
            "physically unattainable here (fragments serialise on the one "
            "core and walls are dominated by dispatch/IPC overhead, so the "
            "correlation is informational only); measured-speedup "
            "assertions are disarmed, while simulated charges and "
            "bit-identical results are still enforced"
        )


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
    # under --json, and the source of the ledger records
    repo_root = pathlib.Path(__file__).resolve().parent.parent
    data = {
        "schema_version": SCHEMA_VERSION,
        "kind": "bench_parallel_speedup",
        "scale_factor": scale_factor,
        "seed": seed,
        "git_sha": history.current_git_sha(str(repo_root)),
        "timestamp_utc": history.utc_timestamp(),
        "host": history.host_fingerprint(),
        "disk_streams": streams,
        "cores": os.cpu_count() or 1,
        "worker_counts": list(WORKER_COUNTS),
        "queries": {},
        "validation": [],
        "pearson_r": None,
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

    validate_backends(pdb, env, lines, failures, data=data)

    data["failures"] = list(failures)
    data["ok"] = not failures
    report = "\n".join(lines)

    # --- history ledgers: the speedup trajectory (simulated, hence
    # deterministic and tightly gateable) and the cost-model drift
    # trajectory (simulated-vs-measured residuals; measured walls are
    # host-sensitive, so the host's core count joins the meta and the
    # sentinel applies its wide measured-class bands).
    provenance = dict(
        directory=repo_root,
        git_sha=data["git_sha"],
        timestamp=data["timestamp_utc"],
        host=data["host"],
    )
    history.append_record(
        "parallel_speedup",
        history.flatten_metrics(
            {k: data[k] for k in ("queries", "pearson_r", "ok") if data[k] is not None}
        ),
        meta={"scale_factor": scale_factor, "seed": seed},
        **provenance,
    )
    drift = history.residual_stats(
        [
            (v["simulated_makespan_seconds"], v["measured_wall_seconds"])
            for v in data["validation"]
        ]
    )
    drift["ok"] = float(data["ok"])
    history.append_record(
        "cost_model",
        drift,
        meta={
            "scale_factor": scale_factor, "seed": seed, "cores": data["cores"],
        },
        **provenance,
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
