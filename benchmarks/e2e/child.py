"""One measurement in one fresh process; ``run.py`` starts these.

``--mode setup``   set-up only: one more fresh-process ``setup_s`` sample.
``--mode timed``   set-up -> verify pass -> timed passes, tracing off:
                   the end-to-end metrics.
``--mode traced``  set-up -> verify pass -> untraced passes -> the same
                   passes with every layer spanned: the per-layer metrics
                   and ``out/trace-<workload>.json``.

The last line of standard output is one JSON object.
"""

import time

_STARTED = time.perf_counter()  # set-up is timed from here, imports included

import argparse
import gc
import json
import os
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(HERE, os.pardir, os.pardir, "src")]


def noise(values) -> float:
    """How far the median over passes can be trusted: the distance
    between the quartiles of the per-pass values over the root of their
    number (roughly the median's standard error), as a share of it."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / len(values) ** 0.5 / statistics.median(values)


def metric(value, unit, values=None) -> dict:
    entry = {"value": float(value), "unit": unit}
    if values is not None:
        entry["noise"] = noise(values)
    return entry


def over_passes(per_pass, unit) -> dict:
    return metric(statistics.median(per_pass), unit, per_pass)


def usage() -> dict:
    own = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "host.cpu_user_s": metric(own.ru_utime, "s"),
        "host.cpu_sys_s": metric(own.ru_stime, "s"),
        "host.minor_faults": metric(own.ru_minflt, "count"),
    }


def queries_per_s(done) -> list:
    return [len(p.host_s) / p.wall_s for p in done]


def end_to_end(np, workload, done) -> dict:
    """Host metrics: per pass, then the median over passes (passes
    replay the same ops, so a disturbed pass is outvoted instead of
    poisoning a pooled tail).  Simulated metrics: exact."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    sim_ms = [s * 1e3 for p in done for s in p.sim_s]
    return {
        "queries_per_s": over_passes(queries_per_s(done), "1/s"),
        "query_p50_ms": over_passes(
            [np.percentile(p.host_s, 50) * 1e3 for p in done], "ms"),
        "query_p95_ms": over_passes(
            [np.percentile(p.host_s, 95) * 1e3 for p in done], "ms"),
        "peak_rss_mb": metric(max(own, workers) / 1024.0, "MB"),
        "sim_wall_s": metric(
            statistics.fmean(p.tally["sim_wall_s"] for p in done), "s"),
        "sim_query_p50_ms": metric(np.percentile(sim_ms, 50), "ms"),
        "sim_query_p95_ms": metric(np.percentile(sim_ms, 95), "ms"),
        "sim_peak_mem_mb": metric(workload.sim_peak_mem / 1e6, "MB"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--golden-dir", default=os.path.join(HERE, "golden"))
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args()

    import numpy as np

    import spans
    import workloads as W

    import_s = time.perf_counter() - _STARTED
    traced = args.mode == "traced"
    rec = spans.Recorder()
    workload = W.WORKLOADS[args.workload](args.seed, args.quick)
    workload.setup(rec, split_advisor=traced)
    setup_s = time.perf_counter() - _STARTED
    setup_spans = spans.by_name(rec.spans)

    def phase(name: str) -> dict:
        return metric(sum(setup_spans.get(name, {}).get("durations", [])), "s")

    out = {
        "workload": args.workload, "seed": args.seed, "mode": args.mode,
        "setup_s": setup_s,
        # the layers set-up passes through; printed beside every setup_s
        # sample because kernel time, not python, is what makes it swing
        "setup": {
            "repro.import_s": metric(import_s, "s"),
            "tpch.datagen.generate_s": phase("tpch.datagen.generate"),
            "schemes.plain.build_s": phase("schemes.plain.build"),
            "schemes.pk.build_s": phase("schemes.pk.build"),
            "schemes.bdcc.build_s": phase("schemes.bdcc.build"),
            "serving.streams.capture_s": phase("serving.streams.capture"),
            **usage(),
        },
    }
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    ops = W.Ops()
    golden = W.Golden(args.golden_dir, workload.sf, args.seed, args.write_golden)
    started = time.perf_counter()
    workload.verify(ops, golden, rec)
    verify_s = time.perf_counter() - started
    # what set-up and the verify pass left behind lives until exit; keep
    # the cyclic collector from walking it during the timed passes
    gc.collect()
    gc.freeze()

    def run(count: int, first: int, recorder=None) -> list:
        done = []
        for index in range(first, first + count):
            one = workload.run_pass(recorder, index)
            workload.check_pass(one, ops, golden, index)
            one.results = []  # checked; do not hold every pass's results
            gc.collect()  # between passes, so that none pays for another's garbage
            if one.sim_s:  # a pass that completed nothing has no numbers
                done.append(one)
        if not done:
            raise SystemExit(f"{args.workload}: no pass completed a query")
        return done

    count = workload.passes(args.seconds)
    if not traced:
        done = run(count, 0)
        out["end_to_end"] = end_to_end(np, workload, done)
        out["samples"] = {
            "passes": len(done), "queries": sum(len(p.host_s) for p in done)
        }
    else:
        # half the passes untraced, half traced, in one process: their
        # ratio is what the benchmark's own spans cost
        untraced = run(max(1, count // 2), 0)
        workload.start_tracing(rec)
        first_span = len(rec.spans)
        before = W.REGISTRY.snapshot()["counters"]
        done = run(max(1, count // 2), count, rec)
        after = W.REGISTRY.snapshot()["counters"]
        os.makedirs(W.OUT_DIR, exist_ok=True)
        tracer_overhead = workload.tracer_overhead()
        spans.write_chrome_trace(
            rec.spans, f"benchmarks/e2e {args.workload} seed={args.seed}",
            os.path.join(W.OUT_DIR, f"trace-{args.workload}.json"),
        )
        out["per_layer"] = {
            **{k: v for k, v in out["setup"].items() if not k.startswith("host.")},
            **layer_metrics(
                np, workload, spans.by_name(rec.spans, first_span),
                spans.by_name(rec.spans[:first_span]), done,
                {k: after.get(k, 0.0) - before.get(k, 0.0) for k in after},
            ),
            "observe.tracer_overhead_share": metric(tracer_overhead, "share"),
            "bench.trace_overhead_share": metric(
                1.0 - statistics.median(queries_per_s(done))
                / statistics.median(queries_per_s(untraced)), "share"),
            "bench.verify_s": metric(verify_s, "s"),
            **usage(),
        }
    workload.close()
    if args.write_golden:
        golden.save()
    out.update(
        ops_attempted=ops.attempted, ops_failed=ops.failed, failures=ops.failures
    )
    print(json.dumps(out))
    return 0


def layer_metrics(np, workload, by_name, before, done, registry) -> dict:
    """Per-layer numbers of the traced passes: span percentiles and self
    time shares (host clock), simulated sums per pass (exact).
    ``before`` groups the spans of set-up and the verify pass."""
    wall = sum(p.wall_s for p in done)
    passes = len(done)

    def seconds(name: str, kind: str = "durations", spans=by_name) -> list:
        return spans.get(name, {}).get(kind, [])

    def ms(name: str, q: float, spans=by_name, unit: str = "ms") -> dict:
        values = seconds(name, spans=spans)
        scale = 1e3 if unit == "ms" else 1.0
        return metric(np.percentile(values, q) * scale if values else 0.0, unit)

    def share(*names: str) -> dict:
        return metric(sum(sum(seconds(n, "self")) for n in names) / wall, "share")

    def tally(key: str) -> float:
        return sum(p.tally.get(key, 0.0) for p in done)

    def per_pass(key: str, unit: str, scale: float = 1.0) -> dict:
        return metric(tally(key) / passes * scale, unit)

    def ratio(above: float, below: float, unit: str = "ratio") -> dict:
        return metric(above / below if below else 0.0, unit)

    def sample_ms(key: str) -> dict:
        values = [s for p in done for s in p.samples.get(key, [])]
        return metric(np.percentile(values, 50) * 1e3 if values else 0.0, "ms")

    def hit_rate(cache: str) -> dict:
        hits = registry.get(f"{cache}.hits", 0.0)
        return ratio(hits, hits + registry.get(f"{cache}.misses", 0.0), "share")

    def stored_bytes(scheme: str) -> float:
        pdb = workload.pdbs.get(scheme)
        return sum(t.total_bytes() for t in pdb.stored.values()) if pdb else 0.0

    queries = sum(len(p.host_s) for p in done)
    running = (
        "execution.operators.run", "parallel.scheduler.execute_fragments",
        "parallel.backends.run",
    )
    return {
        "tpch.datagen.rows": metric(
            sum(workload.db.num_rows(t) for t in workload.db.loaded_tables), "count"),
        "core.advisor.design_s": metric(
            sum(seconds("core.advisor.design", spans=before)), "s"),
        "core.advisor.build_tables_s": metric(
            sum(seconds("core.advisor.build", spans=before)), "s"),
        "storage.stored_mb.bdcc": metric(stored_bytes("bdcc") / 1e6, "MB"),
        "storage.bdcc_bytes_over_plain": ratio(
            stored_bytes("bdcc"), stored_bytes("plain")),
        "planner.lowering.lower_ms_p50": ms("planner.lowering.lower", 50),
        "planner.lowering.lower_ms_p95": ms("planner.lowering.lower", 95),
        "planner.lowering.busy_share": share("planner.lowering.lower"),
        "planner.lowering.plans": metric(
            registry.get("plan_cache.misses", 0.0) / passes, "count"),
        "planner.executor.plan_cache_hit_rate": hit_rate("plan_cache"),
        "planner.executor.fragment_cache_hit_rate": hit_rate("fragment_cache"),
        "parallel.fragments.plan_ms_p50": ms("parallel.fragments.plan", 50),
        "parallel.fragments.busy_share": share("parallel.fragments.plan"),
        "parallel.fragments.fragments_per_query": ratio(
            tally("fragments"), queries, "count"),
        "parallel.fragments.parallel_share": ratio(
            tally("parallel_queries"), queries, "share"),
        "execution.operators.run_ms_p50": ms("execution.operators.run", 50),
        "execution.operators.run_ms_p95": ms("execution.operators.run", 95),
        "execution.operators.busy_share": share("execution.operators.run"),
        # host time per simulated event, over every span that runs operators
        "execution.operators.rows_scanned_per_host_s": ratio(
            tally("rows_scanned"), sum(sum(seconds(n)) for n in running), "1/s"),
        "parallel.scheduler.execute_ms_p50": ms(
            "parallel.scheduler.execute_fragments", 50),
        "parallel.scheduler.merge_ms_p50": ms("parallel.scheduler.merge", 50),
        "parallel.scheduler.busy_share": share(
            "parallel.scheduler.execute_fragments", "parallel.scheduler.merge"),
        "parallel.scheduler.sim_speedup": ratio(
            tally("sim_total_s"), tally("sim_wall_s")),
        "parallel.backends.run_ms_p50": ms("parallel.backends.run", 50),
        "parallel.backends.first_start_ms_p50": sample_ms("first_start"),
        "parallel.backends.worker_busy_share": ratio(
            tally("worker_busy_s"), tally("worker_capacity_s"), "share"),
        "parallel.backends.tail_ms_p50": sample_ms("tail"),
        # Executor.close is spanned on every cold executor; it is the
        # backend's only where a pool ran
        "parallel.backends.close_ms_p50": (
            ms("parallel.backends.close", 50) if seconds("parallel.backends.run")
            else metric(0.0, "ms")),
        "updates.session.commit_ms_p50": ms("updates.session.commit", 50),
        "updates.session.commit_ms_p90": ms("updates.session.commit", 90),
        "updates.session.rows_per_commit": ratio(
            tally("commit_rows"), tally("commits"), "count"),
        "updates.compaction.runs": per_pass("compactions", "count"),
        "updates.compaction.sim_s": per_pass("sim_compaction_s", "s"),
        "updates.delta_rows_scanned": per_pass("delta_rows_scanned", "count"),
        "tpch.refresh.generate_ms_p50": ms("tpch.refresh.generate", 50),
        "serving.engine.serve_s_p50": ms("serving.engine.serve", 50, unit="s"),
        "serving.engine.loop_share": share("serving.engine.serve"),
        "serving.sim_utilization": ratio(
            tally("sim_busy_s"), workload.options.workers * tally("sim_wall_s"), "share"),
        "serving.sim_queue_ms_mean": ratio(tally("sim_queue_s") * 1e3, queries, "ms"),
        # the tallies above exist only where an engine served; this one does not
        "serving.sim_qps": ratio(
            queries if tally("sim_busy_s") else 0, tally("sim_wall_s"), "1/s"),
        "execution.cost.sim_cpu_s": per_pass("sim_cpu_s", "s"),
        "storage.io_model.sim_io_s": per_pass("sim_io_s", "s"),
        "storage.io_model.io_mb": per_pass("io_bytes", "MB", 1e-6),
        "storage.io_model.io_accesses": per_pass("io_accesses", "count"),
        "execution.sim_rows_scanned": per_pass("rows_scanned", "count"),
        "execution.sim_total_s.plain": per_pass("sim_total_s.plain", "s"),
        "execution.sim_total_s.pk": per_pass("sim_total_s.pk", "s"),
        "execution.sim_total_s.bdcc": per_pass("sim_total_s.bdcc", "s"),
        # the paper's Fig. 2/3 ratios at SF 100: 2.22, 1.73, 22.7
        "execution.cost.sim_time_plain_over_bdcc": ratio(
            tally("sim_total_s.plain"), tally("sim_total_s.bdcc")),
        "execution.cost.sim_time_pk_over_bdcc": ratio(
            tally("sim_total_s.pk"), tally("sim_total_s.bdcc")),
        "execution.cost.sim_mem_plain_over_bdcc": ratio(
            tally("sim_peak_sum.plain"), tally("sim_peak_sum.bdcc")),
        "workload.generator.generate_ms_p50": ms(
            "workload.generator.plan", 50, before),
        "workload.reference.eval_ms_p50": ms("workload.reference.eval", 50, before),
    }


if __name__ == "__main__":
    sys.exit(main())
