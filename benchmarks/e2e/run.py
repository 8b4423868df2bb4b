"""Two-clock end-to-end benchmark: the command ``BENCHMARK.json`` names.

    python3 benchmarks/e2e/run.py                         every workload, both runs
    python3 benchmarks/e2e/run.py --workload paper_suite --json out.json
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py --compare A.json B.json

With ``--trace`` it makes one measurement of one workload and ends with
one JSON line (``--trace 0``: the end-to-end metrics, tracing off;
``--trace 1``: the per-layer metrics of a separate traced run).  Without
it, it makes both measurements of every selected workload and prints
every metric by name.  Either way it exits non-zero if an operation
failed.  This process only starts children (``child.py``) and reads
their last line, so what it measures always ran in a fresh process.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, os.pardir, os.pardir, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DEFAULT_SEED = 7
#: fresh-process set-up samples behind one ``setup_s``
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170


def child(workload: str, mode: str, args) -> dict:
    """Run ``child.py`` to its end and return its last line."""
    command = [
        sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
        "--mode", mode, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--golden-dir", args.golden_dir,
    ]
    command += ["--quick"] * args.quick + ["--write-golden"] * args.write_golden
    # one thread per process: the load comes from the benchmark, not from
    # a BLAS pool; a fixed hash seed keeps set iteration, and with it
    # float summation order, the same from run to run
    env = dict(
        os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
    )
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=env, start_new_session=True
    )
    try:
        output, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)  # the child and its pool
        process.wait()
        raise SystemExit(f"{workload} ({mode}): no result in {CHILD_TIMEOUT_S} s")
    if process.returncode != 0:
        raise SystemExit(f"{workload} ({mode}): child exited {process.returncode}")
    return json.loads(output.strip().splitlines()[-1])


def measure(workload: str, trace: bool, args) -> dict:
    """One measurement: the child's document with its metrics checked
    against ``BENCHMARK.json`` under ``"metrics"``."""
    if trace:
        doc = child(workload, "traced", args)
        metrics, listed = doc["per_layer"], SPEC["per_layer"]
    else:
        # set-up is sampled in several fresh processes and the *minimum*
        # kept: identical processes alternate between ~1.5 s and ~2.2-2.7 s
        # at SF 0.05 on the same user CPU and the same page-fault count,
        # the difference being kernel time alone, so the spread is
        # one-sided; the median flaps between the two modes, the minimum
        # repeats within 1 %
        samples = [child(workload, "setup", args) for _ in range(SETUP_SAMPLES - 1)]
        doc = child(workload, "timed", args)
        samples.append(doc)
        seconds = [s["setup_s"] for s in samples]
        metrics, listed = doc["end_to_end"], SPEC["end_to_end"]
        metrics["setup_s"] = {
            "value": min(seconds), "unit": "s",
            "median": statistics.median(seconds), "max": max(seconds),
        }
        doc["setup_samples"] = [
            dict(s["setup"], setup_s={"value": s["setup_s"]}) for s in samples
        ]
    units = {m["name"]: m["unit"] for m in listed}
    got = {name: entry["unit"] for name, entry in metrics.items()}
    if got != units:
        raise SystemExit(
            f"{workload}: metrics differ from BENCHMARK.json: "
            f"{sorted(set(got.items()) ^ set(units.items()))}"
        )
    doc["metrics"] = metrics
    return doc


# ---------------------------------------------------------------- printing
def show(doc: dict, trace: bool) -> None:
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    print(
        f"== {doc['workload']} seed={doc['seed']} "
        f"{'traced run: per-layer' if trace else 'tracing off: end-to-end'} metrics; "
        f"ops_attempted={doc['ops_attempted']} ops_failed={doc['ops_failed']}"
    )
    for failure in doc["failures"]:
        print(f"   FAILED {failure}")
    for name, entry in doc["metrics"].items():
        line = f"   {name:<46}{entry['value']:>16.6g} {entry['unit']:<6}"
        if "noise" in entry:
            line += f" noise {entry['noise']:5.1%}"
        if "median" in entry:
            line += f" median {entry['median']:.3f} max {entry['max']:.3f}"
        if name in bounds:
            line += f" bound {bounds[name]:4.0%}"
        print(line)
    if not trace:
        print(f"   samples: {doc['samples']}")
        for sample in doc["setup_samples"]:
            print(
                "   set-up sample: "
                + "  ".join(
                    f"{key}={entry['value']:.6g}"
                    for key, entry in sample.items() if entry["value"]
                )
            )


def contract_line(doc: dict) -> str:
    return json.dumps(
        {
            "correct": doc["ops_failed"] == 0,
            "attempted": doc["ops_attempted"],
            "failed": doc["ops_failed"],
            "metrics": {
                name: {"value": entry["value"], "unit": entry["unit"]}
                for name, entry in doc["metrics"].items()
            },
        }
    )


# --------------------------------------------------------------- comparing
def compare(path_a: str, path_b: str) -> int:
    """B against A, per workload x end-to-end metric.  ``worse``: B is
    worse than A by more than the bound; ``unresolved``: either side's
    own noise over its passes exceeds the bound, so the two cannot be
    told apart.  Simulated metrics are held to 1e-9 instead."""
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    for key in ("seed", "seconds", "quick"):
        if a[key] != b[key]:
            raise SystemExit(f"cannot compare: {key} differs ({a[key]} vs {b[key]})")
    worse = 0
    print(f"{'workload':<18}{'metric':<20}{'A':>14}{'B':>14}{'B worse by':>12}{'bound':>8}  verdict")
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        for spec in SPEC["end_to_end"]:
            name = spec["name"]
            ea = a["workloads"][workload]["end_to_end"][name]
            eb = b["workloads"][workload]["end_to_end"][name]
            change = (eb["value"] - ea["value"]) / ea["value"]
            if spec["better"] == "higher":
                change = -change
            simulated = name.startswith("sim_")
            bound = 1e-9 if simulated else spec["bound"]
            if change > bound:
                verdict = "worse"
            elif simulated and change < -bound:
                verdict = "changed"  # no host-only change may move it
            else:
                verdict = "ok"
            if not simulated and max(ea.get("noise", 0.0), eb.get("noise", 0.0)) > bound:
                verdict = "unresolved"
            worse += verdict == "worse"
            print(
                f"{workload:<18}{name:<20}{ea['value']:>14.6g}{eb['value']:>14.6g}"
                f"{change:>+12.2%}{bound:>8.0%}  {verdict}"
            )
    return 1 if worse else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="make one measurement and end with one JSON line")
    parser.add_argument("--json", metavar="OUT", help="write every metric to OUT")
    parser.add_argument("--quick", action="store_true",
                        help="SF 0.003, one pass: the self-test's mode")
    parser.add_argument("--golden-dir", default=os.path.join(HERE, "golden"))
    parser.add_argument("--write-golden", action="store_true",
                        help="record the default seed's results as the goldens")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)

    selected = args.workload or WORKLOADS
    if args.trace is not None:
        if len(selected) != 1:
            parser.error("--trace measures one --workload")
        doc = measure(selected[0], bool(args.trace), args)
        show(doc, bool(args.trace))
        print(contract_line(doc))
        return 1 if doc["ops_failed"] else 0

    report = {"seed": args.seed, "seconds": args.seconds, "quick": args.quick,
              "workloads": {}}
    failed = 0
    for workload in selected:
        timed = measure(workload, False, args)
        show(timed, False)
        entry = {
            "ops_attempted": timed["ops_attempted"], "ops_failed": timed["ops_failed"],
            "end_to_end": timed["metrics"],
        }
        if not args.write_golden:
            traced = measure(workload, True, args)
            show(traced, True)
            entry["ops_attempted"] += traced["ops_attempted"]
            entry["ops_failed"] += traced["ops_failed"]
            entry["per_layer"] = traced["metrics"]
        report["workloads"][workload] = entry
        failed += entry["ops_failed"]
    print(f"ops_failed={failed} over {len(selected)} workload(s)")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
