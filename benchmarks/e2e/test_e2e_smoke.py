"""Self-test of the end-to-end benchmark over its ``--quick`` mode
(SF 0.003, one pass).  Run as ``pytest benchmarks/e2e -q``; tier-1
(``testpaths = tests``) never collects it.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
RUN = os.path.join(HERE, "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, "--quick", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )


def compare(a: str, b: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, "--compare", a, b],
        cwd=ROOT, capture_output=True, text=True,
    )


def simulated(report: dict) -> dict:
    """Every simulated-clock metric of a full report."""
    return {
        (workload, name): entry["value"]
        for workload, doc in report["workloads"].items()
        for group in ("end_to_end", "per_layer")
        for name, entry in doc[group].items()
        if name.startswith("sim_") or ".sim_" in name
    }


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "a.json"
    done = run("--json", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out) as fh:
        return done.stdout, json.load(fh), str(out)


def test_every_listed_metric_is_printed_with_a_unit(full_run):
    stdout, report, _ = full_run
    assert list(report["workloads"]) == WORKLOADS
    for doc in report["workloads"].values():
        assert doc["ops_attempted"] > 0 and doc["ops_failed"] == 0
        for group in ("end_to_end", "per_layer"):
            assert list(doc[group]) and set(doc[group]) == {m["name"] for m in SPEC[group]}
            for name, entry in doc[group].items():
                assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
                assert entry["unit"] and isinstance(entry["value"], float)
                assert re.search(rf"^\s+{re.escape(name)}\s", stdout, re.M)


def test_layers_show_up_only_where_they_run(full_run):
    _, report, _ = full_run
    layers = {w: doc["per_layer"] for w, doc in report["workloads"].items()}
    for workload, layer in layers.items():
        assert (layer["parallel.backends.run_ms_p50"]["value"] > 0) == (
            workload == "process_parallel")
        assert (layer["updates.session.commit_ms_p50"]["value"] > 0) == (
            workload == "serving_refresh")
    assert (layers["generated_small"]["planner.lowering.busy_share"]["value"]
            > layers["process_parallel"]["planner.lowering.busy_share"]["value"])
    assert layers["serving_refresh"]["planner.executor.plan_cache_hit_rate"]["value"] > 0.5
    assert layers["generated_small"]["planner.executor.plan_cache_hit_rate"]["value"] == 0


def test_simulated_metrics_repeat_bit_for_bit(full_run, tmp_path):
    _, first, path = full_run
    out = tmp_path / "b.json"
    assert run("--json", str(out)).returncode == 0
    with open(out) as fh:
        second = json.load(fh)
    assert simulated(first) and simulated(first) == simulated(second)
    # the comparison tool reads the same two files
    table = compare(path, str(out)).stdout
    assert all(
        line.endswith("ok") for line in table.splitlines() if " sim_" in line
    ), table


def test_compare_flags_a_regression(full_run, tmp_path):
    _, report, path = full_run
    worse = json.loads(json.dumps(report))
    metrics = worse["workloads"]["paper_suite"]["end_to_end"]
    metrics["queries_per_s"]["value"] *= 0.5
    metrics["sim_wall_s"]["value"] *= 1.000001
    out = tmp_path / "worse.json"
    out.write_text(json.dumps(worse))
    done = compare(path, str(out))
    assert done.returncode == 1
    verdicts = {
        tuple(line.split()[:2]): line.split()[-1] for line in done.stdout.splitlines()[1:]
    }
    assert verdicts["paper_suite", "queries_per_s"] == "worse"
    assert verdicts["paper_suite", "sim_wall_s"] == "worse"
    assert verdicts["paper_suite", "query_p50_ms"] == "ok"
    assert compare(path, path).returncode == 0


def test_a_corrupted_golden_fails_the_run(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(os.path.join(HERE, "golden"), golden)
    path = golden / "paper_suite.json"
    doc = json.loads(path.read_text())
    doc["0.003"]["Q01/plain"]["rows"] += 1
    path.write_text(json.dumps(doc))
    done = run("--workload", "paper_suite", "--trace", "0", "--golden-dir", str(golden))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert done.returncode != 0
    assert result["failed"] > 0 and result["correct"] is False


def test_the_seed_changes_the_data(full_run):
    _, report, _ = full_run
    done = run("--workload", "generated_small", "--trace", "0", "--seed", "8")
    assert done.returncode == 0, done.stdout + done.stderr
    other = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    seven = report["workloads"]["generated_small"]["end_to_end"]
    assert other["sim_wall_s"]["value"] != seven["sim_wall_s"]["value"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_is_valid_and_spans_nest(full_run, workload):
    path = os.path.join(HERE, "out", f"trace-{workload}.json")
    check = subprocess.run(
        [sys.executable, "-m", "repro.observe", "validate", path],
        cwd=ROOT, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
    )
    assert check.returncode == 0, check.stdout
    with open(path) as fh:
        spans = [e for e in json.load(fh)["traceEvents"] if e["ph"] == "X"]
    by_id = {e["args"]["id"]: e for e in spans}
    covered = dict.fromkeys(by_id, 0.0)
    for span in spans:
        parent = by_id.get(span["args"]["parent"])
        if parent is None:
            continue
        assert parent["ts"] <= span["ts"]
        assert span["ts"] + span["dur"] <= parent["ts"] + parent["dur"] + 1e-3
        covered[parent["args"]["id"]] += span["dur"]
    # a query's layers account for the query: what its spans leave
    # uncovered (building the logical plan, glue) stays under 5 %
    queries = [e for e in spans if e["name"] == "query"]
    if queries:
        total = sum(e["dur"] for e in queries)
        assert sum(covered[e["args"]["id"]] for e in queries) >= 0.95 * total
