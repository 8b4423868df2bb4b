"""Update throughput: merge-on-read overhead vs compaction payoff.

Measures, per scheme:

* Q1/Q6 latency over a clean table (0% delta), then with ~1% and ~5% of
  LINEITEM living in uncompacted delta runs (merge-on-read overhead);
* the same queries after forcing compaction — asserting the fold
  restores at least 90% of the clean-table scan speed;
* the TPC-H refresh harness table: RF1/RF2 cost per scheme next to the
  probe-query latency (a fresh build, default compaction policy).

Usable standalone (CI runs ``python benchmarks/bench_update_throughput.py
--smoke``); the report is printed and its metrics appended to the
``BENCH_update_throughput.json`` ledger.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.observe import SCHEMA_VERSION, history  # noqa: E402
from repro.tpch.datagen import generate  # noqa: E402
from repro.tpch.environment import make_environment  # noqa: E402
from repro.tpch.harness import build_schemes  # noqa: E402
from repro.tpch.queries import QUERIES  # noqa: E402
from repro.tpch.refresh import run_refresh_suite, stage_rf1  # noqa: E402
from repro.tpch.runner import run_query  # noqa: E402
from repro.updates import CompactionPolicy, UpdateSession, compact_table  # noqa: E402

PROBES = ("Q01", "Q06")
#: compaction must restore at least this fraction of clean scan speed
RESTORE_TARGET = 0.9


def _measure(pdbs, env):
    out = {}
    for scheme, pdb in pdbs.items():
        for qname in PROBES:
            _, metrics = run_query(
                pdb, QUERIES[qname], disk=env.disk, costs=env.cost_model
            )
            out[(scheme, qname)] = metrics.total_seconds
    return out


def _grow_delta(db, pdbs, rng, lineitem_rows):
    """Commit ~lineitem_rows new lineitems (plus their orders) without
    compacting, so the delta fraction is controlled."""
    session = UpdateSession(
        *pdbs.values(), policy=CompactionPolicy(max_delta_fraction=None)
    )
    stage_rf1(session, db, rng, max(lineitem_rows // 4, 1))
    session.commit()


def run(scale_factor: float, seed: int, json_mode: bool = False) -> int:
    print(f"generating TPC-H SF={scale_factor} (seed {seed}) ...", file=sys.stderr)
    db = generate(scale_factor=scale_factor, seed=seed)
    env = make_environment(scale_factor)
    pdbs = build_schemes(db, env)
    rng = np.random.default_rng(seed)
    n_line = db.num_rows("lineitem")

    stages = {}
    stages["0% delta (clean)"] = _measure(pdbs, env)
    _grow_delta(db, pdbs, rng, int(0.01 * n_line))
    stages["~1% delta (merge-on-read)"] = _measure(pdbs, env)
    _grow_delta(db, pdbs, rng, int(0.04 * n_line))
    stages["~5% delta (merge-on-read)"] = _measure(pdbs, env)
    compaction_ms = {}
    for scheme, pdb in pdbs.items():
        seconds = 0.0
        for stored in list(pdb.stored.values()):
            compacted, io_s, cpu_s = compact_table(stored, env.disk, env.cost_model)
            pdb.publish({stored: compacted})
            seconds += io_s + cpu_s
        compaction_ms[scheme] = seconds * 1e3
    stages["compacted"] = _measure(pdbs, env)

    schemes = list(pdbs)
    lines = [
        f"update throughput (SF={scale_factor}): Q1/Q6 latency by delta state [ms]",
        f"{'stage':<28}"
        + "".join(f"{s + ' ' + q:>14}" for s in schemes for q in PROBES),
    ]
    for stage, values in stages.items():
        row = f"{stage:<28}"
        for scheme in schemes:
            for qname in PROBES:
                row += f"{values[(scheme, qname)] * 1e3:>14.3f}"
        lines.append(row)
    lines.append(
        "compaction cost [ms]: "
        + ", ".join(f"{s}={compaction_ms[s]:.3f}" for s in schemes)
    )

    failures = []
    for scheme in schemes:
        for qname in PROBES:
            clean = stages["0% delta (clean)"][(scheme, qname)]
            compacted = stages["compacted"][(scheme, qname)]
            # the compacted table holds ~5% more rows than the clean one,
            # which the 90% target absorbs
            limit = clean / RESTORE_TARGET
            status = "ok" if compacted <= limit else "FAIL"
            lines.append(
                f"  restore check {scheme}/{qname}: compacted "
                f"{compacted * 1e3:.3f} ms vs clean {clean * 1e3:.3f} ms "
                f"(limit {limit * 1e3:.3f} ms) {status}"
            )
            if compacted > limit:
                failures.append((scheme, qname, compacted, limit))

    # ---- refresh harness table over a fresh build -----------------------
    fresh_db = generate(scale_factor=scale_factor, seed=seed)
    fresh_pdbs = build_schemes(fresh_db, env)
    refresh = run_refresh_suite(fresh_pdbs, env, pairs=2, seed=seed)
    lines.append("")
    lines.append(refresh.render())

    text = "\n".join(lines)
    data = {
        "schema_version": SCHEMA_VERSION,
        "kind": "bench_update_throughput",
        "scale_factor": scale_factor,
        "seed": seed,
        "probes": list(PROBES),
        "stages": {
            stage: {
                f"{scheme}/{qname}": values[(scheme, qname)]
                for scheme in schemes
                for qname in PROBES
            }
            for stage, values in stages.items()
        },
        "compaction_seconds": {s: compaction_ms[s] / 1e3 for s in schemes},
        "restore_target": RESTORE_TARGET,
        "failures": [
            {"scheme": s, "query": q, "compacted_seconds": c, "limit_seconds": l}
            for s, q, c, l in failures
        ],
        "ok": not failures,
    }
    history.append_record(
        "update_throughput",
        history.flatten_metrics(
            {
                "stage_seconds": data["stages"],
                "compaction_seconds": data["compaction_seconds"],
                "ok": data["ok"],
            }
        ),
        meta={"scale_factor": scale_factor, "seed": seed},
        directory=pathlib.Path(__file__).resolve().parent.parent,
    )
    print(json.dumps(data, sort_keys=True, indent=2) if json_mode else text)
    if failures:
        print(f"\nFAIL: compaction restored < {RESTORE_TARGET:.0%} of clean speed "
              f"for {failures}", file=sys.stderr)
        return 1
    print("\nPASS: compaction restores >= "
          f"{RESTORE_TARGET:.0%} of clean-table scan speed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sf", type=float, default=0.02)
    parser.add_argument("--seed", type=int, default=7)
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
    return run(sf, args.seed, json_mode=args.json)


if __name__ == "__main__":
    raise SystemExit(main())
