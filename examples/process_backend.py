"""The process backend: the same fragments on a real worker pool.

Builds a small TPC-H database under the BDCC scheme and runs Q1 and Q6
at ``workers=4`` twice — once on the default **simulated** backend
(in-process, deterministic scheduler) and once on the **process**
backend (``ExecutionOptions(backend="process")``): real worker processes
forked over the stored tables, so every base column is inherited
copy-on-write and a fragment payload names its tables instead of
shipping them; fragments are dispatched as their dependencies drain,
and the serial tail runs in the parent.  The pool belongs to the
process, not to an executor: every executor below shares it,
``Executor.close()`` releases nothing, and
``repro.parallel.backends.shutdown()`` — which runs at exit anyway —
stops the pool.

The script verifies the headline guarantee — the *same* ``ParallelPlan``
produces **bit-identical** rows and **identical simulated charges** on
both backends — and prints what only the process backend can add: a
measured wall clock per query (and per fragment), kept strictly apart
from the modelled makespan.  On a single-core host the measured numbers
won't show speedup; the simulated charges don't care, which is exactly
the point of keeping the two separate.

Run:  python examples/process_backend.py
"""

from __future__ import annotations

import numpy as np

from repro import tpch
from repro.planner.executor import ExecutionOptions, Executor
from repro.tpch.environment import make_environment
from repro.tpch.harness import build_schemes
from repro.tpch.queries import QUERIES
from repro.tpch.runner import QueryRunner

SCALE_FACTOR = 0.005
QUERY_NAMES = ("Q01", "Q06")


def bit_identical(a, b) -> bool:
    if a.column_names != b.column_names or a.num_rows != b.num_rows:
        return False
    for name in a.column_names:
        x, y = a.column(name), b.column(name)
        equal = (
            np.array_equal(x, y, equal_nan=True)
            if x.dtype.kind == "f" and y.dtype.kind == "f"
            else np.array_equal(x, y)
        )
        if not equal:
            return False
    return True


def main() -> None:
    print(f"generating TPC-H SF={SCALE_FACTOR} and building the BDCC scheme ...")
    db = tpch.generate(scale_factor=SCALE_FACTOR, seed=7)
    env = make_environment(SCALE_FACTOR)
    pdb = build_schemes(db, env, include=["bdcc"])["bdcc"]

    def run(backend):
        executor = Executor(
            pdb, disk=env.disk, costs=env.cost_model,
            options=ExecutionOptions(workers=4, backend=backend),
        )
        out = {}
        try:
            for qname in QUERY_NAMES:
                runner = QueryRunner(executor)
                result = QUERIES[qname](runner)
                out[qname] = (result.relation, runner.metrics)
        finally:
            executor.close()  # the pool stays: it is the process's
        return out

    simulated = run("simulated")
    process = run("process")

    print(f"\n{'query':<7}{'sim makespan ms':>17}{'measured ms':>13}{'identical':>11}")
    for qname in QUERY_NAMES:
        sim_rel, sim_metrics = simulated[qname]
        proc_rel, proc_metrics = process[qname]
        identical = bit_identical(sim_rel, proc_rel)
        assert identical, f"{qname}: backends disagree"
        assert proc_metrics.makespan_seconds == sim_metrics.makespan_seconds, (
            f"{qname}: simulated charges must not depend on the backend"
        )
        print(
            f"{qname:<7}{sim_metrics.makespan_seconds * 1e3:>17.3f}"
            f"{proc_metrics.measured_wall_seconds * 1e3:>13.3f}"
            f"{'yes' if identical else 'NO':>11}"
        )

    _, proc_metrics = process["Q06"]
    print("\nQ06 fragments on the process backend (simulated vs measured):")
    for frag in proc_metrics.fragments:
        print(
            f"  fragment {frag.index} [{frag.role}]: "
            f"simulated {(frag.io_seconds + frag.cpu_seconds) * 1e3:.3f} ms, "
            f"measured {frag.measured_seconds * 1e3:.3f} ms"
        )
    print(
        "\nbit-identical results, identical simulated charges — the wall "
        "clock is the only thing the real pool changes"
    )


if __name__ == "__main__":
    main()
