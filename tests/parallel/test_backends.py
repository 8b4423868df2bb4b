"""Execution backends: the process backend must be a drop-in for the
simulated one — bit-identical results, identical simulated charges —
plus the parallel-metrics correctness fix that rides along (operator
actuals accumulate instead of last-fragment-wins).

The process backend's pool is process-wide and forked over the stored
tables (one pool per process; payloads name tables and dimensions), so
its lifetime rules and failure behaviour are pinned here too: a fork
happens only for a table the workers did not inherit (a commit
publishes new tables), a payload carries no table or dimension, a table
the workers inherited outlives its last user until ``shutdown()``,
nothing lands in ``/dev/shm``, and a worker that dies or a fragment that
raises ends the query in a named error — never a hang — with the next
query clean.

The fast tests here stay in tier-1 (one small process-backend smoke, the
lifetime rules, the two fault tests and the fork/payload counters
included); the full scheme × query × worker matrix, the delta-store
round, the clean-exit check and the seeded workload sweep carry the
``backend`` marker and run in their own CI job.
"""

import gc
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import weakref
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.errors import FragmentFailed, WorkerLost
from repro.execution.metrics import OperatorActuals, merge_operator_actuals
from repro.observe.registry import REGISTRY
from repro.parallel import backends
from repro.parallel.backends import (
    BACKEND_NAMES,
    ProcessBackend,
    SimulatedBackend,
    create_backend,
)
from repro.planner.executor import ExecutionOptions, Executor
from repro.tpch.queries import QUERIES
from repro.tpch.runner import QueryRunner, run_query

from ..watchdog import guarded

SHM_DIR = "/dev/shm"
needs_dev_shm = pytest.mark.skipif(
    not os.path.isdir(SHM_DIR), reason="POSIX shared memory is not listed under /dev/shm"
)


def _shm_blocks() -> set:
    """Names of the shared-memory blocks python has created on this host."""
    return {name for name in os.listdir(SHM_DIR) if name.startswith("psm_")}


def _pool_starts() -> float:
    return REGISTRY.get("process_backend.pool_starts")


def _fresh_database(scheme="bdcc"):
    """``(logical db, environment, physical db)`` built now, of this
    test's own: a commit mutates it, and a build after the pool's fork
    is what some tests are about."""
    from repro import tpch
    from repro.tpch.environment import make_environment
    from repro.tpch.harness import build_schemes

    db = tpch.generate(scale_factor=0.002, seed=1234)
    env = make_environment(0.002)
    return db, env, build_schemes(db, env, include=[scheme])[scheme]


def _commit_lineitem_round(db, session, round_index):
    """Insert 30 copied lineitem rows and delete the heaviest ones."""
    from repro.execution.expressions import col

    ld = db.table_data("lineitem")
    pick = np.random.default_rng(round_index).integers(0, db.num_rows("lineitem"), 30)
    rows = {c: v[pick] for c, v in ld.items()}
    rows["l_linenumber"] = (
        ld["l_linenumber"].max() + 1 + np.arange(30)
    ).astype(ld["l_linenumber"].dtype)
    session.insert_rows("lineitem", rows)
    session.delete_where("lineitem", col("l_quantity").ge(49.0 - round_index))
    return session.commit()


def _run(pdb, environment, qname, workers=1, backend="simulated"):
    executor = Executor(
        pdb,
        disk=environment.disk,
        costs=environment.cost_model,
        options=ExecutionOptions(
            workers=workers, min_partition_rows=256, backend=backend
        ),
    )
    try:
        runner = QueryRunner(executor)
        result = QUERIES[qname](runner)
        return result.relation, runner.metrics
    finally:
        executor.close()


def _identical(a, b) -> bool:
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


# ------------------------------------------------------------- fast tier


class TestMetricsBugfixes:
    def test_merge_accumulates_shared_operator_keys(self):
        """Regression: merging fragment metrics used ``dict.update`` —
        last fragment wins — so an operator object shared by several
        fragments (leaves, broadcast subtrees) lost all but one
        execution's charges.  The merge must accumulate."""
        merged = {}
        first = OperatorActuals(
            "scan", "lineitem", rows_in=10, rows_out=10,
            io_bytes=100.0, io_accesses=2, io_seconds=0.5, cpu_seconds=0.25,
            reserved_bytes=64.0,
        )
        second = OperatorActuals(
            "scan", "lineitem", rows_in=6, rows_out=6,
            io_bytes=60.0, io_accesses=1, io_seconds=0.3, cpu_seconds=0.15,
            reserved_bytes=32.0,
        )
        merge_operator_actuals(merged, {7: first})
        merge_operator_actuals(merged, {7: second, 8: OperatorActuals("agg", "")})
        assert set(merged) == {7, 8}
        got = merged[7]
        assert got.executions == 2
        assert got.rows_out == 16
        assert got.io_bytes == pytest.approx(160.0)
        assert got.io_accesses == 3
        assert got.io_seconds == pytest.approx(0.8)
        assert got.cpu_seconds == pytest.approx(0.4)
        assert got.reserved_bytes == pytest.approx(96.0)
        # the merge never mutates: the per-fragment record stays untouched
        assert first.executions == 1 and first.rows_out == 10
        assert "execs=2" in got.summary()

    def test_parallel_operator_actuals_sum_to_merged_totals(
        self, bdcc_db, environment
    ):
        """ISSUE acceptance: in a parallel run the per-operator exclusive
        charges must sum exactly to the merged query totals — the old
        last-fragment-wins merge silently dropped fragments' charges."""
        for qname in ("Q01", "Q06", "Q03"):
            _, metrics = _run(bdcc_db, environment, qname, workers=4)
            assert metrics.workers == 4 and metrics.operators
            op_io = sum(a.io_seconds for a in metrics.operators.values())
            op_cpu = sum(a.cpu_seconds for a in metrics.operators.values())
            assert op_io == pytest.approx(metrics.io_seconds, abs=1e-12), qname
            assert op_cpu == pytest.approx(metrics.cpu_seconds, abs=1e-12), qname
            assert all(a.executions >= 1 for a in metrics.operators.values())


class TestBackendBasics:
    def test_create_backend_names(self):
        assert BACKEND_NAMES == ("simulated", "process")
        assert isinstance(create_backend("simulated"), SimulatedBackend)
        process = create_backend("process")
        assert isinstance(process, ProcessBackend)
        process.close()
        with pytest.raises(ValueError):
            create_backend("quantum")

    def test_simulated_runs_carry_no_measured_fields(self, bdcc_db, environment):
        _, metrics = _run(bdcc_db, environment, "Q06", workers=2)
        assert metrics.backend == "simulated"
        assert metrics.measured_wall_seconds == 0.0
        assert metrics.fragments
        assert all(f.measured_seconds == 0.0 for f in metrics.fragments)

    def test_process_backend_smoke_q06(self, bdcc_db, environment):
        """Small tier-1 smoke: the real pool produces bit-identical rows
        and identical simulated charges, plus measured wall clocks."""
        sim_rel, sim_metrics = _run(bdcc_db, environment, "Q06", workers=2)
        proc_rel, proc_metrics = _run(
            bdcc_db, environment, "Q06", workers=2, backend="process"
        )
        assert _identical(sim_rel, proc_rel)
        # the simulated cost model is charged identically on both backends
        assert proc_metrics.makespan_seconds == pytest.approx(
            sim_metrics.makespan_seconds
        )
        assert proc_metrics.io_seconds == pytest.approx(sim_metrics.io_seconds)
        assert proc_metrics.backend == "process"
        assert proc_metrics.measured_wall_seconds > 0.0
        assert proc_metrics.fragments
        assert any(f.measured_seconds > 0.0 for f in proc_metrics.fragments)
        assert all(f.measured_seconds >= 0.0 for f in proc_metrics.fragments)

    def test_operator_actuals_list_in_one_order_on_both_backends(
        self, bdcc_db, environment
    ):
        """A worker hands back each operator's actuals in the order it
        recorded them, so a query's records list the same operators in
        the same order on both backends and two runs diff entry by
        entry."""
        _, sim = _run(bdcc_db, environment, "Q03", workers=2)
        _, proc = _run(bdcc_db, environment, "Q03", workers=2, backend="process")
        assert len(sim.fragments) > 1
        assert [a.kind for a in proc.operators.values()] == [
            a.kind for a in sim.operators.values()
        ]
        assert list(proc.operators.values()) == list(sim.operators.values())

    def test_fragment_results_ship_arrays_only(self, bdcc_db, environment):
        """What crosses the pool's pipe is columns + validity.  Carried
        dimension uses are plan facts, so no fragment result pickles a
        ``Dimension`` (D_PART alone is 60 KB) — not even a stream whose
        hidden group columns a sandwich operator above still reads."""
        from repro.execution.aggregate import AggSpec
        from repro.planner.logical import scan

        plan = (
            scan("customer")
            .join(scan("orders"), on=[("c_custkey", "o_custkey")])
            .groupby(["o_custkey"], [AggSpec("n", "count")])
        )
        executor = Executor(
            bdcc_db, disk=environment.disk, costs=environment.cost_model,
            options=ExecutionOptions(workers=2, min_partition_rows=256),
        )
        parallel = executor.parallel_plan(executor.lower(plan))
        results, _ = create_backend("process").execute_fragments(
            parallel, environment.disk, environment.cost_model
        )
        assert len(results) > 1
        assert any(
            name.startswith("__grp__") for rel in results.values() for name in rel.columns
        )
        for relation in results.values():
            blob = pickle.dumps(relation, protocol=pickle.HIGHEST_PROTOCOL)
            assert b"Dimension" not in blob and b"StreamUse" not in blob


class _WorkerFault:
    """Stands in for ``backends.run_fragment``: once armed, the next
    fragment to start in a *pool worker* dies or raises (one shot — the
    flag is shared memory the forked workers inherit); everything else
    runs the real function."""

    KILL, RAISE = 1, 2

    def __init__(self):
        self._armed = multiprocessing.get_context("fork").Value("i", 0)
        self._parent = os.getpid()
        self._real = backends.run_fragment

    def arm(self, kind: int) -> None:
        self._armed.value = kind

    def __call__(self, *args, **kwargs):
        if os.getpid() != self._parent:
            with self._armed.get_lock():
                kind, self._armed.value = self._armed.value, 0
            if kind == self.KILL:
                os.kill(os.getpid(), signal.SIGKILL)
            if kind == self.RAISE:
                raise ValueError("injected fragment failure")
        return self._real(*args, **kwargs)


@pytest.fixture
def worker_fault(monkeypatch):
    backends.shutdown()  # the next pool is forked with the stand-in in place
    fault = _WorkerFault()
    monkeypatch.setattr(backends, "run_fragment", fault)
    yield fault
    backends.shutdown()  # ... and no later test gets those workers


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the injected fault reaches the workers through fork",
)
class TestFailureIsDefined:
    def test_killed_worker_is_a_named_error_not_a_hang(
        self, bdcc_db, environment, worker_fault
    ):
        """Regression: a SIGKILLed pool worker never fired its callback
        and ``execute_fragments`` blocked on ``events.get()`` forever."""
        sim_rel, _ = _run(bdcc_db, environment, "Q06", workers=2)
        process = lambda: _run(bdcc_db, environment, "Q06", workers=2, backend="process")
        process()  # forks the pool, from the main thread
        starts = REGISTRY.get("process_backend.pool_starts")
        worker_fault.arm(_WorkerFault.KILL)
        error = guarded(process).get("error")
        assert isinstance(error, WorkerLost) and isinstance(error, RuntimeError), error
        assert "process backend: a pool worker died" in str(error)
        assert isinstance(error.__cause__, BrokenProcessPool)
        assert backends._POOL is None  # the broken pool is gone ...
        proc_rel, proc_metrics = process()  # ... and the next query forks a fresh one
        assert REGISTRY.get("process_backend.pool_starts") == starts + 1
        assert _identical(sim_rel, proc_rel)
        assert proc_metrics.backend == "process"

    def test_raising_fragment_is_a_named_error_and_the_pool_survives(
        self, bdcc_db, environment, worker_fault
    ):
        sim_rel, _ = _run(bdcc_db, environment, "Q01", workers=2)
        process = lambda: _run(bdcc_db, environment, "Q01", workers=2, backend="process")
        process()
        starts = REGISTRY.get("process_backend.pool_starts")
        worker_fault.arm(_WorkerFault.RAISE)
        error = guarded(process).get("error")
        assert isinstance(error, FragmentFailed) and isinstance(error, RuntimeError), error
        assert "process backend: a fragment failed in a pool worker" in str(error)
        assert isinstance(error.__cause__, ValueError)
        assert "injected fragment failure" in str(error.__cause__)
        proc_rel, _ = process()  # same pool, clean result
        assert REGISTRY.get("process_backend.pool_starts") == starts
        assert _identical(sim_rel, proc_rel)


class TestForkedOverTheTables:
    """The workers inherit every table alive at the fork; a pool is
    forked again only for a table they did not inherit — one built, or
    published by a commit, after the fork."""

    def test_the_promise_is_a_count(self, physical_dbs, environment):
        """Cold executors (``run_query`` makes one per query) share one
        pool: the first pass forks it, the second forks nothing, and both
        ship the same payload bytes — plans and selections, never a
        table."""
        counters = ["process_backend.pool_starts", "process_backend.payload_bytes"]
        options = ExecutionOptions(workers=2, min_partition_rows=256, backend="process")

        def one_pass() -> dict:
            before = {name: REGISTRY.get(name) for name in counters}
            for qname in ("Q01", "Q03", "Q06"):
                for scheme in ("plain", "bdcc"):
                    run_query(
                        physical_dbs[scheme], QUERIES[qname], disk=environment.disk,
                        costs=environment.cost_model, options=options,
                    )
            return {name: REGISTRY.get(name) - before[name] for name in counters}

        backends.shutdown()
        first, second = one_pass(), one_pass()
        assert first["process_backend.pool_starts"] == 1
        assert second["process_backend.pool_starts"] == 0
        assert first["process_backend.payload_bytes"] > 0
        assert (
            second["process_backend.payload_bytes"]
            == first["process_backend.payload_bytes"]
        )

    def test_dependency_bytes_are_counted_and_repeat(self, bdcc_db, environment):
        """What the parent ships back to workers — the results a
        dependent fragment reads — is a count, equal pass after pass."""
        options = ExecutionOptions(workers=2, min_partition_rows=256, backend="process")
        executor = Executor(
            bdcc_db, disk=environment.disk, costs=environment.cost_model, options=options
        )
        from repro.execution.aggregate import AggSpec
        from repro.planner.logical import scan

        pplan = executor.lower(
            scan("customer")
            .join(scan("orders"), on=[("c_custkey", "o_custkey")])
            .groupby(["o_custkey"], [AggSpec("n", "count")])
        )
        plan = executor.execution_plan(pplan)
        assert any(f.depends_on for f in plan.fragments if f is not plan.final)

        def one_pass() -> float:
            before = REGISTRY.get("process_backend.deps_bytes")
            executor.run(pplan)
            return REGISTRY.get("process_backend.deps_bytes") - before

        first, second = one_pass(), one_pass()
        assert first > 0 and second == first

    def test_payloads_name_tables_and_dimensions(
        self, physical_dbs, environment, monkeypatch
    ):
        """No payload pickles a ``StoredTable`` or a ``Dimension`` — the
        sandwich operators' stream uses included — though the tasks, as
        plain pickles, carry both."""
        tasks, payloads = [], []
        real_dumps = backends._dumps

        def recording_dumps(task):
            tasks.append(task)
            payloads.append(real_dumps(task))
            return payloads[-1]

        monkeypatch.setattr(backends, "_dumps", recording_dumps)
        for scheme in ("plain", "bdcc"):
            for qname in ("Q03", "Q06"):
                _run(physical_dbs[scheme], environment, qname, workers=2, backend="process")
        assert payloads
        for payload in payloads:
            assert b"StoredTable" not in payload and b"Dimension" not in payload
        plain = [pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL) for task in tasks]
        assert any(b"StoredTable" in blob for blob in plain)
        assert any(b"Dimension" in blob for blob in plain)
        assert sum(map(len, payloads)) < sum(map(len, plain)) / 2

    def test_a_repeated_read_only_query_forks_nothing(self, bdcc_db, environment):
        first, _ = _run(bdcc_db, environment, "Q03", workers=2, backend="process")
        starts = _pool_starts()
        for _ in range(3):
            again, _ = _run(bdcc_db, environment, "Q03", workers=2, backend="process")
            assert _identical(first, again)
        assert _pool_starts() == starts

    def test_a_database_built_after_the_fork_forks_once(self, bdcc_db, environment):
        _run(bdcc_db, environment, "Q06", workers=2, backend="process")
        assert backends._POOL is not None
        starts = _pool_starts()
        _, env, pdb = _fresh_database()
        sim_rel, _ = _run(pdb, env, "Q06", workers=2)
        proc_rel, _ = _run(pdb, env, "Q06", workers=2, backend="process")
        assert _pool_starts() == starts + 1  # its tables are new to the workers
        assert _identical(sim_rel, proc_rel)
        _run(pdb, env, "Q06", workers=2, backend="process")
        _run(bdcc_db, environment, "Q06", workers=2, backend="process")
        assert _pool_starts() == starts + 1  # the new pool inherited both

    def test_a_commit_forks_exactly_one_more_pool(self):
        from repro.updates import CompactionPolicy, UpdateSession

        db, env, pdb = _fresh_database()
        _run(pdb, env, "Q06", workers=2, backend="process")
        starts = _pool_starts()
        session = UpdateSession(pdb, policy=CompactionPolicy(max_delta_fraction=None))
        _commit_lineitem_round(db, session, 0)
        assert _pool_starts() == starts  # a commit forks nothing by itself ...
        sim_rel, sim_metrics = _run(pdb, env, "Q06", workers=2)
        proc_rel, proc_metrics = _run(pdb, env, "Q06", workers=2, backend="process")
        assert _pool_starts() == starts + 1  # ... its first dispatch does
        assert _identical(sim_rel, proc_rel)
        assert proc_metrics.makespan_seconds == sim_metrics.makespan_seconds
        assert proc_metrics.delta_rows_scanned == sim_metrics.delta_rows_scanned > 0
        _run(pdb, env, "Q01", workers=2, backend="process")
        assert _pool_starts() == starts + 1

    def test_a_dropped_table_lives_until_shutdown(self):
        """The snapshot holds what the workers inherited, so a table
        dropped after the fork keeps its ``id()`` — no later object can
        take it and be resolved to the dead table's inherited copy."""
        _, env, pdb = _fresh_database("plain")
        _run(pdb, env, "Q06", workers=2, backend="process")
        lineitem = weakref.ref(pdb.table("lineitem"))
        del pdb
        gc.collect()
        assert lineitem() is not None
        backends.shutdown()
        gc.collect()
        assert lineitem() is None

    @needs_dev_shm
    def test_shutdown_is_idempotent_and_the_next_query_recreates(
        self, bdcc_db, environment
    ):
        backends.shutdown()
        before = _shm_blocks()
        first, _ = _run(bdcc_db, environment, "Q06", workers=2, backend="process")
        assert backends._POOL is not None and backends._INHERITED
        assert _shm_blocks() == before  # the workers inherit; nothing is exported
        backends.shutdown()
        backends.shutdown()
        assert backends._POOL is None and not backends._INHERITED
        assert _shm_blocks() == before
        again, metrics = _run(bdcc_db, environment, "Q06", workers=2, backend="process")
        assert _identical(first, again) and metrics.backend == "process"


# -------------------------------------------------- backend matrix (CI job)


@pytest.mark.backend
class TestProcessBackendMatrix:
    @pytest.mark.parametrize("scheme", ["plain", "pk", "bdcc"])
    @pytest.mark.parametrize("qname", ["Q01", "Q06", "Q03"])
    def test_bit_identical_across_backends(
        self, physical_dbs, environment, scheme, qname
    ):
        pdb = physical_dbs[scheme]
        for workers in (2, 4):
            sim_rel, sim_metrics = _run(pdb, environment, qname, workers=workers)
            proc_rel, proc_metrics = _run(
                pdb, environment, qname, workers=workers, backend="process"
            )
            # the ISSUE's acceptance bar: the very same ParallelPlan must
            # produce bit-identical rows whichever backend executes it
            # (serial contracts are the workload oracle's job — partial
            # aggregation legitimately reorders float accumulation)
            assert _identical(sim_rel, proc_rel), (scheme, qname, workers)
            assert proc_metrics.makespan_seconds == pytest.approx(
                sim_metrics.makespan_seconds
            ), (scheme, qname, workers)

    @pytest.mark.parametrize("scheme", ["pk", "bdcc"])
    def test_columns_first_read_after_the_fork(self, scheme):
        """A stored copy gathers a column when it is first read, so a
        column the parent had not read at the fork is gathered by each
        worker that reads it: Q13 reads ``o_comment``, Q16
        ``s_comment``.  Rows and simulated charges stay the simulated
        backend's."""
        _, env, pdb = _fresh_database(scheme)
        _run(pdb, env, "Q06", workers=4, backend="process")  # forks over pdb
        starts = _pool_starts()
        assert "o_comment" not in pdb.table("orders").columns.gathered
        assert "s_comment" not in pdb.table("supplier").columns.gathered
        for qname in ("Q13", "Q16"):
            proc_rel, proc = _run(pdb, env, qname, workers=4, backend="process")
            sim_rel, sim = _run(pdb, env, qname, workers=4)
            assert proc.backend == "process"
            assert _identical(sim_rel, proc_rel), (scheme, qname)
            assert (proc.makespan_seconds, proc.total_seconds, proc.io_bytes) == (
                sim.makespan_seconds, sim.total_seconds, sim.io_bytes
            ), (scheme, qname)
        assert _pool_starts() == starts  # the workers forked before the reads

    @needs_dev_shm
    def test_delta_store_round_survives_epoch_changes(self):
        """Commit through the update subsystem between process-backend
        runs: every commit, and the compaction that rewrites the table
        into new arrays, publishes a new table — each forks exactly one more
        pool at its first dispatch, whose workers read the new state,
        and nothing lands in ``/dev/shm``."""
        from repro.execution.expressions import col
        from repro.updates import CompactionPolicy, UpdateSession

        before = _shm_blocks()
        db, env, pdb = _fresh_database()
        executor = Executor(
            pdb, disk=env.disk, costs=env.cost_model,
            options=ExecutionOptions(
                workers=2, min_partition_rows=256, backend="process"
            ),
        )
        baseline = Executor(
            pdb, disk=env.disk, costs=env.cost_model,
            options=ExecutionOptions(workers=2, min_partition_rows=256),
        )
        session = UpdateSession(
            pdb, policy=CompactionPolicy(max_delta_fraction=None)
        )

        def both_backends_agree(label) -> None:
            for qname in ("Q06", "Q01"):
                sim_result = QUERIES[qname](QueryRunner(baseline))
                proc = QueryRunner(executor)
                proc_result = QUERIES[qname](proc)
                assert _identical(sim_result.relation, proc_result.relation), (label, qname)
                assert proc.metrics.backend == "process"

        try:
            both_backends_agree("before")
            for round_index in range(2):
                starts = _pool_starts()
                _commit_lineitem_round(db, session, round_index)
                both_backends_agree(round_index)
                assert _pool_starts() == starts + 1, round_index

            starts = _pool_starts()
            old_columns = dict(pdb.table("lineitem").columns)
            session.policy = CompactionPolicy(max_delta_fraction=0.0, min_delta_rows=1)
            session.delete_where("lineitem", col("l_quantity").ge(47.0))
            assert session.commit().compacted_tables("bdcc") == ["lineitem"]
            assert all(
                pdb.table("lineitem").columns[name] is not array
                for name, array in old_columns.items()
            )
            both_backends_agree("compacted")
            assert _pool_starts() == starts + 1
            assert _shm_blocks() == before
        finally:
            executor.close()
            baseline.close()

    @needs_dev_shm
    def test_exit_without_close_leaves_nothing_behind(self):
        """A process that runs a process-backend query and just exits —
        no ``close()``, no ``shutdown()`` — stops its pool through
        ``atexit``, leaves no block in ``/dev/shm`` and gives the
        resource tracker nothing to report."""
        script = (
            "from repro import tpch\n"
            "from repro.planner.executor import ExecutionOptions\n"
            "from repro.tpch.environment import make_environment\n"
            "from repro.tpch.harness import build_schemes\n"
            "from repro.tpch.queries import QUERIES\n"
            "from repro.tpch.runner import run_query\n"
            "from repro.parallel import backends\n"
            "db = tpch.generate(scale_factor=0.002, seed=1234)\n"
            "env = make_environment(0.002)\n"
            "pdb = build_schemes(db, env, include=['bdcc'])['bdcc']\n"
            "options = ExecutionOptions(workers=2, min_partition_rows=256, backend='process')\n"
            "result, metrics = run_query(pdb, QUERIES['Q06'], disk=env.disk,\n"
            "                            costs=env.cost_model, options=options)\n"
            "assert metrics.backend == 'process' and backends._POOL is not None\n"
            "print('inherited', len(backends._INHERITED))\n"
        )
        before = _shm_blocks()
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("inherited ")
        assert "leaked shared_memory" not in done.stderr, done.stderr
        assert "resource_tracker" not in done.stderr, done.stderr
        assert _shm_blocks() == before

    def test_seeded_workload_property(self, physical_dbs, environment):
        """Differential oracle over generated plans with process-backend
        variants: normalized multisets vs the reference, bit-for-bit vs
        serial for non-reordering plans."""
        from repro.workload.differential import (
            run_differential,
            worker_count_variants,
        )

        variants = {"default": ExecutionOptions()}
        variants.update(worker_count_variants([2, 4], backend="process"))
        report = run_differential(
            physical_dbs,
            seed=5,
            num_queries=8,
            variants=variants,
            disk=environment.disk,
            costs=environment.cost_model,
        )
        assert report.executions == 8 * len(physical_dbs) * len(variants)
        assert report.ok, report.render()
