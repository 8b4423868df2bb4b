"""Execution backends: the process backend must be a drop-in for the
simulated one — bit-identical results, identical simulated charges —
plus the parallel-metrics correctness fixes that ride along (operator
actuals accumulate instead of last-fragment-wins; ``Executor.metrics``
exists before the first run).

The process backend's pool and shared-memory export are process-wide
(one pool per process, one block per array), so their lifetime rules and
failure behaviour are pinned here too: blocks die with their arrays,
workers let go of retired blocks, ``shutdown()`` leaves ``/dev/shm`` as
it found it, and a worker that dies or a fragment that raises ends the
query in a named error — never a hang — with the next query clean.

The fast tests here stay in tier-1 (one small process-backend smoke, the
store's lifetime rules, the two fault tests and the one-pool/one-export
counters included); the full scheme × query × worker matrix, the
delta-store round, the worker-attachment and clean-exit checks and the
seeded workload sweep carry the ``backend`` marker and run in their own
CI job.
"""

import gc
import io
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.execution.metrics import (
    ExecutionMetrics,
    OperatorActuals,
    merge_operator_actuals,
)
from repro.observe.registry import REGISTRY
from repro.parallel import backends
from repro.parallel.backends import (
    BACKEND_NAMES,
    ProcessBackend,
    SharedArrayStore,
    SimulatedBackend,
    create_backend,
)
from repro.planner.executor import ExecutionOptions, Executor
from repro.tpch.queries import QUERIES
from repro.tpch.runner import QueryRunner, run_query

SHM_DIR = "/dev/shm"
needs_dev_shm = pytest.mark.skipif(
    not os.path.isdir(SHM_DIR), reason="POSIX shared memory is not listed under /dev/shm"
)


def _shm_blocks() -> set:
    """Names of the shared-memory blocks python has created on this host."""
    return {name for name in os.listdir(SHM_DIR) if name.startswith("psm_")}


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
    def test_executor_metrics_exists_before_first_run(self, bdcc_db, environment):
        """Regression: ``Executor.metrics`` used to appear only inside
        ``run()``, so touching it before the first execution raised
        AttributeError."""
        executor = Executor(
            bdcc_db, disk=environment.disk, costs=environment.cost_model
        )
        assert isinstance(executor.metrics, ExecutionMetrics)
        assert executor.metrics.total_seconds == 0.0
        assert executor.metrics.rows_produced == 0
        assert not executor.metrics.operators

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


@needs_dev_shm
class TestSharedArrayLifetime:
    """A block lives exactly as long as the array it copied."""

    def test_block_dies_with_its_array(self):
        store = SharedArrayStore()
        array = np.arange(2048, dtype=np.int64)
        name, dtype, shape = store.export(array)
        assert store.export(array) == (name, dtype, shape)  # one export per array
        assert store.names() == {name}
        assert name in _shm_blocks()
        assert np.array_equal(
            np.fromfile(os.path.join(SHM_DIR, name), dtype=dtype)[:2048], array
        )
        del array
        gc.collect()
        assert not store.names() and name not in _shm_blocks()
        assert store.retirement() == (1, (name,))

    def test_a_recycled_id_never_hits_a_stale_block(self):
        """Arrays created and dropped in a loop reuse each other's
        ``id()``; every export must still hold its own array's data."""
        store = SharedArrayStore()
        ids = set()
        for value in range(40):
            array = np.full(1024, value, dtype=np.int64)
            ids.add(id(array))
            name, dtype, _ = store.export(array)
            stored = np.fromfile(os.path.join(SHM_DIR, name), dtype=dtype)[:1024]
            assert np.array_equal(stored, array), value
            del array
        assert len(ids) < 40, "no id() was recycled; the test shows nothing"
        assert not store.names()
        assert store.retirement()[0] == 40

    def test_small_and_object_arrays_are_not_exported(self):
        store = SharedArrayStore()
        assert not store.exportable(np.arange(8))
        assert not store.exportable(np.array([object()] * 4096, dtype=object))
        assert store.exportable(np.zeros(backends.SHARED_MIN_BYTES, dtype=np.uint8))

    def test_close_is_safe_against_finalizers_firing_meanwhile(self, monkeypatch):
        store = SharedArrayStore()
        arrays = [np.full(1024, i, dtype=np.int64) for i in range(6)]
        names = {store.export(a)[0] for a in arrays}
        assert names <= _shm_blocks()
        unlinked = []
        posixshmem = backends.shared_memory._posixshmem
        real_unlink = posixshmem.shm_unlink

        def unlink_and_collect(path):
            # the first unlink of close() drops every other array, so
            # their finalizers fire while close() is still iterating
            unlinked.append(path.lstrip("/"))
            real_unlink(path)
            arrays.clear()
            gc.collect()

        monkeypatch.setattr(posixshmem, "shm_unlink", unlink_and_collect)
        store.close()
        assert sorted(unlinked) == sorted(names)  # each exactly once
        assert not store.names() and names.isdisjoint(_shm_blocks())
        assert store.retirement()[0] == 6
        store.close()  # idempotent
        assert store.retirement()[0] == 6

    def test_worker_releases_what_the_parent_retired(self, monkeypatch):
        """The worker half of a retirement, run in this process: the
        retired suffix names what to unmap, and a worker that has
        fallen behind the suffix unmaps everything."""
        monkeypatch.setattr(backends, "RETIRED_SUFFIX", 2)
        monkeypatch.setattr(backends, "_ATTACHED_BLOCKS", {})
        monkeypatch.setattr(backends, "_RETIRED_SEEN", 0)
        store = SharedArrayStore()
        arrays = {k: np.full(1024, i, dtype=np.int64) for i, k in enumerate("abcdef")}
        names = {k: store.export(a)[0] for k, a in arrays.items()}
        views = backends._loads_shared(backends._dumps_shared(arrays, store))
        assert all(np.array_equal(views[k], arrays[k]) for k in arrays)
        assert not views["a"].flags.writeable
        assert set(backends._ATTACHED_BLOCKS) == set(names.values())

        views.clear()  # a worker keeps no view from one task to the next
        del arrays["a"], arrays["b"]
        gc.collect()
        backends._release_retired(*store.retirement())
        assert set(backends._ATTACHED_BLOCKS) == {names[k] for k in "cdef"}
        backends._release_retired(*store.retirement())  # nothing new: a no-op
        assert set(backends._ATTACHED_BLOCKS) == {names[k] for k in "cdef"}

        del arrays["c"], arrays["d"], arrays["e"]  # three retirements > suffix of 2
        gc.collect()
        retired, recent = store.retirement()
        assert retired == 5 and len(recent) == 2
        backends._release_retired(retired, recent)
        assert backends._ATTACHED_BLOCKS == {}  # fell behind: everything unmapped
        # ... and what is still live re-attaches on its next use
        again = backends._loads_shared(backends._dumps_shared(arrays, store))
        assert np.array_equal(again["f"], arrays["f"])
        assert set(backends._ATTACHED_BLOCKS) == {names["f"]}
        with pytest.raises(ValueError):
            again["f"][0] = 1  # the mapping is read-only: base data is immutable
        del again
        backends._ATTACHED_BLOCKS.pop(names["f"]).close()
        store.close()


def _worker_attachments(retirement):
    """Runs in a pool worker: what a task does first, then the names
    of the blocks the worker is attached to.  The nap lets the other
    workers take the next probes."""
    backends._release_retired(*retirement)
    time.sleep(0.05)
    return os.getpid(), set(backends._ATTACHED_BLOCKS)


def _guarded(target, seconds=5.0) -> dict:
    """Run ``target`` on a thread under a watchdog: ``{"value": ...}``
    or ``{"error": ...}``, and a failed test — not a stuck suite — if it
    has not come back after ``seconds``."""
    outcome = {}

    def body():
        try:
            outcome["value"] = target()
        except BaseException as error:  # handed to the test, which asserts on it
            outcome["error"] = error

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"no outcome after {seconds} s: the backend hangs"
    return outcome


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
        error = _guarded(process).get("error")
        assert isinstance(error, RuntimeError), error
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
        error = _guarded(process).get("error")
        assert isinstance(error, RuntimeError), error
        assert "process backend: a fragment failed in a pool worker" in str(error)
        assert isinstance(error.__cause__, ValueError)
        assert "injected fragment failure" in str(error.__cause__)
        proc_rel, _ = process()  # same pool, clean result
        assert REGISTRY.get("process_backend.pool_starts") == starts
        assert _identical(sim_rel, proc_rel)


@needs_dev_shm
class TestOnePoolOneExport:
    def test_the_promise_is_a_count(self, physical_dbs, environment):
        """Cold executors (``run_query`` makes one per query) share one
        pool and one export: the second pass forks nothing and copies
        only its plans' own arrays (run lists of a selection with
        hundreds of runs — rows are never shipped), which die with the
        plans."""
        counters = [
            "process_backend.pool_starts", "process_backend.blocks_exported",
            "process_backend.bytes_exported", "process_backend.blocks_retired",
        ]
        options = ExecutionOptions(workers=2, min_partition_rows=256, backend="process")

        def one_pass() -> dict:
            before = {name: REGISTRY.get(name) for name in counters}
            for qname in ("Q01", "Q03", "Q06"):
                for scheme in ("plain", "bdcc"):
                    run_query(
                        physical_dbs[scheme], QUERIES[qname], disk=environment.disk,
                        costs=environment.cost_model, options=options,
                    )
            gc.collect()
            backends._STORE.retirement()  # settles what the collection retired
            return {name: REGISTRY.get(name) - before[name] for name in counters}

        backends.shutdown()
        first, second = one_pass(), one_pass()
        assert first["process_backend.pool_starts"] == 1
        assert second["process_backend.pool_starts"] == 0
        assert first["process_backend.blocks_exported"] > 0
        assert (
            second["process_backend.bytes_exported"]
            < 0.2 * first["process_backend.bytes_exported"]
        )
        # each pass retires its plans' arrays, and exactly what the second
        # exported: nothing accumulates
        assert (
            first["process_backend.blocks_retired"]
            == second["process_backend.blocks_exported"]
        )
        assert (
            second["process_backend.blocks_retired"]
            == second["process_backend.blocks_exported"]
        )

    def test_shutdown_is_idempotent_and_the_next_query_recreates(
        self, bdcc_db, environment
    ):
        backends.shutdown()
        before = _shm_blocks()
        first, _ = _run(bdcc_db, environment, "Q06", workers=2, backend="process")
        assert backends._POOL is not None and backends._STORE.names()
        assert _shm_blocks() - before == backends._STORE.names()
        backends.shutdown()
        backends.shutdown()
        assert backends._POOL is None and not backends._STORE.names()
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

    @needs_dev_shm
    def test_delta_store_round_survives_epoch_changes(self):
        """Commit through the update subsystem between process-backend
        runs: compaction/epoch bumps create new base arrays, so a stale
        shared-memory export keyed to a dead array would surface here —
        and the dead epoch's blocks must not outlive it."""
        from repro import tpch
        from repro.execution.expressions import col
        from repro.tpch.environment import make_environment
        from repro.tpch.harness import build_schemes
        from repro.updates import CompactionPolicy, UpdateSession

        db = tpch.generate(scale_factor=0.002, seed=1234)
        env = make_environment(0.002)
        pdbs = build_schemes(db, env, include=["bdcc"])
        pdb = pdbs["bdcc"]
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
        earlier = backends._STORE.names()  # other tests' blocks, still alive
        try:
            for round_index in range(2):
                ld = db.table_data("lineitem")
                rng = np.random.default_rng(round_index)
                pick = rng.integers(0, db.num_rows("lineitem"), 30)
                rows = {c: v[pick] for c, v in ld.items()}
                rows["l_linenumber"] = (
                    ld["l_linenumber"].max() + 1 + np.arange(30)
                ).astype(ld["l_linenumber"].dtype)
                session.insert_rows("lineitem", rows)
                session.delete_where(
                    "lineitem", col("l_quantity").ge(49.0 - round_index)
                )
                session.commit()
                for qname in ("Q06", "Q01"):
                    sim = QueryRunner(baseline)
                    sim_result = QUERIES[qname](sim)
                    proc = QueryRunner(executor)
                    proc_result = QUERIES[qname](proc)
                    assert _identical(
                        sim_result.relation, proc_result.relation
                    ), (round_index, qname)
                    assert proc.metrics.backend == "process"

            # a compaction rewrites the table into new arrays: the old
            # epoch's column blocks are retired with the arrays, before
            # any query of the new epoch runs ...
            store = backends._STORE
            old_columns = {
                store.export(array)[0]
                for array in pdb.table("lineitem").columns.values()
                if store.exportable(array)
            }
            assert old_columns and old_columns <= _shm_blocks()
            session.policy = CompactionPolicy(max_delta_fraction=0.0, min_delta_rows=1)
            session.delete_where("lineitem", col("l_quantity").ge(47.0))
            assert session.commit().compacted_tables("bdcc") == ["lineitem"]
            gc.collect()
            assert old_columns.isdisjoint(store.names())
            assert old_columns.isdisjoint(_shm_blocks())
            for qname in ("Q06", "Q01"):
                sim_result = QUERIES[qname](QueryRunner(baseline))
                proc_result = QUERIES[qname](QueryRunner(executor))
                assert _identical(sim_result.relation, proc_result.relation), qname
            # ... and what only the executors' caches kept alive (old
            # plans and their per-plan arrays — run lists, here too short
            # to be exported) goes when they drop it: of this test's
            # blocks, exactly the current storage's stay
            for cached in (executor, baseline):
                cached._plan_cache.clear()
                cached._fragment_cache.clear()
            gc.collect()
            storage = []  # every array the current storage graph holds

            class Collect(pickle.Pickler):
                def persistent_id(self, obj):
                    if isinstance(obj, np.ndarray):
                        storage.append(obj)
                        return len(storage)
                    return None

            Collect(io.BytesIO()).dump(pdb.stored)
            assert store.names() - earlier == {
                store.export(array)[0] for array in storage if id(array) in store._exports
            } - earlier
            assert store.names() <= _shm_blocks()
        finally:
            executor.close()
            baseline.close()

    def test_workers_hold_only_live_blocks(self, bdcc_db, environment):
        """Cold executors lower afresh, so every round exports new
        per-plan arrays and retires the previous round's: the store must
        not grow, and no worker may stay attached to a retired block."""
        backends.shutdown()
        live_counts = []
        for _ in range(6):
            for qname in ("Q06", "Q01", "Q03"):
                _run(bdcc_db, environment, qname, workers=2, backend="process")
            gc.collect()
            retirement = backends._STORE.retirement()
            live = backends._STORE.names()
            live_counts.append(len(live))
            probes = [
                backends._pool(2).submit(_worker_attachments, retirement)
                for _ in range(8)
            ]
            attached = dict(probe.result(timeout=30) for probe in probes)
            assert any(attached.values())
            for pid, names in attached.items():
                assert names <= live, (pid, sorted(names - live))
        assert retirement[0] > 0
        assert live_counts[2] == live_counts[5], live_counts

    @needs_dev_shm
    def test_exit_without_close_leaves_nothing_behind(self):
        """A process that runs a process-backend query and just exits —
        no ``close()``, no ``shutdown()`` — unlinks its blocks through
        ``atexit`` and gives the resource tracker nothing to report."""
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
            "assert metrics.backend == 'process' and backends._STORE.names()\n"
            "print('blocks', len(backends._STORE.names()))\n"
        )
        before = _shm_blocks()
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("blocks ")
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
