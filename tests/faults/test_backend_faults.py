"""The process backend after an aborted commit: the pool keeps serving
the tables it inherited, because the abort published nothing."""

import multiprocessing

import pytest

from repro.errors import CommitAborted
from repro.execution.expressions import col
from repro.observe.registry import REGISTRY
from repro.parallel import backends
from repro.updates import CompactionPolicy, UpdateSession
from repro.updates import session as session_module

from ..parallel.test_backends import _identical, _run
from ..watchdog import guarded
from .conftest import assert_scans_match, lineitem_batch


@pytest.fixture
def fresh_pool():
    backends.shutdown()
    yield
    backends.shutdown()  # ... and no later test inherits this database


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the process backend forks its workers",
)
def test_the_old_pool_keeps_serving_after_an_aborted_commit(
    faulted, monkeypatch, fresh_pool
):
    db, env, pdbs = faulted
    pdb = pdbs["bdcc"]
    replica = pdb.replicas["lineitem"][0]
    for qname in ("Q06", "Q01"):  # forks the pool, from the main thread
        _run(pdb, env, qname, workers=2, backend="process")
    assert backends._POOL is not None
    starts = REGISTRY.get("process_backend.pool_starts")

    real = session_module.place_delta_run

    def place(stored, *args):
        if stored is replica:
            raise ValueError("placement failed on the lineitem replica")
        return real(stored, *args)

    monkeypatch.setattr(session_module, "place_delta_run", place)
    session = UpdateSession(pdb, policy=CompactionPolicy(max_delta_fraction=None))
    session.insert_rows("lineitem", lineitem_batch(db))
    session.delete_where("lineitem", col("l_quantity").ge(48.0))
    error = guarded(session.commit).get("error")
    assert isinstance(error, CommitAborted), error

    for qname in ("Q06", "Q01"):
        proc_rel, proc_metrics = guarded(
            lambda: _run(pdb, env, qname, workers=2, backend="process")
        )["value"]
        sim_rel, sim_metrics = _run(pdb, env, qname, workers=2)
        assert _identical(sim_rel, proc_rel), qname
        assert proc_metrics.backend == "process"
        assert proc_metrics.makespan_seconds == sim_metrics.makespan_seconds
    assert REGISTRY.get("process_backend.pool_starts") == starts
    assert_scans_match(db, env, {"bdcc": pdb})
