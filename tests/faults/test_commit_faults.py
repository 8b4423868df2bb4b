"""A commit that fails leaves nothing behind; one whose compaction fails
stays published.

Each case injects its fault into the write path production runs, under
a watchdog (a fault must end in an error, never a hang), and ends by
holding every scheme's scan of the touched tables to the logical
database.
"""

import pytest

from repro.errors import CommitAborted
from repro.execution.expressions import Expr, col
from repro.observe.registry import REGISTRY
from repro.planner.executor import Executor
from repro.planner.logical import scan
from repro.updates import CompactionPolicy, UpdateSession
from repro.updates import session as session_module

from ..watchdog import guarded
from .conftest import assert_scans_match, lineitem_batch

NO_COMPACTION = CompactionPolicy(max_delta_fraction=None)
ALWAYS_COMPACT = CompactionPolicy(max_delta_fraction=0.0, min_delta_rows=1)


class InjectedFault(Exception):
    """The error a fault case raises inside a commit."""


class _FailsOn(Expr):
    """``inner``, except that while ``armed``, evaluating it over
    ``target``'s base columns raises: a delete that fails on one stored
    copy."""

    def __init__(self, inner: Expr, target):
        self.inner, self.target, self.armed = inner, target, True

    def eval(self, rel):
        reads = next(iter(self.inner.columns()))
        if self.armed and rel.column(reads) is self.target.columns[reads]:
            raise InjectedFault(f"delete failed on a copy of {self.target.name}")
        return self.inner.eval(rel)

    def columns(self):
        return self.inner.columns()


def _state(db, pdbs):
    """Everything a commit may publish, by identity."""
    return (
        {t: db.table_data(t) for t in db.loaded_tables},
        {
            name: (dict(pdb.stored), {t: list(c) for t, c in pdb.replicas.items()})
            for name, pdb in pdbs.items()
        },
    )


def _assert_same_objects(before, after) -> None:
    (tables, physical), (tables_now, physical_now) = before, after
    assert tables.keys() == tables_now.keys()
    assert all(tables_now[t] is tables[t] for t in tables)
    for name, (stored, replicas) in physical.items():
        stored_now, replicas_now = physical_now[name]
        assert stored_now.keys() == stored.keys()
        assert all(stored_now[t] is stored[t] for t in stored), name
        assert replicas_now.keys() == replicas.keys()
        for table, copies in replicas.items():
            assert len(replicas_now[table]) == len(copies)
            assert all(a is b for a, b in zip(replicas_now[table], copies)), name


def _copies(pdbs, table):
    return [copy for pdb in pdbs.values() for copy in pdb.stored_copies(table)]


# the second copy overall (pk's), and the second copy of one database
# (the BDCC database's LINEITEM replica)
SECOND_COPIES = {"pk": 1, "replica": 3}


@pytest.mark.parametrize("phase", ["insert", "delete"])
@pytest.mark.parametrize("second", sorted(SECOND_COPIES))
def test_a_failure_on_a_second_copy_aborts_the_whole_commit(
    faulted, monkeypatch, phase, second
):
    db, env, pdbs = faulted
    target = _copies(pdbs, "lineitem")[SECOND_COPIES[second]]
    plan = scan("lineitem", predicate=col("l_quantity").ge(30.0))
    executors = {
        name: Executor(pdb, disk=env.disk, costs=env.cost_model)
        for name, pdb in pdbs.items()
    }
    cached = {name: ex.lower(plan) for name, ex in executors.items()}

    session = UpdateSession(*pdbs.values(), policy=NO_COMPACTION)
    session.insert_rows("lineitem", lineitem_batch(db))
    heavy = _FailsOn(col("l_quantity").ge(48.0), target)
    session.delete_where("lineitem", heavy)
    if phase == "insert":
        heavy.armed = False
        real = session_module.place_delta_run

        def place(stored, *args):
            if stored is target:
                raise InjectedFault("placement failed on a copy of lineitem")
            return real(stored, *args)

        monkeypatch.setattr(session_module, "place_delta_run", place)

    before = _state(db, pdbs)
    epochs = {name: pdb.epoch for name, pdb in pdbs.items()}
    counters = [REGISTRY.get(c) for c in ("commits", "epochs_bumped")]
    rows = db.num_rows("lineitem")

    error = guarded(session.commit).get("error")
    assert isinstance(error, CommitAborted), error
    assert isinstance(error.__cause__, InjectedFault)
    _assert_same_objects(before, _state(db, pdbs))
    assert db.num_rows("lineitem") == rows
    assert {name: pdb.epoch for name, pdb in pdbs.items()} == epochs
    assert [REGISTRY.get(c) for c in ("commits", "epochs_bumped")] == counters
    for name, executor in executors.items():
        assert executor.lower(plan) is cached[name], name
    assert_scans_match(db, env, pdbs)

    # the buffered changes are still queued: without the fault they commit
    monkeypatch.undo()
    heavy.armed = False
    result = guarded(session.commit)["value"]
    assert result.inserted == {"lineitem": 24} and result.deleted["lineitem"] > 0
    assert {name: pdb.epoch for name, pdb in pdbs.items()} == {
        name: epochs[name] + len(pdb.stored_copies("lineitem"))
        for name, pdb in pdbs.items()
    }
    assert REGISTRY.get("commits") == counters[0] + 1
    assert all(copy.has_delta for copy in _copies(pdbs, "lineitem"))
    for name, executor in executors.items():
        assert executor.lower(plan) is not cached[name], name
    assert_scans_match(db, env, pdbs)


def test_a_failed_compaction_leaves_the_commit_published(faulted, monkeypatch):
    db, env, pdbs = faulted
    pdbs = {"bdcc": pdbs["bdcc"]}

    def compact(*args):
        raise InjectedFault("compaction failed")

    monkeypatch.setattr(session_module, "compact_table", compact)
    session = UpdateSession(*pdbs.values(), policy=ALWAYS_COMPACT)
    session.insert_rows("lineitem", lineitem_batch(db, seed=1))
    commits = REGISTRY.get("commits")
    rows = db.num_rows("lineitem")

    error = guarded(session.commit).get("error")
    assert isinstance(error, InjectedFault), error
    assert REGISTRY.get("commits") == commits + 1
    assert db.num_rows("lineitem") == rows + 24  # the commit's rows are visible ...
    lineitem = pdbs["bdcc"].table("lineitem")
    assert lineitem.has_delta and lineitem.delta.live_delta_rows == 24  # ... uncompacted
    assert_scans_match(db, env, pdbs)

    # the next commit touching the table compacts it
    monkeypatch.undo()
    session.insert_rows("lineitem", lineitem_batch(db, seed=2))
    result = guarded(session.commit)["value"]
    assert result.compacted_tables() == ["lineitem"]
    assert all(not copy.has_delta for copy in pdbs["bdcc"].stored_copies("lineitem"))
    assert db.num_rows("lineitem") == rows + 48
    assert_scans_match(db, env, pdbs)
