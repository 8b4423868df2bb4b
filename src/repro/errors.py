"""The named errors of the engine.

Every error the engine raises on purpose derives from :class:`ReproError`,
so a caller can tell a defined failure from a bug.  Each type also keeps
the builtin base its callers caught before it had a name:

* :class:`~repro.catalog.schema.SchemaError` — a malformed schema
  (a ``ValueError``);
* :class:`~repro.serving.snapshot.SnapshotViolation` — storage changed
  under an in-flight read (a ``RuntimeError``);
* :class:`WorkerLost` — a process-backend worker died mid-query;
* :class:`FragmentFailed` — a fragment raised in a pool worker;
* :class:`CommitAborted` — an :class:`~repro.updates.UpdateSession`
  commit failed before it published, and changed nothing;
* :class:`DataflowError` — work waits on input that can never come: a
  fragment dependency cycle, a serving deadlock, or a fragment reading
  a producer result that is not there;
* :class:`CorruptArtifact` — a query log, trace or ledger on disk that
  does not parse, or a ledger refused for append (a ``ValueError``).

Each is raised chained to its cause (``raise ... from error``).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "WorkerLost",
    "FragmentFailed",
    "CommitAborted",
    "DataflowError",
    "CorruptArtifact",
]


class ReproError(Exception):
    """Base of every error the engine raises on purpose."""


class WorkerLost(ReproError, RuntimeError):
    """A process-backend pool worker died (killed or crashed); the query
    was abandoned and the pool discarded."""


class FragmentFailed(ReproError, RuntimeError):
    """A fragment raised in a process-backend pool worker; the query was
    abandoned, the pool keeps serving."""


class CommitAborted(ReproError):
    """A commit failed before it published: no table, epoch or counter
    moved, and the session still holds the buffered changes."""


class DataflowError(ReproError, RuntimeError):
    """Work waits on input that can never come: registered fragments
    whose dependencies form a cycle, queries waiting in a serving loop
    with nothing in flight, or an exchange leaf run outside the parallel
    scheduler (its producer's result is not there)."""


class CorruptArtifact(ReproError, ValueError):
    """An artifact on disk is damaged: a query-log line or a trace or
    ledger document that is not JSON, or a ledger the reader has a
    problem with, which is refused for append and left untouched."""
