"""Admission (fairness) policies for the serving queue.

A policy decides *which waiting query is admitted next* whenever a
multiprogramming slot frees up; once admitted, a query's fragments
compete on the shared worker pool under the scheduler's own dispatch
rule (most work first), so fairness is enforced at admission, where a
real system's workload manager enforces it too.

All policies are pure functions of the waiting queue (plus their own
deterministic bookkeeping), so the same seed and policy always produce
the same interleaving — the admission-determinism tests pin this.
"""

from __future__ import annotations

from typing import Dict, Sequence

__all__ = [
    "AdmissionPolicy",
    "FifoPolicy",
    "RoundRobinPolicy",
    "ShortestRemainingPolicy",
    "POLICY_NAMES",
    "create_policy",
]


class AdmissionPolicy:
    """Chooses the next ticket to admit from the waiting queue."""

    name = "abstract"
    #: whether the engine should compute ``estimated_work`` per ticket
    #: (a lowering per submission — only pay it when the policy reads it)
    needs_estimate = False

    def select(self, waiting: Sequence) -> int:
        """Index into ``waiting`` of the ticket to admit.  ``waiting``
        holds the engine's ``QueryTicket`` objects in submission order;
        every ticket carries ``stream``, ``submit_seq`` (global
        submission sequence) and ``estimated_work`` (pure pre-execution
        work proxy)."""
        raise NotImplementedError

    def on_admitted(self, ticket) -> None:  # stateful policies override
        pass

    def reset(self) -> None:
        pass


class FifoPolicy(AdmissionPolicy):
    """First come, first served: global submission order."""

    name = "fifo"

    def select(self, waiting: Sequence) -> int:
        best = min(range(len(waiting)), key=lambda i: waiting[i].submit_seq)
        return best


class RoundRobinPolicy(AdmissionPolicy):
    """Rotate across streams: the stream admitted least recently goes
    first (FIFO within a stream).  Guarantees a waiting stream is never
    starved: with ``S`` active streams it is admitted within ``S``
    consecutive admissions."""

    name = "round-robin"

    def __init__(self) -> None:
        #: stream -> global admission sequence of its last admission
        #: (-1 = never admitted, so new streams go first, by name).
        self._last_admitted: Dict[str, int] = {}
        self._admissions = 0

    def _stream_rank(self, stream: str):
        return (self._last_admitted.get(stream, -1), stream)

    def select(self, waiting: Sequence) -> int:
        best_stream = min(
            {t.stream for t in waiting}, key=self._stream_rank
        )
        return min(
            (i for i, t in enumerate(waiting) if t.stream == best_stream),
            key=lambda i: waiting[i].submit_seq,
        )

    def on_admitted(self, ticket) -> None:
        self._last_admitted[ticket.stream] = self._admissions
        self._admissions += 1

    def reset(self) -> None:
        self._last_admitted = {}
        self._admissions = 0


class ShortestRemainingPolicy(AdmissionPolicy):
    """Shortest remaining makespan first: the waiting query with the
    smallest estimated work (``est_rows`` summed over its lowered
    physical plan — a pure, pre-execution proxy) is admitted first,
    ties by submission order.  Minimizes mean latency at the price of
    possible starvation under sustained load — which is exactly the
    trade the policy tests document."""

    name = "shortest"
    needs_estimate = True

    def select(self, waiting: Sequence) -> int:
        return min(
            range(len(waiting)),
            key=lambda i: (waiting[i].estimated_work, waiting[i].submit_seq),
        )


POLICY_NAMES = ("fifo", "round-robin", "shortest")


def create_policy(name) -> AdmissionPolicy:
    """Instantiate a policy by name (instances pass through, so callers
    can hand the engine a pre-configured or custom policy)."""
    if isinstance(name, AdmissionPolicy):
        return name
    if name == "fifo":
        return FifoPolicy()
    if name == "round-robin":
        return RoundRobinPolicy()
    if name == "shortest":
        return ShortestRemainingPolicy()
    raise ValueError(
        f"unknown admission policy {name!r} (expected one of {POLICY_NAMES})"
    )
