"""Closed-loop query and refresh stream sources for the serving layer.

A *query stream* is a session submitting one query at a time: the next
item is submitted the instant the previous one completes (the TPC-H
throughput test's closed-loop shape).  A *refresh stream* is the same
shape over update batches: the next batch is issued when the previous
commit's charged work finishes (background compaction does not block
it).

Items are materialized **lazily, at submission/commit processing
time**: generated queries and update batches sample literals from the
*current* database content, so the item a stream yields depends on
every commit already applied — which is deterministic because the
engine processes events in a single deterministic order, and which the
differential oracle replays by regenerating the same ``(seed, index)``
sequence in the same recorded order against an identical database.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..planner.executor import ExecutionOptions, Executor
from ..storage.database import Database
from ..tpch.refresh import refresh_pair_size, stage_rf1, stage_rf2
from ..tpch.runner import QueryRunner
from ..updates.session import UpdateSession
from ..workload.generator import PlanGenerator
from ..workload.updates import UpdateGenerator

__all__ = [
    "QueryItem",
    "QueryStream",
    "PlanListStream",
    "GeneratedQueryStream",
    "RefreshStream",
    "GeneratedRefreshStream",
    "TpchRefreshStream",
    "capture_tpch_items",
]


@dataclass
class QueryItem:
    """One submittable query: a logical plan plus its label."""

    plan: object
    description: str


class QueryStream:
    """A named, finite, closed-loop source of queries."""

    def __init__(self, name: str):
        self.name = name

    def item(self, index: int) -> Optional[QueryItem]:
        """The ``index``-th query, or ``None`` when the stream is
        exhausted.  Called exactly once per index, in submission
        order."""
        raise NotImplementedError


class PlanListStream(QueryStream):
    """A fixed list of pre-built logical plans (TPC-H throughput
    streams use this over the captured per-stage plans)."""

    def __init__(
        self,
        name: str,
        plans: Sequence,
        descriptions: Optional[Sequence[str]] = None,
    ):
        super().__init__(name)
        self._plans = list(plans)
        if descriptions is None:
            descriptions = [f"{name}[{i}]" for i in range(len(self._plans))]
        self._descriptions = list(descriptions)

    def item(self, index: int) -> Optional[QueryItem]:
        if index >= len(self._plans):
            return None
        return QueryItem(self._plans[index], self._descriptions[index])


class GeneratedQueryStream(QueryStream):
    """Seeded random queries (:class:`~repro.workload.generator.PlanGenerator`)
    drawn lazily against the stream's database — plan ``index`` samples
    the data as of its submission instant."""

    def __init__(self, name: str, db: Database, seed: int, count: int):
        super().__init__(name)
        self.seed = int(seed)
        self.count = int(count)
        self._generator = PlanGenerator(db)

    def item(self, index: int) -> Optional[QueryItem]:
        if index >= self.count:
            return None
        generated = self._generator.generate(self.seed, index)
        return QueryItem(generated.plan, generated.description)


# ------------------------------------------------------------- refresh
class RefreshStream:
    """A named, finite, closed-loop source of update batches."""

    def __init__(self, name: str):
        self.name = name

    def apply(self, index: int, session: UpdateSession) -> Optional[str]:
        """Buffer the ``index``-th batch into ``session`` (the engine
        commits it), returning its description — or ``None`` when the
        stream is exhausted.  Called exactly once per index, in commit
        order."""
        raise NotImplementedError


class GeneratedRefreshStream(RefreshStream):
    """Seeded random update batches
    (:class:`~repro.workload.updates.UpdateGenerator`), drawn lazily at
    commit time like generated queries are at submission time."""

    def __init__(self, name: str, db: Database, seed: int, rounds: int):
        super().__init__(name)
        self.seed = int(seed)
        self.rounds = int(rounds)
        self._generator = UpdateGenerator(db)

    def apply(self, index: int, session: UpdateSession) -> Optional[str]:
        if index >= self.rounds:
            return None
        batch = self._generator.generate(self.seed, index)
        batch.apply(session)
        return batch.description


class TpchRefreshStream(RefreshStream):
    """TPC-H RF1/RF2 pairs: even indices insert orders+lineitems, odd
    indices delete an equal number of existing orders with their
    lineitems — ``pairs`` pairs in total, batch size from
    :func:`~repro.tpch.refresh.refresh_pair_size`."""

    def __init__(self, name: str, db: Database, seed: int, pairs: int):
        super().__init__(name)
        self.db = db
        self.pairs = int(pairs)
        self._rng = np.random.default_rng(seed)

    def apply(self, index: int, session: UpdateSession) -> Optional[str]:
        if index >= 2 * self.pairs:
            return None
        sf = self.db.scale_factor or 0.01
        batch = refresh_pair_size(sf)
        if index % 2 == 0:
            stage_rf1(session, self.db, self._rng, batch)
            return f"RF1 pair {index // 2 + 1} (+{batch} orders)"
        doomed = stage_rf2(session, self.db, self._rng, batch)
        return f"RF2 pair {index // 2 + 1} (-{doomed} orders)"


# ----------------------------------------------------- TPC-H capture
def capture_tpch_items(
    pdb,
    queries: Dict[str, Callable],
    disk=None,
    costs=None,
) -> List[QueryItem]:
    """Per-stage logical plans of TPC-H query functions, captured by
    running each once serially.  Multi-stage queries (Q11/Q15/Q22)
    expand into one item per stage, labelled ``Q15/s2``; their later
    stages carry literals computed from the capture-time state, which
    is exact for read-only serving and an accepted approximation when
    refresh streams run concurrently (the serving differential uses
    generated streams, which are re-drawn per submission instead)."""
    items: List[QueryItem] = []
    options = ExecutionOptions(workers=1)
    with Executor(pdb, disk=disk, costs=costs, options=options) as executor:
        for qname, fn in queries.items():
            runner = QueryRunner(executor)
            fn(runner)
            stages = runner.logical_plans
            for position, plan in enumerate(stages):
                label = (
                    qname if len(stages) == 1
                    else f"{qname}/s{position + 1}"
                )
                items.append(QueryItem(plan, label))
    return items
