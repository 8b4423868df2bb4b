"""Seventh pillar: the incremental update subsystem.

Delta stores per stored table (:mod:`repro.updates.delta`), the buffered
:class:`UpdateSession` write API (:mod:`repro.updates.session`), and the
deterministic compaction policy (:mod:`repro.updates.compaction`).  Reads
merge base and delta state through
:attr:`~repro.execution.operators.PhysicalScan.delta_selected`; every commit
publishes the next version of each table it touches, one epoch on, so plan
caches invalidate.
"""

from .compaction import CompactionPolicy, compact_table
from .delta import DeltaRun, DeltaStore, place_delta_run
from .session import CommitResult, TableChange, UpdateSession

__all__ = [
    "CompactionPolicy",
    "compact_table",
    "DeltaRun",
    "DeltaStore",
    "place_delta_run",
    "CommitResult",
    "TableChange",
    "UpdateSession",
]
