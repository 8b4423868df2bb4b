"""MVCC-style epoch snapshots for concurrent readers.

The engine's storage is merge-on-read and its stored tables are
values: a commit publishes the next version of each table it touches —
one more delta run or deletion mask, ``epoch + 1`` — all at once or
not at all, and compaction publishes a version with the deltas folded
into the base.  A plan holds the versions it was lowered against; the
serving layer gets snapshot isolation from the execute/schedule split:
a query's fragments are **physically executed at its admission
instant**, in program order, before any later commit publishes, while
their *time* interleaves with other queries and commit work on the
shared simulated timeline.  The snapshot object
records the per-table epochs the query was admitted under; it is the
proof obligation, not the mechanism — the engine asserts the epochs are
unchanged across the physical run (reads never mutate), and the
differential oracle replays each query solo at the same epoch state to
check bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import ReproError
from ..schemes.base import PhysicalDatabase

__all__ = ["EpochSnapshot", "SnapshotViolation"]


class SnapshotViolation(ReproError, RuntimeError):
    """A query's pinned epochs changed while it was being executed —
    something mutated storage inside a read, breaking the serving
    layer's snapshot-isolation invariant."""


@dataclass(frozen=True)
class EpochSnapshot:
    """The per-table epochs one query pinned at admission."""

    scheme: str
    epoch: int
    table_epochs: Tuple[Tuple[str, int], ...]

    @classmethod
    def pin(cls, pdb: PhysicalDatabase) -> "EpochSnapshot":
        return cls(
            scheme=pdb.scheme_name,
            epoch=pdb.epoch,
            table_epochs=tuple(
                sorted((name, stored.epoch) for name, stored in pdb.stored.items())
            ),
        )

    def as_dict(self) -> Dict[str, int]:
        return dict(self.table_epochs)

    def matches(self, pdb: PhysicalDatabase) -> bool:
        return EpochSnapshot.pin(pdb) == self

    def divergence(self, pdb: PhysicalDatabase) -> List[str]:
        """Tables whose epoch moved since the pin (for diagnostics)."""
        current = EpochSnapshot.pin(pdb).as_dict()
        pinned = self.as_dict()
        return sorted(
            name
            for name in set(current) | set(pinned)
            if current.get(name) != pinned.get(name)
        )

    def check(self, pdb: PhysicalDatabase) -> None:
        if not self.matches(pdb):
            raise SnapshotViolation(
                f"epochs moved under an in-flight read of scheme "
                f"{self.scheme!r}: {self.divergence(pdb)}"
            )
