"""Disk model: sequential vs. random access timing and ``A_R``.

The paper's key storage insight: for any device there is an *efficient
random access size* ``A_R`` such that random reads of at least that size
approach sequential throughput (their example: ~a few MB on magnetic
disk, 32 KB on flash [5]).  We model a device by its sequential bandwidth
and a fixed per-access latency; a random access of ``s`` bytes then runs
at efficiency ``s / (s + latency*bandwidth)``, so

    ``A_R(target) = latency * bandwidth * target / (1 - target)``

e.g. an 80 % target gives ``A_R = 4 * latency * bandwidth``.  The default
device matches the paper's SSD RAID: 1 GB/s sequential, latency chosen so
that ``A_R(80%) = 32 KB``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = ["DiskModel", "PAPER_SSD"]


@dataclass(frozen=True)
class DiskModel:
    """A storage device for cold-scan timing."""

    sequential_bandwidth: float = 1e9  # bytes / second
    access_latency: float = 32 * 1024 / (4 * 1e9)  # seconds per random access
    #: how many concurrent streams the device serves at full per-stream
    #: bandwidth before they start sharing (the paper's RAID0 of 4 SSDs:
    #: one synchronous reader cannot keep all channels busy, so up to 4
    #: workers each see full sequential speed; beyond that, streams
    #: proportionally share).  Used by the parallel scheduler only —
    #: serial timing is unaffected.
    parallel_streams: int = 4

    def stream_rate(self, concurrent_streams: int) -> float:
        """Fraction of full per-stream bandwidth each of
        ``concurrent_streams`` simultaneous readers receives."""
        if concurrent_streams <= self.parallel_streams:
            return 1.0
        return self.parallel_streams / float(concurrent_streams)

    def transfer_time(self, num_bytes: float) -> float:
        return num_bytes / self.sequential_bandwidth

    def access_time(self, num_bytes: float) -> float:
        """One random access of ``num_bytes``."""
        return self.access_latency + self.transfer_time(num_bytes)

    def time_for_runs(self, run_bytes: Iterable[float]) -> float:
        """Total time for a list of separate (randomly placed) runs."""
        total = 0.0
        for size in run_bytes:
            if size > 0:
                total += self.access_time(size)
        return total

    def efficient_access_size(self, target_efficiency: float = 0.8) -> float:
        """``A_R``: the access size whose throughput reaches the target
        fraction of sequential throughput."""
        if not 0 < target_efficiency < 1:
            raise ValueError("target efficiency must be in (0, 1)")
        return (
            self.access_latency
            * self.sequential_bandwidth
            * target_efficiency
            / (1 - target_efficiency)
        )

    def efficiency(self, access_bytes: float) -> float:
        """Fraction of sequential throughput achieved by random accesses
        of the given size."""
        if access_bytes <= 0:
            return 0.0
        return self.transfer_time(access_bytes) / self.access_time(access_bytes)


#: the paper's storage: RAID0 of 4 SSDs, ~1 GB/s, A_R(80%) = 32 KB flash.
PAPER_SSD = DiskModel()
