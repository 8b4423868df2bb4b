"""Simulated evaluation environment scaled to the data volume.

The paper's storage geometry: 32 KB pages, flash ``A_R`` = 32 KB (so
``A_R`` = page), 1 GB/s sequential RAID bandwidth, and tables of 10^4-10^6
pages at SF100.  Running the reproduction at small scale factors with the
*absolute* 32 KB geometry would leave tables only a handful of pages and
groups wide — count-table granularity selection and zone maps would be
artificially coarse.

``make_environment`` therefore scales the page size (and with it ``A_R``
and the access latency, preserving ``A_R(80%) == page``) linearly with
the scale factor, clamped to [256 B, 32 KB].  Below SF 1 a table then
spans the page count it has at SF 1 — 1/100 of the paper's SF100 counts
(fewer below SF ~0.008, where the 256 B floor holds) — so Algorithm 1
picks granularities that do not shrink with the data (LINEITEM gets
``ceil(log2(pages(l_comment)))`` bits, the paper's rule) and MinMax
pruning has SF 1's resolution, not SF100's.  All three schemes share the
device, so comparisons stay apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.advisor import AdvisorConfig
from ..core.bdcc_table import BDCCBuildConfig
from ..execution.cost import CostModel
from ..storage.io_model import DiskModel
from ..storage.pages import PageModel

__all__ = ["Environment", "make_environment", "PAPER_SF", "PAPER_PAGE_BYTES"]

PAPER_SF = 100.0
PAPER_PAGE_BYTES = 32 * 1024
PAPER_BANDWIDTH = 1e9  # bytes/s, the RAID0 of 4 SSDs


@dataclass(frozen=True)
class Environment:
    """Device + build configuration for one benchmark run."""

    scale_factor: float
    page_model: PageModel
    disk: DiskModel
    build_config: BDCCBuildConfig
    cost_model: CostModel

    def advisor_config(self, **overrides) -> AdvisorConfig:
        config = AdvisorConfig(build=self.build_config)
        for key, value in overrides.items():
            setattr(config, key, value)
        return config


def scaled_page_bytes(scale_factor: float) -> int:
    """Page size scaled so tables span SF 1's page *counts* below SF 1.

    ``page = 32 KB * SF`` (clamped to [256 B, 32 KB]): at SF >= 1 the
    paper's absolute page is used; below that, shrinking the page keeps
    page counts — granularity and zone-map resolution — at SF 1's."""
    raw = PAPER_PAGE_BYTES * scale_factor
    return int(min(PAPER_PAGE_BYTES, max(256, raw)))


def make_environment(scale_factor: float, bandwidth: float = PAPER_BANDWIDTH) -> Environment:
    """The simulated device and Algorithm-1 configuration for a run.

    At ``scale_factor >= 100`` this is exactly the paper's geometry.
    """
    page_bytes = scaled_page_bytes(scale_factor)
    # latency such that A_R(80%) == page size, as on the paper's flash
    latency = page_bytes / (4.0 * bandwidth)
    disk = DiskModel(sequential_bandwidth=bandwidth, access_latency=latency)
    build = BDCCBuildConfig(efficient_access_bytes=float(page_bytes))
    # cache capacities scaled like the page size: operator state that
    # would blow the paper machine's 32KB/256KB/4MB caches at SF100 must
    # blow the scaled caches at small SF, or the cache side of sandwich
    # processing would vanish from the simulation
    ratio = page_bytes / PAPER_PAGE_BYTES
    costs = CostModel(
        l1_bytes=32 * 1024 * ratio,
        l2_bytes=256 * 1024 * ratio,
        l3_bytes=4 * 1024 * 1024 * ratio,
    )
    return Environment(
        scale_factor=scale_factor,
        page_model=PageModel(page_bytes=page_bytes),
        disk=disk,
        build_config=build,
        cost_model=costs,
    )
