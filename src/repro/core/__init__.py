"""BDCC core: dimensions, interleaving, count tables, Algorithms 1 & 2.

The paper's §II scan has no class of its own here: the one
``PhysicalScan`` reads a BDCC table through its count table (pushdown,
group ids per entry), and a sandwich join charges scatter-order delivery
of its inputs as ``2 × num_groups`` random accesses."""

from .advisor import AdvisorConfig, SchemaAdvisor, SchemaDesign
from .bdcc_table import BDCCBuildConfig, BDCCTable, build_bdcc_table
from .binning import KeyEncoder, equi_frequency_cuts
from .bits import (
    bits_needed,
    gather_use_bits,
    mask_from_string,
    mask_positions,
    mask_to_string,
    ones,
    scatter_bins_into_key,
    truncate_mask,
)
from .count_table import CountTable
from .dimension import Dimension
from .dimension_use import DimensionUse, check_bdcc_constraints
from .histograms import GranularityStats, choose_granularity, collect_granularity_stats
from .interleave import assign_masks, assign_masks_major_minor
from .report import design_report
from .workload import UseScore, WorkloadAnalyzer, prune_design

__all__ = [
    "AdvisorConfig",
    "SchemaAdvisor",
    "SchemaDesign",
    "BDCCBuildConfig",
    "BDCCTable",
    "build_bdcc_table",
    "KeyEncoder",
    "equi_frequency_cuts",
    "bits_needed",
    "gather_use_bits",
    "mask_from_string",
    "mask_positions",
    "mask_to_string",
    "ones",
    "scatter_bins_into_key",
    "truncate_mask",
    "CountTable",
    "Dimension",
    "DimensionUse",
    "check_bdcc_constraints",
    "GranularityStats",
    "choose_granularity",
    "collect_granularity_stats",
    "assign_masks",
    "assign_masks_major_minor",
    "UseScore",
    "WorkloadAnalyzer",
    "prune_design",
    "design_report",
]
