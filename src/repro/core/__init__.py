"""BDCC core: dimensions, interleaving, Algorithms 1 & 2, scatter scan."""

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
from .scatter_scan import ScanResult, ScatterScan
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
    "ScanResult",
    "ScatterScan",
    "UseScore",
    "WorkloadAnalyzer",
    "prune_design",
    "design_report",
]
