"""Property propagation through plans: selections and result contracts.

Two pure analyses live here:

* **Selection propagation** between co-clustered tables — the heart of
  BDCC query processing (benefit (ii) of Section II): a selection on a
  dimension — or on a table joined to it, like a region filter above
  NATION — restricts the qualifying *bins* of that dimension, and every
  co-clustered table in the query can skip the non-qualifying groups of
  its count table.  For each BDCC scan and each of its dimension uses we
  check that the use's foreign-key path is actually realised by the
  query's joins (with join kinds that filter the scanned side — see
  :meth:`FKEdge.filters_child`), evaluate the predicates sitting on the
  dimension's host table (recursively restricted through the host's own
  filtering parents, which is how ``r_name = 'ASIA'`` reaches D_NATION),
  and translate the surviving key values into a bin restriction.  Each
  distinct qualifying key tuple is encoded and binned once: qualifying
  ORDERS rows hold at most the ~2 400 distinct ``o_orderdate`` values of
  TPC-H's seven years, whatever the scale factor.

* **Result-contract propagation** over an already-lowered physical
  plan (:func:`compute_order_contracts`): for every operator, whether a
  *reordering* exchange (the co-partitioned join gather, whose stream is
  a deterministic multiset but not the serial row order) may be
  introduced at or below it without breaking anything above.  Operators
  declare their needs on the class (``PhysicalOp.ordered_inputs``,
  ``Sort.restores_order``); this walk turns those local declarations
  into the per-node admissibility the fragmenting pass consults before
  trading the bit-identical contract for the order-insensitive one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..execution.aggregate import group_rows
from ..execution.operators import Join, PhysicalOp
from ..execution.relation import Relation
from ..storage.database import Database
from .analysis import PlanAnalysis

__all__ = [
    "ScanRestrictions",
    "compute_restrictions",
    "ResultContract",
    "compute_order_contracts",
]

#: per alias: list of (use_index, allowed_bins, bin_bits)
ScanRestrictions = Dict[str, List[Tuple[int, np.ndarray, int]]]


class _HostEvaluator:
    """Evaluates, per alias, which base-table rows can qualify given the
    alias's own scan predicate and its filtering parents.

    With ``local_only`` the parent joins are ignored: only the scan's own
    predicate restricts (the pushdown-without-propagation ablation).
    """

    def __init__(self, db: Database, analysis: PlanAnalysis, local_only: bool = False):
        self._db = db
        self._analysis = analysis
        self._local_only = local_only
        self._memo: Dict[str, Optional[np.ndarray]] = {}

    def qualifying_mask(self, alias: str) -> Optional[np.ndarray]:
        """Boolean mask over the base table's rows, or None = all rows."""
        if alias in self._memo:
            return self._memo[alias]
        self._memo[alias] = None  # cycle guard (FK graphs are acyclic anyway)
        scan = self._analysis.scans[alias]
        version = self._db.version(scan.table)
        mask: Optional[np.ndarray] = None
        if scan.predicate is not None:
            # derived once per piece of the table (its base and each run),
            # whichever lowering asks first: a commit pays for its runs only
            mask = version.derive_per_piece(
                ("holds", scan.prefix, scan.predicate),
                lambda columns: scan.predicate.holds(_environment(scan, columns)),
            )
        if self._local_only:
            self._memo[alias] = mask
            return mask
        for edge in self._analysis.usable_edges_from(alias):
            parent_mask = self.qualifying_mask(edge.parent_alias)
            if parent_mask is None:
                continue
            fk = self._db.schema.foreign_key(edge.fk_name)
            parent_data = self._db.table_data(fk.parent_table)
            surviving = _key_membership(
                [version[c] for c in fk.child_columns],
                [parent_data[c][parent_mask] for c in fk.parent_columns],
            )
            mask = surviving if mask is None else (mask & surviving)
        self._memo[alias] = mask
        return mask


def _environment(scan, columns) -> Relation:
    """The columns a scan's predicate reads, under the scan's prefixed
    names (one, for the row count, when it reads none)."""
    names = scan.predicate.columns() or [scan.prefix + name for name in list(columns)[:1]]
    return Relation({name: columns[name[len(scan.prefix):]] for name in names})


def _key_membership(child_cols: List[np.ndarray], parent_cols: List[np.ndarray]) -> np.ndarray:
    """Mask over child rows whose key tuple appears among parent keys."""
    if len(child_cols) == 1:
        return np.isin(child_cols[0], parent_cols[0])
    # per-column membership over-approximates tuple membership; pruning
    # supersets are sound (the residual joins still apply)
    mask = np.ones(len(child_cols[0]), dtype=bool)
    for child, parent in zip(child_cols, parent_cols):
        mask &= np.isin(child, parent)
    return mask


def compute_restrictions(
    db: Database,
    analysis: PlanAnalysis,
    bdcc_tables: Dict[str, object],
    alias_tables: Dict[str, str],
    local_only: bool = False,
) -> ScanRestrictions:
    """Bin restrictions for every BDCC-clustered scan in the plan.

    Args:
        db: logical database (dimension hosts are evaluated against it).
        analysis: join graph + aliases of the plan.
        bdcc_tables: table name -> :class:`BDCCTable` of the active scheme.
        alias_tables: alias -> base table name.
        local_only: restrict only from each scan's own predicate on local
            dimensions (disables propagation — ablation mode).
    """
    evaluator = _HostEvaluator(db, analysis, local_only=local_only)
    restrictions: ScanRestrictions = {}
    for alias, scan in analysis.scans.items():
        bdcc = bdcc_tables.get(scan.table)
        if bdcc is None:
            continue
        entries: List[Tuple[int, np.ndarray, int]] = []
        for use_index, use in enumerate(bdcc.uses):
            if local_only and use.path:
                continue
            host_alias = analysis.walk_path(alias, use.path)
            if host_alias is None:
                continue
            host_scan = analysis.scans[host_alias]
            if host_scan.table != use.dimension.table:
                continue  # path matched FKs but lands elsewhere (shouldn't happen)
            mask = evaluator.qualifying_mask(host_alias)
            if mask is None or bool(mask.all()):
                continue
            host_data = db.table_data(host_scan.table)
            key_values = [host_data[a][mask] for a in use.dimension.key]
            if len(key_values[0]) == 0:
                bins = np.zeros(0, dtype=np.uint64)
            else:
                # bin each distinct qualifying key tuple once
                _, first_rows, _ = group_rows(key_values)
                distinct = [values[first_rows] for values in key_values]
                codes = use.dimension.encoder.encode(distinct)
                bins = np.unique(use.dimension.bin_of_codes(codes))
            if len(bins) >= use.dimension.num_bins:
                continue  # no pruning power
            entries.append((use_index, bins, use.dimension.bits))
        if entries:
            restrictions[alias] = entries
    return restrictions


# ------------------------------------------------------ result contracts
@dataclass(frozen=True)
class ResultContract:
    """The order contract at one physical-plan node.

    ``reorder_admissible`` answers: may an exchange that *reorders* rows
    (a co-partitioned join's canonical gather) be introduced at or below
    this node?  True means every operator between this node and the plan
    root either carries row order transparently (filters, projections,
    hash-family joins and aggregations — a reorder below them changes
    their output order but never their output multiset) or re-sorts
    (:class:`~repro.execution.operators.Sort`, whose tie-breaks then
    resolve by the gather's deterministic canonical order instead of the
    serial order).  False means some ancestor *requires* serially
    ordered input — a merge join, a streaming aggregation, or a LIMIT
    prefix not re-established by a sort in between — and the subtree
    must keep the bit-identical contract.
    """

    reorder_admissible: bool = True


def _order_free_children(op: PhysicalOp) -> Tuple[str, ...]:
    """Child attributes whose row order cannot influence the operator's
    output at all: the probed-for-membership side of a semi/anti hash
    or sandwich join (only key membership matters, never match order).
    Not a merge join's: merging needs both sides ordered."""
    if isinstance(op, Join) and op.strategy != "merge" and op.how in ("semi", "anti"):
        return ("right",)
    return ()


def _named_children(op: PhysicalOp):
    for name in ("input", "left", "right"):
        child = getattr(op, name, None)
        if isinstance(child, PhysicalOp):
            yield name, child


def compute_order_contracts(root: PhysicalOp) -> Dict[int, ResultContract]:
    """Propagate order requirements top-down over a lowered plan.

    Pure and deterministic, like lowering itself.  Returns a map from
    operator identity (``id(op)``) to its :class:`ResultContract`; the
    fragmenting pass consults it before replacing a join's bit-identical
    broadcast split with a reordering co-partitioned split.  The plan
    root is admissible: a query's *top-level* contract under reordering
    exchanges is the canonical (fragment-key) order — deterministic
    across runs, compared order-insensitively by the workload oracle.

    One deliberate trade rides on ``Sort.restores_order``: a stable
    sort's ties resolve by input order, so below a LIMIT whose sort
    keys do not totally order the data, a reorder can change which of
    two *equal-ranking* rows the prefix keeps (similarly, re-aggregated
    float sort keys can re-rank rows within an ulp).  Row selection
    then still is deterministic — canonical order instead of serial
    order — but no longer guaranteed the serial multiset.  The
    workload generator only emits LIMIT above total-order sorts, so
    the differential sweep is immune by construction; TPC-H Q3/Q18
    would need two rows tying on all sort keys exactly at the limit
    boundary, and the oracle/tests flag it loudly if a dataset ever
    produces one.
    """
    contracts: Dict[int, ResultContract] = {}

    def walk(op: PhysicalOp, admissible: bool) -> None:
        contracts[id(op)] = ResultContract(reorder_admissible=admissible)
        order_free = _order_free_children(op)
        for name, child in _named_children(op):
            if op.restores_order or name in order_free:
                child_ok = True
            elif name in op.ordered_inputs:
                child_ok = False
            else:
                child_ok = admissible
            walk(child, child_ok)
        # gather-style operators (tuple children) are transparent
        for child in op.children():
            if id(child) not in contracts:
                walk(child, admissible)

    walk(root, True)
    return contracts
