"""Fragment planning: split a physical plan along partition boundaries.

The lowering pass emits one serial operator tree; this second (also
pure) pass cuts it into *fragments* — subplans that simulated workers
can execute independently — along the boundaries the storage layer
already maintains:

* **BDCC tables** split at *zone* boundaries (count-table group starts):
  the same ranges sandwich operators exploit are independently scannable
  chunks of the key-sorted storage;
* **Plain/PK tables** split at *page-range* boundaries of the widest
  demanded column, so partition IO stays page-granular.

A split propagates up through *partition-transparent* operators — per-row
Filter/Project, and joins along their order-carrying (probe) side.
Joins themselves split one of two ways:

* **broadcast** (any scheme): the probe side is partitioned and the
  other side becomes a broadcast fragment executed once and shipped to
  every partition via :class:`~repro.parallel.exchange.Repartition`;
* **co-partitioned** (sandwich joins, when the plan's result contracts
  admit it): *both* sides are split along the shared BDCC dimension
  bits the join is sandwiched on.  Each side's subtree runs as producer
  fragments (re-using the ordinary zone-aligned split where possible),
  and every join partition reads them through a rebinning
  :class:`~repro.parallel.exchange.Repartition` that keeps only the
  rows of its bin range — equal join keys imply equal bins, so matches
  are always co-located and the build side is never duplicated.

Pipeline breakers (aggregation, sort, limit) stop the split: partitions
are gathered below them by a :class:`~repro.parallel.exchange.UnionAll`
over :class:`~repro.parallel.exchange.Exchange` leaves, and the
remainder of the plan runs as the **final** serial fragment.  Subtrees
with no splittable scan (or too few rows to be worth a fragment) simply
stay serial — fragmenting never fails, it degrades to the serial plan.

Two result contracts govern the gathers (docs/execution-model.md):

* ordinary splits keep partitions as contiguous ascending storage
  ranges, so the ordered gather is *bit-identical* to the serial stream
  — the basis for the workload oracle checking such parallel plans
  bit-for-bit against serial execution;
* a co-partitioned join's partitions are bin-major, so its gather is
  ``preserve_order=False`` (``canonical``): a deterministic canonical
  order (fragment-key concatenation) with the same row multiset as the
  serial plan but not its row order.  The fragmenter only chooses this
  split where the lowering's
  :class:`~repro.planner.propagation.ResultContract` says no ancestor
  requires serial order, and the workload oracle compares such plans
  order-insensitively.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.selection import Selection
from ..execution.aggregate import decompose_aggs
from ..execution.operators import (
    Aggregate,
    Join,
    Limit,
    PhysicalFilter,
    PhysicalOp,
    PhysicalProject,
    PhysicalScan,
    Sort,
    walk_physical,
)
from .exchange import Exchange, Repartition, UnionAll

__all__ = [
    "Fragment",
    "ParallelPlan",
    "plan_fragments",
    "serial_plan",
    "DEFAULT_MIN_PARTITION_ROWS",
    "MIN_COPARTITION_PARTS",
    "PARTIAL_AGG_SHRINK",
]

#: below this many selected rows a scan is not worth its own fragment.
DEFAULT_MIN_PARTITION_ROWS = 2048

#: the partial-aggregation cost rule: pre-aggregate below the gather
#: only when the estimated group count is at least this many times
#: smaller than the estimated input rows.  High-cardinality groupings
#: (groups ~ input rows) gain nothing from partials — every partition
#: would ship nearly its whole input as "partial" state while paying an
#: extra per-fragment hash table — so they keep the
#: gather-then-aggregate plan.  Worker-count independent on purpose:
#: once a grouping shrinks, it shrinks at every worker count, keeping
#: the makespan monotone in workers (no plan-shape cliff at high counts).
PARTIAL_AGG_SHRINK = 4.0

#: a co-partitioned join needs at least this many bin ranges to beat the
#: broadcast split: the shuffle touches every row of *both* sides, while
#: a 2- or 3-way broadcast split reaches similar concurrency on the
#: probe side alone, without the shuffle and without giving up the
#: bit-identical contract.  Below this the fragmenter falls back to
#: broadcasting the build side.
MIN_COPARTITION_PARTS = 4


@dataclass
class Fragment:
    """One independently executable subplan of a parallel plan.

    ``role`` is one of ``partition`` (one contiguous slice of a split
    stream), ``broadcast`` (a join build side shipped whole), ``source``
    (a producer feeding rebinning Repartition consumers), ``copartition``
    (one bin range of a co-partitioned join), and ``final`` / ``serial``
    for the tail."""

    index: int
    root: PhysicalOp
    role: str
    note: str = ""       # human description (partition ranges, alignment)
    depends_on: Tuple[int, ...] = ()


@dataclass
class ParallelPlan:
    """A physical plan cut into fragments, ready for the scheduler.

    Fragments are topologically ordered: every producer precedes its
    consumers and the final (serial-tail) fragment comes last.  A plan
    with a single fragment means nothing was splittable — the executor
    runs :func:`serial_plan` instead, the same way."""

    fragments: List[Fragment]
    workers: int
    scheme_name: str
    serial: object       # the PhysicalPlan this was derived from

    @property
    def final(self) -> Fragment:
        return self.fragments[-1]

    @property
    def is_parallel(self) -> bool:
        return len(self.fragments) > 1

    @property
    def reorders(self) -> bool:
        """True when this plan contains a reordering exchange (a
        co-partitioned join's canonical gather): its result is the same
        multiset as the serial plan's but in canonical — not serial —
        row order, so comparisons against serial must be
        order-insensitive."""
        for op in self.operators():
            if isinstance(op, UnionAll) and not op.preserve_order:
                return True
            if isinstance(op, Repartition) and op.mode == "rebin":
                return True
        return False

    @property
    def reaggregates(self) -> bool:
        """True when this plan pre-aggregates below the gather (a merge
        aggregate's serial tail over per-fragment partials): row *order*
        is still the serial aggregate's key order, but float summation
        order differs, so such plans also carry the order-insensitive
        (tolerance) contract rather than the bit-identical one."""
        return any(
            isinstance(op, Aggregate) and op.strategy == "merge"
            for op in self.operators()
        )

    def operators(self):
        for fragment in self.fragments:
            yield from walk_physical(fragment.root)


def serial_plan(pplan) -> ParallelPlan:
    """A lowered plan as the one-fragment DAG: the whole operator tree,
    one worker.  What runs when the options ask for one worker or
    nothing splits — through the same run/place/merge steps as any
    other fragment plan."""
    whole = Fragment(
        index=0, root=pplan.root, role="serial", note="whole plan, one worker"
    )
    return ParallelPlan(
        fragments=[whole], workers=1, scheme_name=pplan.scheme_name, serial=pplan
    )


def _fragment_deps(root: PhysicalOp) -> Tuple[int, ...]:
    sources = set()
    for op in walk_physical(root):
        if isinstance(op, Exchange):
            sources.add(op.source_fragment)
        elif isinstance(op, Repartition):
            if op.mode == "rebin":
                sources.update(op.source_fragments)
            else:
                sources.add(op.source_fragment)
    return tuple(sorted(sources))


@dataclass
class _Split:
    """Outcome of one successful split: the per-partition operator
    clones, a human note, whether gathering them in order reproduces the
    serial stream (``ordered``), and the fragment role they take."""

    parts: List[PhysicalOp]
    note: str
    ordered: bool = True
    role: str = "partition"


class _FragmentPlanner:
    def __init__(
        self,
        workers: int,
        min_partition_rows: int,
        contracts: Dict[int, object],
        enable_copartition: bool = True,
        enable_partial_agg: bool = True,
    ):
        self.workers = max(int(workers), 1)
        self.min_partition_rows = max(int(min_partition_rows), 1)
        self.contracts = contracts
        self.enable_copartition = enable_copartition
        self.enable_partial_agg = enable_partial_agg
        self.fragments: List[Fragment] = []

    # ------------------------------------------------------------ building
    def _add(self, root: PhysicalOp, role: str, note: str) -> int:
        index = len(self.fragments)
        self.fragments.append(
            Fragment(index=index, root=root, role=role, note=note,
                     depends_on=_fragment_deps(root))
        )
        return index

    # ------------------------------------------------------------- walking
    def visit(self, op: PhysicalOp) -> PhysicalOp:
        """Return the serial-tail form of ``op``: splittable subtrees are
        replaced by gathers over newly registered partition fragments."""
        if isinstance(op, Aggregate) and op.strategy in ("hash", "stream"):
            rewritten = self._visit_agg(op)
            if rewritten is not None:
                return rewritten
        split = self._split(op)
        if split is not None:
            return self._gather(split)
        # not splittable as a whole: recurse into the children
        if isinstance(op, Join):
            left, right = self.visit(op.left), self.visit(op.right)
            if left is not op.left or right is not op.right:
                return dataclasses.replace(op, left=left, right=right)
            return op
        child = getattr(op, "input", None)
        if isinstance(child, PhysicalOp):
            new_child = self.visit(child)
            if new_child is not child:
                return dataclasses.replace(op, input=new_child)
        return op

    def _gather(self, split: _Split, rationale: str = "") -> UnionAll:
        """Register one fragment per part and return the gather reading
        them, flagged per the split's result contract."""
        parts, note = split.parts, split.note
        sources = [
            self._add(
                part, split.role,
                f"{split.role} {i + 1}/{len(parts)}: {note}",
            )
            for i, part in enumerate(parts)
        ]
        exchanges = tuple(
            Exchange(source_fragment=s, partition=i, partitions=len(parts))
            for i, s in enumerate(sources)
        )
        if not rationale:
            if split.ordered:
                rationale = f"gather {len(parts)} partitions ({note})"
            else:
                rationale = (
                    f"canonical gather of {len(parts)} co-partitions ({note}); "
                    "order-insensitive result contract"
                )
        return UnionAll(
            inputs=exchanges,
            preserve_order=split.ordered,
            rationale=rationale,
        )

    # --------------------------------------------- two-phase aggregation
    def _partial_agg_pays(self, op) -> bool:
        """The cost rule: partials must shrink the exchanged stream —
        estimated groups at least ``PARTIAL_AGG_SHRINK`` times smaller
        than estimated input rows.  Aggregates built outside the
        lowering pass carry no estimates (0.0) and stay on the
        gather-then-aggregate plan."""
        if op.est_input_rows <= 0:
            return False
        return max(op.est_groups, 1.0) * PARTIAL_AGG_SHRINK <= op.est_input_rows

    def _visit_agg(self, op) -> Optional[PhysicalOp]:
        """Two-phase rewrite of a hash or streaming aggregate whose
        input splits: each partition fragment pre-aggregates with a
        ``partial`` aggregate (the decomposed partial specs), the
        exchange ships the shrunken partial streams, and one ``merge``
        aggregate above the gather recombines them as the serial tail.

        Gated on (a) the ablation switch, (b) the PR 5 result contract —
        merging changes float summation order, so every ancestor must
        admit the order-insensitive contract, (c) decomposability (no
        ``count_distinct``), and (d) the cost rule.  Returns None to keep
        the classic gather-then-aggregate plan."""
        if not (self.enable_partial_agg and self._reorder_admissible(op)):
            return None
        decomposition = decompose_aggs(op.aggs)
        if decomposition is None or not self._partial_agg_pays(op):
            return None
        sub = self._split(op.input)
        if sub is None:
            return None
        if op.strategy == "stream" and not sub.ordered:
            # unreachable by construction — a reordering split below a
            # streaming aggregate is forbidden by its own ordered-input contract —
            # but degrade to the plain gather rather than trust that
            return dataclasses.replace(op, input=self._gather(sub))
        partial_specs, merges = decomposition
        parts = [
            Aggregate(
                input=part,
                keys=op.keys,
                aggs=partial_specs,
                strategy="partial",
                rationale="partial pre-aggregation below the gather",
                est_groups=op.est_groups,
                est_input_rows=op.est_input_rows / len(sub.parts),
            )
            for part in sub.parts
        ]
        pre = dataclasses.replace(
            sub,
            parts=parts,
            note=f"{sub.note} + partial pre-aggregation",
            # the gathered stream is partial-state rows, partition-major:
            # not the serial stream in any order — the merge above it
            # re-establishes the aggregate's key order
            ordered=False,
        )
        gather = self._gather(
            pre,
            rationale=(
                f"gather {len(parts)} partial-aggregate partitions; "
                "order-insensitive result contract (merge re-sums)"
            ),
        )
        return Aggregate(
            input=gather,
            keys=op.keys,
            merges=merges,
            strategy="merge",
            rationale=(
                f"merge of {len(parts)} per-fragment partial aggregates "
                f"(two-phase {op.kind})"
            ),
        )

    # ----------------------------------------------------------- splitting
    def _split(self, op: PhysicalOp) -> Optional[_Split]:
        """Try to turn ``op`` into per-partition clones; None when the
        subtree must stay serial."""
        if isinstance(op, PhysicalScan):
            if op.delta_selected is not None:
                # merge-on-read scans split along zone boundaries of the
                # *merged* base+delta stream (BDCC only); Plain/PK delta
                # scans stay serial — degrading, never failing
                return self._split_delta_scan(op)
            return self._split_scan(op)
        if isinstance(op, (PhysicalFilter, PhysicalProject)):
            sub = self._split(op.input)
            if sub is None:
                return None
            return dataclasses.replace(
                sub,
                parts=[dataclasses.replace(op, input=p) for p in sub.parts],
            )
        if isinstance(op, Join):
            return self._split_join(op)
        return None

    @staticmethod
    def _partition_side(op) -> str:
        """The join input whose row order the output follows — the side
        that can be partitioned while the other is broadcast."""
        if op.strategy == "merge":
            return "left"
        if op.how != "inner":
            return "left"  # left/semi/anti assemble the left side
        return "right" if op.build_side == "left" else "left"

    def _split_join(self, op) -> Optional[_Split]:
        if self.enable_copartition and op.strategy == "sandwich":
            split = self._split_join_copartition(op)
            if split is not None:
                return split
        side = self._partition_side(op)
        sub = self._split(getattr(op, side))
        if sub is None:
            return None
        other = "right" if side == "left" else "left"
        broadcast = self._add(
            getattr(op, other), "broadcast",
            f"{op.kind} {other} (build) side, shipped to every partition",
        )
        clones = [
            dataclasses.replace(
                op, **{side: part, other: Repartition(source_fragment=broadcast)}
            )
            for part in sub.parts
        ]
        return dataclasses.replace(sub, parts=clones)

    # ------------------------------------------------- co-partitioned join
    def _reorder_admissible(self, op: PhysicalOp) -> bool:
        return self.contracts[id(op)].reorder_admissible

    @staticmethod
    def _live_rows(root: PhysicalOp) -> int:
        """Rows-flowing estimate of a join side: live selected rows over
        its scan leaves (base selection plus delta-run selections),
        *stopping at blocking operators* — an aggregation, sort or limit
        emits its (typically small) result, not the rows its scans read,
        so the scans below it must not count toward the side's weight."""
        total = 0
        stack = [root]
        while stack:
            node = stack.pop()
            if isinstance(node, (Sort, Limit)) or (
                isinstance(node, Aggregate)
                and node.strategy in ("hash", "sandwich", "stream")
            ):
                continue
            if isinstance(node, PhysicalScan):
                total += len(node.selection)
                total += sum(len(sel) for _, sel in node.delta_selected or ())
            stack.extend(node.children())
        return total

    def _rebin_sources(self, side: PhysicalOp) -> Tuple[int, ...]:
        """Register one join side's producer fragments: its ordinary
        split when one applies (zone-/page-aligned scan partitions, or a
        nested join's partitions), else the whole serial subtree as a
        single source fragment."""
        sub = self._split(side)
        if sub is None:
            return (self._add(side, "source", "repartition source: serial subtree"),)
        return tuple(
            self._add(
                part, "source",
                f"repartition source {i + 1}/{len(sub.parts)}: {sub.note}",
            )
            for i, part in enumerate(sub.parts)
        )

    def _split_join_copartition(self, op: Join) -> Optional[_Split]:
        """Split *both* join sides along the shared BDCC dimension bits
        the join is sandwiched on.

        Applicability: the join carries granted sandwich pairs (equal
        join keys imply equal dimension bins on both sides — the same
        precondition sandwiched execution rests on, here load-bearing
        for correctness: matches must co-locate), the plan's result
        contracts admit a reordering at this node, and both sides
        together carry enough live rows to be worth the shuffle.  Each
        side becomes producer fragments (re-using the ordinary split
        where possible) consumed by per-partition rebinning
        :class:`~repro.parallel.exchange.Repartition` leaves."""
        if not self._reorder_admissible(op):
            return None
        pairs = [(l, r, g) for l, r, g in op.pairs if g > 0]
        total_bits = sum(g for _, _, g in pairs)
        if not pairs or total_bits <= 0:
            return None
        left_live = self._live_rows(op.left)
        right_live = self._live_rows(op.right)
        if min(left_live, right_live) < 2 * self.min_partition_rows:
            # a small side is cheaper to broadcast than to shuffle: the
            # rebin touches every row of *both* sides, and a side too
            # small for its own producers to split would serialise the
            # whole shuffle behind one fragment anyway
            return None
        live = left_live + right_live
        num_parts = min(
            self.workers, 1 << total_bits, live // self.min_partition_rows
        )
        if num_parts < MIN_COPARTITION_PARTS:
            return None
        # cost-based strategy choice vs the broadcast split: broadcasting
        # repeats the whole build (hash construction, memory) in every
        # partition, the shuffle touches every row of both sides once —
        # co-partition only when the duplicated build work outweighs it.
        # Q3's order-side build is half the join and wins at 4 workers;
        # Q18's build is small next to its LINEITEM probe, so the rebin
        # pays off only at higher worker counts.
        build_live = left_live if op.build_side == "left" else right_live
        if build_live * (num_parts - 1) <= live:
            return None
        left_sources = self._rebin_sources(op.left)
        right_sources = self._rebin_sources(op.right)
        left_on = tuple((l.column, l.bits, g) for l, _, g in pairs)
        right_on = tuple((r.column, r.bits, g) for _, r, g in pairs)
        dims = "+".join(l.dimension.name for l, _, _ in pairs)
        clones: List[PhysicalOp] = []
        for p in range(num_parts):
            leaves = {
                "left": Repartition(
                    source_fragments=left_sources, mode="rebin", on=left_on,
                    partition=p, partitions=num_parts, total_bits=total_bits,
                    rationale=f"left side rows of bin range {p + 1}/{num_parts}",
                ),
                "right": Repartition(
                    source_fragments=right_sources, mode="rebin", on=right_on,
                    partition=p, partitions=num_parts, total_bits=total_bits,
                    rationale=f"right side rows of bin range {p + 1}/{num_parts}",
                ),
            }
            clones.append(dataclasses.replace(op, **leaves))
        note = (
            f"co-partitioned {op.kind} on {dims} @{total_bits} bits: "
            f"{num_parts} bin ranges over {live} live rows (both sides split)"
        )
        return _Split(clones, note, ordered=False, role="copartition")

    # --------------------------------------------------- delta scan splits
    def _split_delta_scan(self, op: PhysicalScan) -> Optional[_Split]:
        """Partition a merge-on-read scan along BDCC zone boundaries of
        the merged stream.

        The merged output is ``_bdcc_``-key ordered, and the zone tag is
        the key's top (count-table granularity) bits — so the stream is
        zone-major, and cutting it at zone boundaries gives contiguous
        chunks each fragment can reproduce independently: a fragment
        merges exactly the base rows and delta-run rows whose zones fall
        in its range, with the same stable tie order (base first, runs in
        commit order).  The ordered gather over the fragments is
        therefore bit-identical to the serial merge.
        """
        stored = op.stored
        bdcc = stored.bdcc
        if bdcc is None:
            return None
        selection = op.selection
        delta = stored.delta
        run_sels = list(op.delta_selected)
        total = len(selection) + sum(len(sel) for _, sel in run_sels)
        max_parts = total // self.min_partition_rows
        num_parts = min(self.workers, max_parts)
        if num_parts < 2:
            return None
        base_zones = bdcc.zone_of(bdcc.keys[selection.indexer()])
        run_zones = [
            (index, bdcc.zone_of(delta.runs[index].keys[sel.indexer()]))
            for index, sel in run_sels
        ]
        all_zones = np.concatenate([base_zones] + [z for _, z in run_zones])
        uniq, counts = np.unique(all_zones, return_counts=True)
        if len(uniq) < 2:
            return None
        # cut after the zone whose cumulative row count is nearest each
        # ideal equal-rows position (deterministic, like _pick_cuts)
        cum = np.cumsum(counts)
        boundaries: List[int] = []
        for j in range(1, num_parts):
            ideal = j * total / num_parts
            k = int(np.argmin(np.abs(cum - ideal)))
            zone = int(uniq[k])
            if (not boundaries or zone > boundaries[-1]) and k < len(uniq) - 1:
                boundaries.append(zone)
        if not boundaries:
            return None
        bounds = np.asarray(boundaries, dtype=np.uint64)

        def part_of(zones: np.ndarray) -> np.ndarray:
            return np.searchsorted(bounds, zones, side="left")

        base_part = part_of(base_zones)
        run_parts = [(index, part_of(zones)) for index, zones in run_zones]
        parts: List[PhysicalOp] = []
        for p in range(len(bounds) + 1):
            part_base = selection.subset(base_part == p)
            part_sel = tuple(
                (index, sel.subset(parts_of_run == p))
                for (index, sel), (_, parts_of_run) in zip(run_sels, run_parts)
            )
            part_live = len(part_base) + sum(len(s) for _, s in part_sel)
            share = f"{part_live} of {total} live rows"
            parts.append(
                dataclasses.replace(
                    op,
                    selection=part_base,
                    delta_selected=part_sel,
                    est_rows=op.est_rows * part_live / max(total, 1),
                    rationale=_extend_rationale(op.rationale, f"zone-aligned {share}"),
                )
            )
        note = (
            f"scan {op.alias}: {len(parts)} zone-aligned base+delta "
            f"partitions over {total} live rows"
        )
        return _Split(parts, note)

    # --------------------------------------------------------- scan splits
    def _split_scan(self, op: PhysicalScan) -> Optional[_Split]:
        stored = op.stored
        selection = op.selection
        total = len(selection)
        max_parts = total // self.min_partition_rows
        num_parts = min(self.workers, max_parts)
        if num_parts < 2:
            return None
        if stored.bdcc is not None:
            # where a new BDCC zone (count-table group) starts; offsets ascend
            edges = stored.bdcc.count_table.offsets
            alignment = "zone"
        else:
            # where the widest demanded column crosses a page boundary,
            # so partition IO stays page-granular
            widest = max(
                (stored.stored_bytes_per_value(c) for c in op.demanded), default=8.0
            )
            edges = stored.page_model.page_starts(stored.stored_rows, widest)
            alignment = "page"
        cuts = _pick_cuts(_cut_candidates(selection, edges), total, num_parts)
        if not cuts:
            return None
        bounds = [0] + cuts + [total]
        parts: List[PhysicalOp] = []
        for i in range(len(bounds) - 1):
            a, b = bounds[i], bounds[i + 1]
            share = f"rows {a}..{b - 1} of {total}"
            parts.append(
                dataclasses.replace(
                    op,
                    selection=selection.slice(a, b),
                    est_rows=op.est_rows * (b - a) / max(total, 1),
                    rationale=_extend_rationale(op.rationale, f"{alignment}-aligned {share}"),
                )
            )
        note = (
            f"scan {op.alias}: {len(parts)} {alignment}-aligned partitions "
            f"over {total} rows"
        )
        return _Split(parts, note)


def _extend_rationale(rationale: str, extra: str) -> str:
    return f"{rationale}, {extra}" if rationale else extra


def _cut_candidates(selection: Selection, edges: np.ndarray) -> np.ndarray:
    """Cut candidates: the positions in the selected sequence whose row
    lies past a stored-row edge its predecessor does not."""
    _, lengths, bucket = selection.pieces(edges)
    first = np.cumsum(lengths) - lengths
    return first[1:][bucket[1:] != bucket[:-1]]


def _pick_cuts(candidates: np.ndarray, total: int, num_parts: int) -> List[int]:
    """Choose up to ``num_parts - 1`` strictly increasing cut positions
    from the aligned candidates, each nearest to its ideal equal-rows
    position."""
    if len(candidates) == 0:
        return []
    cuts: List[int] = []
    for j in range(1, num_parts):
        ideal = round(j * total / num_parts)
        nearest = int(candidates[np.argmin(np.abs(candidates - ideal))])
        if 0 < nearest < total and (not cuts or nearest > cuts[-1]):
            cuts.append(nearest)
    return cuts


def plan_fragments(
    pplan,
    workers: int,
    min_partition_rows: int = DEFAULT_MIN_PARTITION_ROWS,
    enable_copartition: bool = True,
    enable_partial_agg: bool = True,
) -> ParallelPlan:
    """Cut a lowered physical plan into partition-parallel fragments.

    Pure and deterministic, like lowering itself: the same
    ``(plan, workers, min_partition_rows, enable_copartition,
    enable_partial_agg)`` always yields the same fragment structure, and
    the serial plan's operators are reused wherever no split applies
    (fragments never re-lower).

    Args:
        pplan: the lowered :class:`~repro.planner.lowering.PhysicalPlan`.
            Its ``contracts`` (result-contract map from lowering) gate
            co-partitioned join splits and partial-aggregation rewrites.
        workers: simulated worker count (clamped to >= 1); also the
            maximum number of partitions any single split produces.
        min_partition_rows: scans (and co-partitioned joins, counting
            both sides) below this many live rows stay serial.
        enable_copartition: allow the reordering co-partitioned join
            split; with False every parallelised join broadcasts its
            build side.
        enable_partial_agg: allow the two-phase aggregation rewrite
            (per-fragment partial aggregates below the exchange, a merge
            above it); with False every parallel aggregate gathers first.
            With both switches off every parallel plan keeps the
            bit-identical contract.
    """
    planner = _FragmentPlanner(
        workers, min_partition_rows,
        contracts=pplan.contracts, enable_copartition=enable_copartition,
        enable_partial_agg=enable_partial_agg,
    )
    root = planner.visit(pplan.root)
    role = "final" if planner.fragments else "serial"
    note = "serial tail above the gathers" if planner.fragments else "no splittable scan"
    planner._add(root, role, note)
    return ParallelPlan(
        fragments=planner.fragments,
        workers=planner.workers,
        scheme_name=pplan.scheme_name,
        serial=pplan,
    )
