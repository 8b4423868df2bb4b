"""Exchange operators: the typed boundaries between plan fragments.

A partition-parallel plan moves data between fragments through three
physical operators, all ordinary :class:`~repro.execution.operators.PhysicalOp`
nodes charging through the execution context, so EXPLAIN and
per-operator actuals work unchanged:

* :class:`Exchange` — the consumer-side leaf reading **one** partition
  fragment's output (one partition of a split stream);
* :class:`Repartition` — the consumer-side leaf that *re-distributes*
  producer-fragment output.  Two modes:

  - ``broadcast``: the build side of a parallelised join, executed once
    and shipped whole to every partition fragment;
  - ``rebin``: the co-partitioned join shuffle.  The leaf reads every
    producer fragment of one join side, extracts the shared BDCC
    dimension bits from the hidden group columns (``on``), and keeps
    only the rows whose bin falls into this consumer's partition —
    re-binning the stream so *both* join sides are split along the same
    zone boundaries and equal join keys always land in the same
    partition (the sandwich precondition: equal keys imply equal bins).

* :class:`UnionAll` — the gather: concatenates its partition inputs *in
  partition order*.  With ``preserve_order=True`` the fragments
  partition a stream into contiguous ascending storage ranges, so the
  concatenation reproduces the serial stream exactly — same rows, same
  order — the **bit-identical** result contract.  A co-partitioned
  join's gather instead sets ``preserve_order=False`` (``canonical``):
  its inputs are bin-major, not storage-major, so the plan stops
  claiming the serial order (``ParallelPlan.reorders``) and the
  concatenation *in fragment-key order* becomes the **canonical order**
  of the order-insensitive result contract — a deterministic row order
  that is not the serial one (see docs/execution-model.md).

Exchange and broadcast gathers only move batches and charge the per-row
exchange cost.  A ``rebin`` Repartition additionally pays the modelled
shuffle: per-received-row re-binning CPU plus :class:`DiskModel` IO for
its retained bucket (one access per producer), which the scheduler's
makespan then accounts like any other fragment IO.  Producer results
reach the leaves through ``ExecutionContext.fragment_results``, which
only the parallel scheduler populates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..execution.operators import ExecutionContext, PhysicalOp, group_ids
from ..execution.relation import Relation, concat_relations

__all__ = ["Exchange", "Repartition", "UnionAll", "concat_relations"]


@dataclass(eq=False)
class Exchange(PhysicalOp):
    """Consumer-side leaf: one partition fragment's output."""

    source_fragment: int = -1
    partition: int = 0
    partitions: int = 1

    kind = "Exchange"

    def describe(self) -> str:
        return (
            f"Exchange <- fragment {self.source_fragment} "
            f"[{self.partition + 1}/{self.partitions}]"
        )

    def execute(self, ctx: ExecutionContext) -> Relation:
        return ctx.fragment_result(self.source_fragment)


@dataclass(eq=False)
class Repartition(PhysicalOp):
    """Consumer-side leaf redistributing producer-fragment output.

    ``mode="broadcast"``: ship one fragment's whole output to every
    partition fragment of a parallelised join (``source_fragment``).

    ``mode="rebin"``: the co-partitioned shuffle — read every producer
    of one join side (``source_fragments``), compute each row's shared
    dimension bin (``on``, see
    :func:`~repro.execution.operators.group_ids`) and keep the rows
    whose bin maps to this consumer's ``partition``.  Bins map to
    partitions by contiguous range: ``(bin * partitions) >> total_bits``
    — deterministic, and bin-major across the gathered partitions.  The
    kept stream is a stable subsequence of the producers' concatenation,
    so within a partition the order and group columns lowering inferred
    still hold even though the *gathered* stream is no longer in serial
    order.
    """

    source_fragment: int = -1
    source_fragments: Tuple[int, ...] = ()
    mode: str = "broadcast"           # "broadcast" | "rebin"
    #: (hidden group column, column bits, bits taken) per shared dimension.
    on: Tuple[Tuple[str, int, int], ...] = ()
    partition: int = 0
    partitions: int = 1
    total_bits: int = 0

    kind = "Repartition"

    def describe(self) -> str:
        if self.mode == "rebin":
            sources = ", ".join(f"f{s}" for s in self.source_fragments)
            dims = "+".join(column for column, _, _ in self.on)
            return (
                f"Repartition rebin [{self.partition + 1}/{self.partitions}] "
                f"on {dims}@{self.total_bits} <- {sources}"
            )
        return f"Repartition {self.mode} <- fragment {self.source_fragment}"

    def execute(self, ctx: ExecutionContext) -> Relation:
        if self.mode == "rebin":
            return self._execute_rebin(ctx)
        rel = ctx.fragment_result(self.source_fragment)
        # receiving the shipped batch costs per row on this worker
        ctx.charge_cpu(rel.num_rows * ctx.costs.exchange_row, "exchange")
        ctx.metrics.bump("exchange_rows", rel.num_rows)
        return rel

    def _execute_rebin(self, ctx: ExecutionContext) -> Relation:
        kept: List[Relation] = []
        bucket_bytes: List[float] = []
        received = 0
        parts = np.uint64(self.partitions)
        shift = np.uint64(self.total_bits)
        for source in self.source_fragments:
            rel = ctx.fragment_result(source)
            received += rel.num_rows
            bins = group_ids(rel, self.on)
            mask = ((bins * parts) >> shift) == np.uint64(self.partition)
            bucket = rel.filter(mask)
            if bucket.num_rows:
                bucket_bytes.append(bucket.data_bytes())
            kept.append(bucket)
        out = concat_relations(kept)
        # the modelled shuffle: re-binning CPU over everything received,
        # plus one bucket read per producer through the disk model
        ctx.charge_cpu(
            received * ctx.costs.rebin_row + out.num_rows * ctx.costs.exchange_row,
            "exchange",
        )
        ctx.charge_runs(bucket_bytes)
        ctx.metrics.bump("exchange_rows", received)
        ctx.metrics.bump("shuffle_rows", out.num_rows)
        ctx.metrics.bump("shuffle_bytes", float(sum(bucket_bytes)))
        return out


@dataclass(eq=False)
class UnionAll(PhysicalOp):
    """Gather of the partition fragments of one split stream (children
    are :class:`Exchange` leaves, in partition order).

    ``preserve_order=True`` vouches the inputs are contiguous storage
    ranges in stream order: the concatenation *is* the serial stream
    (bit-identical contract).  Any other gather is :attr:`canonical`:
    that of a co-partitioned (re-binned) join, whose concatenation in
    fragment-key order is the deterministic *canonical* order of the
    order-insensitive contract — same multiset as serial, different row
    order.  Both are plan metadata (``ParallelPlan.reorders`` reads
    ``preserve_order`` to pick the result contract); ``execute``
    concatenates the same way under either."""

    inputs: Tuple[PhysicalOp, ...] = ()
    preserve_order: bool = True

    kind = "UnionAll"

    @property
    def canonical(self) -> bool:
        return not self.preserve_order

    def children(self) -> Tuple[PhysicalOp, ...]:
        return tuple(self.inputs)

    def describe(self) -> str:
        mode = ", canonical order" if self.canonical else ""
        return f"UnionAll [{len(self.inputs)} partitions{mode}]"

    def execute(self, ctx: ExecutionContext) -> Relation:
        rels = [child.run(ctx) for child in self.inputs]
        out = concat_relations(rels)
        ctx.charge_cpu(out.num_rows * ctx.costs.exchange_row, "exchange")
        return out
