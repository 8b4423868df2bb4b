"""The serving oracle: concurrent execution vs solo replay.

The snapshot-isolation claim is falsifiable: every query served
concurrently must produce **exactly** the rows it would produce running
*alone* against the epoch state it pinned at admission.  This module
checks it by replay:

1. serve N generated query streams (plus optional refresh streams)
   through a :class:`~repro.serving.engine.ServingEngine` over a fresh
   database, keeping every result and the engine's ordered event log —
   each instant the database was touched (``generate`` / ``commit`` /
   ``execute``);
2. rebuild an *identical* database (same datagen parameters), then walk
   the event log: regenerate each item at its logged position (generated
   plans and batches sample literals from the current data, so order is
   identity), apply each commit, and execute each query **solo** through
   a plain executor at exactly the state the serving run pinned;
3. judge each pair with the sweep's own verdict
   (:func:`~repro.workload.differential.twin_mismatch`): bit-for-bit,
   unless the plan's contract lets a gather reorder (``reorders`` —
   which re-aggregating plans imply), then as normalized multisets
   under per-dtype tolerances.  Optionally every served result is
   additionally judged against the SQL reference
   (:func:`~repro.workload.differential.reference_mismatch`).

A failed check is reported as the sweep's own
:class:`~repro.workload.differential.Divergence`: logical plan, physical
plan with the solo run's actuals, and a ``python -m repro.workload
--streams …`` line that reproduces the serving run.

Epochs are cross-checked too: at each replayed execution the rebuilt
database must sit at the very epochs the serving query pinned, or the
replay (and hence the MVCC bookkeeping) is broken.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..execution.cost import CostModel
from ..planner.executor import ExecutionOptions, Executor
from ..schemes.base import PhysicalDatabase
from ..storage.io_model import DiskModel
from ..workload.differential import (
    Divergence,
    reference_mismatch,
    twin_mismatch,
)
from ..workload.reference import evaluate_reference
from .engine import ServingEngine
from .metrics import QueryRecord, ServingReport
from .snapshot import EpochSnapshot
from .streams import GeneratedQueryStream, GeneratedRefreshStream
from ..updates.session import UpdateSession

__all__ = ["ServingDifferentialReport", "run_serving_differential"]


@dataclass
class ServingDifferentialReport:
    """Outcome of one serving-vs-solo sweep."""

    seed: int
    policy: str
    workers: int
    backend: str
    queries_checked: int = 0
    commits_replayed: int = 0
    reference_checks: int = 0
    divergences: List[Divergence] = field(default_factory=list)
    serving_reports: Dict[str, ServingReport] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "policy": self.policy,
            "workers": self.workers,
            "backend": self.backend,
            "queries_checked": self.queries_checked,
            "commits_replayed": self.commits_replayed,
            "reference_checks": self.reference_checks,
            "divergences": len(self.divergences),
            "ok": self.ok,
            "schemes": {
                scheme: report.to_dict()
                for scheme, report in self.serving_reports.items()
            },
        }

    def render(self) -> str:
        lines = [
            f"serving differential: seed={self.seed} policy={self.policy} "
            f"workers={self.workers} backend={self.backend}",
            f"  {self.queries_checked} served queries checked against solo "
            f"replay, {self.commits_replayed} commits replayed, "
            f"{self.reference_checks} reference checks",
        ]
        for scheme, report in self.serving_reports.items():
            lines.append(report.render())
        for divergence in self.divergences:
            lines.append(divergence.render())
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)


def _stream_seed(seed: int, position: int) -> int:
    return (seed + 1009 * (position + 1)) & 0x7FFFFFFF


def run_serving_differential(
    build: Callable[[], Dict[str, PhysicalDatabase]],
    seed: int = 0,
    num_streams: int = 2,
    queries_per_stream: int = 4,
    refresh_rounds: int = 0,
    policy: str = "fifo",
    options: Optional[ExecutionOptions] = None,
    max_concurrent: Optional[int] = None,
    disk: Optional[DiskModel] = None,
    costs: Optional[CostModel] = None,
    schemes: Optional[Sequence[str]] = None,
    check_reference: bool = False,
    fail_fast: bool = False,
    progress: Optional[Callable[[str, int], None]] = None,
    repro_flags: str = "",
    observer: Optional[Callable] = None,
) -> ServingDifferentialReport:
    """Serve, replay solo, compare.  ``build`` must return a *fresh*
    identical ``{scheme: PhysicalDatabase}`` mapping on every call (the
    serving run mutates its copy; the replay needs a pristine one).

    ``repro_flags`` names the CLI flags that rebuild the same database
    (as for :func:`~repro.workload.differential.run_differential`);
    ``observer`` is called as ``observer(record, pdb=..., options=...)``
    for every served query — the CLI's observability sink hangs off
    it."""
    options = options or ExecutionOptions()
    report = ServingDifferentialReport(
        seed=seed,
        policy=policy,
        workers=options.workers,
        backend=options.backend,
    )
    serving_flags = (
        f"--streams {num_streams} --updates {refresh_rounds} "
        f"--policy {policy} --workers {report.workers} "
        f"--backend {report.backend}"
    )
    if max_concurrent is not None:
        serving_flags += f" --max-concurrent {max_concurrent}"

    def streams(db):
        """The run's stream sources over ``db`` — built once to serve,
        once more over the pristine copy to replay."""
        queries = [
            GeneratedQueryStream(
                f"s{i}", db, _stream_seed(seed, i), queries_per_stream
            )
            for i in range(num_streams)
        ]
        refresh = []
        if refresh_rounds > 0:
            refresh.append(
                GeneratedRefreshStream(
                    "rf", db, _stream_seed(seed, -1), refresh_rounds
                )
            )
        return queries, refresh

    first = build()
    wanted = list(schemes) if schemes is not None else list(first)
    for scheme in wanted:
        pdbs = first if first is not None else build()
        first = None
        pdb = pdbs[scheme]
        query_streams, refresh_streams = streams(pdb.database)
        with ServingEngine(
            pdb, disk=disk, costs=costs, options=options, policy=policy,
            max_concurrent=max_concurrent, keep_results=True,
        ) as engine:
            served = engine.serve(
                query_streams, refresh_streams,
                observer=observer
                and functools.partial(observer, pdb=pdb, options=options),
            )
        report.serving_reports[scheme] = served
        # a divergence reproduces by serving the whole run again: every
        # query of every stream, this scheme
        reproduce = dict(
            seed=seed,
            index=num_streams * queries_per_stream - 1,
            repro_flags=f"{serving_flags} --schemes {scheme} {repro_flags}".strip(),
        )
        with Executor(
            build()[scheme], disk=disk, costs=costs, options=options
        ) as executor:
            _replay_and_compare(
                report, served, executor, streams, reproduce,
                check_reference=check_reference, fail_fast=fail_fast,
            )
        if progress is not None:
            progress(scheme, len(report.divergences))
        if report.divergences and fail_fast:
            break
    return report


def _replay_and_compare(
    report: ServingDifferentialReport,
    served: ServingReport,
    executor: Executor,
    streams: Callable,
    reproduce: dict,
    check_reference: bool,
    fail_fast: bool,
) -> None:
    """Walk the serving run's event log against ``executor``'s pristine
    database."""
    pdb = executor.pdb
    queries, refresh = streams(pdb.database)
    query_streams = {s.name: s for s in queries}
    refresh_streams = {s.name: s for s in refresh}
    records: Dict[tuple, QueryRecord] = {
        (r.stream, r.seq): r for r in served.queries
    }
    items: Dict[tuple, object] = {}

    for event in served.events:
        kind = event["kind"]
        stream_name = event["stream"]
        index = event["index"]
        if kind == "generate":
            items[(stream_name, index)] = query_streams[stream_name].item(index)
        elif kind == "commit":
            session = UpdateSession(
                pdb, disk=executor.disk, costs=executor.costs
            )
            description = refresh_streams[stream_name].apply(index, session)
            if description is not None:
                session.commit()
            report.commits_replayed += 1
        elif kind == "execute":
            _check_one(
                report, executor, items.pop((stream_name, index)),
                records[(stream_name, index)], reproduce, check_reference,
            )
            if report.divergences and fail_fast:
                return


def _check_one(
    report: ServingDifferentialReport,
    executor: Executor,
    item,
    record: QueryRecord,
    reproduce: dict,
    check_reference: bool,
) -> None:
    def diverge(check: str, detail: str, metrics=None) -> None:
        report.divergences.append(
            Divergence.of(
                executor, item.plan, metrics,
                scheme=executor.pdb.scheme_name,
                variant=(
                    f"served policy={report.policy} stream={record.stream} "
                    f"seq={record.seq} check={check}"
                ),
                description=record.description,
                detail=detail,
                **reproduce,
            )
        )

    # the rebuilt database must sit exactly at the pinned epochs — if
    # not, the replay order (or the engine's snapshot log) is wrong
    pinned = record.snapshot
    current = EpochSnapshot.pin(executor.pdb)
    if current != pinned:
        diverge(
            "epoch",
            f"replay epochs {current.as_dict()} != pinned {pinned.as_dict()}",
        )
        return
    if record.relation is None:
        diverge("solo", "serving run kept no result (keep_results=False)")
        return

    solo = executor.execute(item.plan)
    report.queries_checked += 1
    detail = twin_mismatch(
        solo.relation, record.relation, exact=not record.reorders
    )
    if detail is not None:
        diverge("solo", detail, solo.metrics)
    if check_reference:
        reference = evaluate_reference(executor.pdb.database, item.plan)
        report.reference_checks += 1
        detail = reference_mismatch(reference, record.relation)[0]
        if detail is not None:
            diverge("reference", detail, solo.metrics)
