"""The one observability sink: finished execution -> trace, log, records.

Every driver above ``Executor`` / ``ServingEngine`` — the TPC-H suite
and EXPLAIN modes, the differential sweep, both serving modes — hands a
finished execution to :meth:`ObservabilitySink.observe`, which fans it
out to whatever the command line enabled: the Perfetto trace builder
(``--trace``), the validated JSONL query log (``--query-log``) and the
in-memory record list a ``--json`` document embeds.  One sink, so the
three surfaces cannot drift apart and a flag cannot be honoured in one
mode and dropped in another.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, List, NoReturn, Optional

from .query_log import QueryLog, build_record
from .trace_events import TraceBuilder

__all__ = ["ObservabilitySink", "run_main"]


def run_main(main: Callable[[], int]) -> NoReturn:
    """Exit a ``python -m`` driver with ``main()``'s status, or with 0
    and no traceback when its reader went away (``... | head``)."""
    try:
        status = main()
        sys.stdout.flush()  # a write that fails must fail here, not at exit
    except BrokenPipeError:
        # stdout is flushed once more at exit: /dev/null takes that write
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 0
    raise SystemExit(status)


class ObservabilitySink:
    """Fans finished executions out to the enabled surfaces.

    ``builder`` is the shared :class:`TraceBuilder` (``None`` without
    ``--trace``): serving modes draw their runs onto it with
    ``serving_trace(report, builder=sink.builder)``, so one file holds
    every timeline.  ``records`` is the ``--json`` list (``None`` when
    not collecting)."""

    def __init__(
        self,
        trace_path: Optional[str] = None,
        query_log_path: Optional[str] = None,
        collect: bool = False,
    ):
        self.trace_path = trace_path
        self.builder = TraceBuilder() if trace_path else None
        self.query_log = QueryLog(query_log_path) if query_log_path else None
        self.records: Optional[List[dict]] = [] if collect else None

    @property
    def enabled(self) -> bool:
        return bool(self.builder or self.query_log or self.records is not None)

    def observe(
        self,
        label: str,
        metrics,
        *,
        pdb,
        options,
        plans=(),
        relation=None,
        stages=(),
        collect: bool = True,
    ) -> None:
        """Record one finished execution.  ``stages`` are the per-stage
        metrics to draw on the trace, one slice group each (a served
        query passes none: its fragments sit on the serving run's shared
        timeline instead).  ``collect=False`` keeps the record out of
        the ``--json`` list while still logging it — the sweep embeds
        only its default variant so the document stays bounded."""
        if self.builder is not None:
            for position, stage in enumerate(stages):
                stage_label = (
                    label if len(stages) == 1
                    else f"{label} stage {position + 1}"
                )
                self.builder.add_execution(stage_label, stage)
        collect = collect and self.records is not None
        if self.query_log is None and not collect:
            return
        record = build_record(
            label, metrics, pdb=pdb, options=options, plans=plans,
            relation=relation,
        )
        if self.query_log is not None:
            self.query_log.write(record)
        if collect:
            self.records.append(record)

    def served(self, record, *, pdb, options) -> None:
        """Record one served query (a ``ServingEngine.serve`` observer's
        :class:`~repro.serving.metrics.QueryRecord`)."""
        self.observe(
            f"{record.description}/{pdb.scheme_name}/{record.stream}",
            record.metrics, pdb=pdb, options=options, relation=record.relation,
        )

    def finish(self) -> None:
        """Write the trace file and close the query log."""
        if self.builder is not None:
            self.builder.write(self.trace_path)
        if self.query_log is not None:
            self.query_log.close()
