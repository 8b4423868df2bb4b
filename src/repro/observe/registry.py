"""Process-wide metrics registry: named counters and gauges.

:class:`ExecutionMetrics` accounts one query execution; the registry
accounts the *process* — cache effectiveness, update churn, delta
volume — so a query-log record can situate each execution in the state
the engine had reached when it ran.  Producers bump the module-level
:data:`REGISTRY` (the executor's plan/fragment caches, the update
session's epoch bumps, the compactor); consumers snapshot it into every
query-log record (:func:`repro.observe.query_log.build_record`).

Counters are monotone floats; gauges are last-write-wins.  The registry
is intentionally dumb — plain dicts, no locks (CPython dict ops are
atomic enough for the single-threaded engine; pool workers run in their
own processes and never see the parent's registry), no export loop.

Counter names in use:

====================== =================================================
``plan_cache.hits``    executor plan-cache hits (lowering reused)
``plan_cache.misses``  ... misses (a fresh lowering ran)
``fragment_cache.hits``   fragment-plan cache hits
``fragment_cache.misses`` ... misses (the fragmenting pass ran)
``lowering.scans``     scans in freshly lowered plans (plan-cache misses)
``lowering.full_scans``   ... whose ``selection`` is the one run ``(0, n)``:
                       every stored row in storage order
``lowering.rows_selected`` rows the other scans select
                       (Σ ``len(selection)``)
``queries_executed``   plans run through ``Executor.run``
``delta_rows_scanned`` merge-on-read rows served from delta runs
``commits``            update-session commits applied
``epochs_bumped``      stored-table epoch bumps (commit or compaction)
``compactions``        delta stores folded back into base layouts
====================== =================================================

plus ``updates.logical_bytes_copied``, the bytes of logical table arrays
(insert batches, deletion bitmaps, folded bases) that commits and folds
allocated,

and, from the process backend (``repro.parallel.backends``), what "one
pool per process, payloads name tables" comes to:

=================================== ====================================
``process_backend.pool_starts``     worker pools forked (a re-fork after
                                    a commit or a compaction included)
``process_backend.payload_bytes``   pickled task bytes of every fragment
                                    dispatched to a worker
``process_backend.deps_bytes``      pickled dependency results the
                                    parent ships with those tasks
=================================== ====================================
"""

from __future__ import annotations

from typing import Dict

__all__ = ["MetricsRegistry", "REGISTRY"]


class MetricsRegistry:
    """Named monotone counters plus last-write-wins gauges."""

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        #: counter values at the previous ``delta_since_last`` call —
        #: the baseline the next per-record delta is computed against.
        self._delta_base: Dict[str, float] = {}

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Bump a counter (created at zero on first sight)."""
        self.counters[name] = self.counters.get(name, 0.0) + float(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    def get(self, name: str, default: float = 0.0) -> float:
        if name in self.counters:
            return self.counters[name]
        return self.gauges.get(name, default)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """A deep copy safe to embed in a query-log record."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
        }

    def delta_since_last(self) -> Dict[str, float]:
        """Counter increments since the previous call (and advance the
        baseline to now).  The cumulative ``snapshot`` embeds the whole
        process history into every record — record N of a suite run
        includes all prior queries' counters — so consumers that want
        *this execution's* churn read the per-record delta instead.
        Only counters that moved appear; the first call returns every
        nonzero counter."""
        delta = {
            name: value - self._delta_base.get(name, 0.0)
            for name, value in self.counters.items()
            if value != self._delta_base.get(name, 0.0)
        }
        self._delta_base = dict(self.counters)
        return delta

    def reset(self) -> None:
        """Forget everything (tests; never called by the engine)."""
        self.counters = {}
        self.gauges = {}
        self._delta_base = {}


#: the process-wide registry every engine component reports into.
REGISTRY = MetricsRegistry()
