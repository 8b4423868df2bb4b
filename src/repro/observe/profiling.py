"""Opt-in cProfile capture around fragment execution.

``ExecutionOptions.profile`` (or ``--profile`` on the CLIs) wraps every
fragment's ``run`` (a serial plan is one fragment) in a
:class:`cProfile.Profile` and keeps the top functions by exclusive time.  The capture is *passive*:
simulated charges are computed by the very frames being observed, so
results and charges are bit-identical with profiling on or off (pinned
by tests); only measured wall clocks pay the profiler overhead.

Each captured entry is a plain dict so it can ride inside
:class:`~repro.execution.metrics.FragmentActuals`, the query-log record
and the Perfetto export unchanged::

    {"function": "layout.py:214(scan_pages)",
     "calls": 128,
     "total_seconds": 0.0031,      # exclusive (own-frame) time
     "cumulative_seconds": 0.0119} # inclusive of callees
"""

from __future__ import annotations

import cProfile
import pstats
from typing import Any, Callable, List, Tuple

__all__ = ["TOP_FUNCTIONS", "profile_call", "top_functions"]

#: how many functions (by exclusive time) each profile keeps.
TOP_FUNCTIONS = 10


def top_functions(profiler: cProfile.Profile, limit: int = TOP_FUNCTIONS) -> List[dict]:
    """The ``limit`` hottest functions of a finished profile, by
    exclusive time, as query-log-ready dicts."""
    stats = pstats.Stats(profiler)
    entries = []
    for (filename, line, name), (
        _primitive_calls, calls, total, cumulative, _callers
    ) in stats.stats.items():  # type: ignore[attr-defined]
        if filename == "~":  # builtins render as "~:0(<len>)"
            label = name
        else:
            short = filename.rsplit("/", 1)[-1]
            label = f"{short}:{line}({name})"
        entries.append(
            {
                "function": label,
                "calls": int(calls),
                "total_seconds": float(total),
                "cumulative_seconds": float(cumulative),
            }
        )
    entries.sort(key=lambda e: (-e["total_seconds"], e["function"]))
    return entries[:limit]


def profile_call(
    fn: Callable[..., Any], *args: Any, enabled: bool = True
) -> Tuple[Any, List[dict]]:
    """Call ``fn(*args)``, profiled when ``enabled``; returns the
    result and the top-function stats (empty list when disabled)."""
    if not enabled:
        return fn(*args), []
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn(*args)
    finally:
        profiler.disable()
    return result, top_functions(profiler)
