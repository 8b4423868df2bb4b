"""The benchmark's own span recorder.

Spans are taken from *outside* the program: the harness wraps calls
into the public functions of each layer (see ``workloads.py``) and
keeps ``[name, start, end, parent, op]`` rows in memory; nothing is
written until the run is over.  A layer's *self time* is its span minus
the part its direct children cover, so the self times of one op's spans
add up to the op's root span.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, List

NAME, START, END, PARENT, OP = range(5)


class Recorder:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op = -1          # spans of one op share this id
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][END] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a ``name`` span."""
        def spanned(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return spanned


def self_seconds(spans: List[list]) -> List[float]:
    """Per span: its duration minus its direct children's."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def by_name(spans: List[list], first: int = 0) -> Dict[str, Dict[str, list]]:
    """``name -> {"durations": [...], "self": [...]}`` (seconds) over
    ``spans[first:]`` — ``first`` marks where the traced passes begin."""
    own = self_seconds(spans)
    grouped: Dict[str, Dict[str, list]] = {}
    for index in range(first, len(spans)):
        span = spans[index]
        entry = grouped.setdefault(span[NAME], {"durations": [], "self": []})
        entry["durations"].append(span[END] - span[START])
        entry["self"].append(own[index])
    return grouped


def write_chrome_trace(spans: List[list], process: str, path: str) -> None:
    """Spans as Chrome trace events in the shape ``python -m
    repro.observe validate`` checks; nesting shows as stacked slices."""
    origin = spans[0][START] if spans else 0.0
    events = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
         "args": {"name": process}},
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
         "args": {"name": "host clock"}},
    ]
    for index, span in enumerate(spans):
        events.append(
            {
                "name": span[NAME],
                "cat": span[NAME].rsplit(".", 1)[0],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (span[START] - origin) * 1e6,
                "dur": (span[END] - span[START]) * 1e6,
                "args": {"id": index, "parent": span[PARENT], "op": span[OP]},
            }
        )
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
        fh.write("\n")
