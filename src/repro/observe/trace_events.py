"""Chrome trace-event (Perfetto) export of execution timelines.

Renders :class:`~repro.execution.metrics.ExecutionMetrics` fragment
timelines as `Trace Event Format`_ JSON that loads directly into
https://ui.perfetto.dev or ``chrome://tracing``:

* **workers are lanes** — each simulated worker is one thread (``tid``)
  of the ``simulated`` process; lane 0 (``queries``) carries one slice
  per execution so query boundaries stay visible;
* **fragments are slices** — complete (``"X"``) events positioned by the
  scheduler's ``start``/``end``, with the fragment's role, rows,
  charged IO/CPU and memory in ``args``;
* **IO contention is a sub-slice** — the IO phase (``start`` →
  ``io_end``) nests inside its fragment slice and reports the
  *stretch*: scheduled IO window minus charged (uncontended) IO
  seconds, i.e. exactly the time lost to disk-stream sharing;
* **exchanges are flow events** — every ``depends_on`` edge becomes an
  ``"s"``/``"f"`` flow pair from the producer's end to the consumer's
  start, so Perfetto draws the dataflow arrows across lanes;
* **the measured timeline is a second process** — when the process
  backend ran, fragments carry measured wall positions and the same
  structure renders again under a ``measured (process backend)``
  process, so modelled and real timelines sit one above the other.

Multiple executions accumulate into one :class:`TraceBuilder`; each is
shifted to its own time window so a whole suite reads left-to-right.

.. _Trace Event Format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List, Optional

from ..execution.metrics import ExecutionMetrics
from .schema import ANY, NUMBER, Number, Rule, Tagged, problems

__all__ = ["TraceBuilder", "validate_trace_events", "validate_trace"]

_US = 1e6          # seconds -> trace microseconds
_QUERY_GAP_US = 50.0  # horizontal gap between consecutive executions

#: lane 0 is the per-process query overview lane; worker w sits at w+1.
_QUERY_LANE = 0


class TraceBuilder:
    """Accumulates executions into one Chrome trace-event document."""

    def __init__(self) -> None:
        self.events: List[dict] = []
        self._pids: Dict[str, int] = {}
        self._named_threads: set = set()
        self._origin_us: Dict[int, float] = {}
        self._flow_id = 0

    # ---- drawing: public, ``repro.serving.serving_trace`` draws with them too
    def process(self, process: str) -> int:
        """The pid of the named process lane group (created and named
        on first use)."""
        pid = self._pids.get(process)
        if pid is None:
            pid = len(self._pids) + 1
            self._pids[process] = pid
            self.events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": process},
                }
            )
        return pid

    def thread(self, pid: int, tid: int, name: str) -> None:
        """Name lane ``tid`` of process ``pid`` (once)."""
        if (pid, tid) not in self._named_threads:
            self._named_threads.add((pid, tid))
            self.events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": name},
                }
            )

    def slice(self, pid, tid, name, cat, ts, dur, args=None) -> None:
        """One complete (``"X"``) event, in trace microseconds."""
        self.events.append(
            {
                "name": name,
                "cat": cat,
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": ts,
                "dur": max(dur, 0.0),
                "args": args or {},
            }
        )

    def _flow(self, pid, src_tid, dst_tid, src_ts, dst_ts) -> None:
        self._flow_id += 1
        common = {"name": "exchange", "cat": "exchange", "id": self._flow_id, "pid": pid}
        self.events.append({**common, "ph": "s", "tid": src_tid, "ts": src_ts})
        # bp="e" binds the arrow to the enclosing slice at the arrival
        # timestamp instead of the next slice start
        self.events.append(
            {**common, "ph": "f", "bp": "e", "tid": dst_tid, "ts": dst_ts}
        )

    # ---------------------------------------------------------- timelines
    def _add_timeline(
        self,
        process: str,
        label: str,
        metrics: ExecutionMetrics,
        positions: Dict[int, tuple],
        wall_seconds: float,
        io_ends: Optional[Dict[int, float]] = None,
    ) -> None:
        """One execution on one process: ``positions`` maps fragment
        index to its ``(start, end)`` seconds on this timeline."""
        pid = self.process(process)
        origin = self._origin_us.get(pid, 0.0)
        self.thread(pid, _QUERY_LANE, "queries")
        self.slice(
            pid, _QUERY_LANE, label, "query", origin, wall_seconds * _US,
            args={
                "backend": metrics.backend,
                "workers": metrics.workers,
                "total_seconds": metrics.total_seconds,
                "rows_produced": metrics.rows_produced,
            },
        )
        by_index = {f.index: f for f in metrics.fragments}
        for f in metrics.fragments:
            if f.index not in positions:
                continue
            start, end = positions[f.index]
            tid = max(f.worker, 0) + 1
            self.thread(pid, tid, f"worker {max(f.worker, 0)}")
            ts = origin + start * _US
            self.slice(
                pid, tid, f"{label} f{f.index} [{f.role}]", "fragment",
                ts, (end - start) * _US,
                args={
                    "description": f.description,
                    "depends_on": list(f.depends_on),
                    "io_seconds": f.io_seconds,
                    "cpu_seconds": f.cpu_seconds,
                    "rows_out": f.rows_out,
                    "output_bytes": f.output_bytes,
                    "peak_memory_bytes": f.peak_memory_bytes,
                    "queue_wait_seconds": f.queue_wait_seconds,
                    "measured_seconds": f.measured_seconds,
                },
            )
            if io_ends is not None:
                io_end = io_ends.get(f.index, start)
                if io_end > start:
                    self.slice(
                        pid, tid, "io", "io", ts, (io_end - start) * _US,
                        args={
                            "charged_io_seconds": f.io_seconds,
                            "stretch_seconds": max(
                                (io_end - start) - f.io_seconds, 0.0
                            ),
                        },
                    )
        for f in metrics.fragments:
            if f.index not in positions:
                continue
            _, end = positions[f.index]
            for consumer in (
                c for c in metrics.fragments
                if f.index in c.depends_on and c.index in positions
            ):
                c_start = positions[consumer.index][0]
                self._flow(
                    pid,
                    max(by_index[f.index].worker, 0) + 1,
                    max(consumer.worker, 0) + 1,
                    origin + end * _US,
                    origin + max(c_start, end) * _US,
                )
        self._origin_us[pid] = origin + wall_seconds * _US + _QUERY_GAP_US

    def add_execution(self, label: str, metrics: ExecutionMetrics) -> None:
        """Render one execution: the simulated timeline always, and the
        measured timeline too when the backend recorded wall positions."""
        simulated = {
            f.index: (f.start_seconds, f.end_seconds) for f in metrics.fragments
        }
        io_ends = {f.index: f.io_end_seconds for f in metrics.fragments}
        self._add_timeline(
            "simulated", label, metrics, simulated, metrics.wall_seconds,
            io_ends=io_ends,
        )
        measured = {
            f.index: (f.measured_start_seconds, f.measured_end_seconds)
            for f in metrics.fragments
            if f.measured_end_seconds > f.measured_start_seconds
        }
        if measured:
            wall = metrics.measured_wall_seconds or max(
                end for _, end in measured.values()
            )
            self._add_timeline(
                f"measured ({metrics.backend} backend)", label, metrics,
                measured, wall,
            )

    # ------------------------------------------------------------- output
    def to_json(self) -> dict:
        return {"traceEvents": list(self.events), "displayTimeUnit": "ms"}

    def write(self, path: str) -> None:
        # serialised first: a non-finite value must fail before the file
        # exists, not leave an ``Infinity`` token or half a document in it
        text = json.dumps(self.to_json(), allow_nan=False)
        with open(path, "w") as fh:
            fh.write(text + "\n")


# ------------------------------------------------------------ validation
def _flow_problems(events: List[dict]) -> Iterator[str]:
    """Every flow start has exactly one finish, not earlier in time."""
    departed: Dict[str, dict] = {}
    for position, event in enumerate(events):
        if event["ph"] not in ("s", "f"):
            continue
        # ``cat`` and ``id`` may be any JSON value: key on their text
        flow = repr((event.get("cat"), event["id"]))
        if event["ph"] == "s":
            departed[flow] = event
        elif flow not in departed:
            yield f"event {position}: flow finish without a start (id {event['id']!r})"
        elif event["ts"] < departed.pop(flow)["ts"]:
            yield f"event {position}: flow arrives before it departs (id {event['id']!r})"
    for event in departed.values():
        yield f"flow start without a finish (id {event['id']!r})"


_EVENT = {"name": ANY, "pid": ANY, "tid": ANY, ...: ANY}
_NON_NEGATIVE = Number(non_negative=True)
#: what the exporter promises: well-formed events per phase,
#: non-negative slice geometry, matched and time-ordered flow pairs.
EVENTS_SPEC = Rule(
    [Tagged("ph", {
        "X": {**_EVENT, "ts": _NON_NEGATIVE, "dur": _NON_NEGATIVE},
        "M": _EVENT,
        "s": {**_EVENT, "ts": NUMBER, "id": ANY},
        "f": {**_EVENT, "ts": NUMBER, "id": ANY},
    })],
    _flow_problems,
)


def validate_trace_events(events: List[dict]) -> List[str]:
    """Structural validation of a trace-event list; returns problems
    (empty = valid), each naming the event's position and field."""
    return problems(events, EVENTS_SPEC, "traceEvents")


def validate_trace(document) -> List[str]:
    """Validate a whole trace document (the ``to_json()`` shape)."""
    return problems(document, {"traceEvents": EVENTS_SPEC, ...: ANY})
