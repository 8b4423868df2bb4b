"""The four workloads of the end-to-end benchmark.

Every workload has the same life cycle, driven by ``child.py``:
``setup`` (datagen + scheme builds, spanned) -> ``verify`` (one pass,
off the clock, that checks every result against an oracle and keeps it
as the expectation for the timed passes) -> ``run_pass`` x N (the timed
work) with ``check_pass`` after the clock has stopped.

Nothing under ``src/`` is touched: layers are timed by wrapping calls
into their public functions (``instrument``), and simulated quantities
are read from the public result fields.

Workload parameters that look arbitrary are not:

* scale factors sit where the advisor's design does not depend on the
  data seed.  At SF 0.005 and 0.02 a table's page count straddles a
  power of two and Algorithm 1 picks 3.4k or 6.0k LINEITEM groups
  (resp. 3.1k or 5.8k PARTSUPP groups) depending on the seed, which
  moves lowering time by a third; at 0.006, 0.025 and 0.05 twelve seeds
  in a row give the same design.
* ``generated_small`` replays one fixed plan set (``PLAN_SEED``, with
  literals drawn from a ``PLAN_SEED`` database) over the ``--seed``
  data, the way TPC-H runs fixed templates over seeded data: plan cost
  is so skewed (LINEITEM plans are a third of the plans and four fifths
  of the time) that 300 freshly drawn plans move queries/s by +-12 %
  from seed to seed, which no bound could tell from a regression.
"""

from __future__ import annotations

import json
import math
import os
import time
import traceback
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro import tpch
from repro.core.advisor import SchemaAdvisor
from repro.observe import REGISTRY, QueryLog, SpanTracer, build_record
from repro.parallel.scheduler import merge_parallel_metrics
from repro.planner.executor import ExecutionOptions, Executor, QueryResult
from repro.serving import (
    PlanListStream,
    RefreshStream,
    ServingEngine,
    TpchRefreshStream,
    capture_tpch_items,
)
from repro.tpch.environment import make_environment
from repro.tpch.harness import build_schemes
from repro.tpch.queries import QUERIES
from repro.tpch.runner import QueryRunner, run_query
from repro.updates.compaction import CompactionPolicy
from repro.workload.differential import (
    bitwise_mismatch,
    column_tolerances,
    normalized_rows,
    rows_match,
)
from repro.workload.generator import PlanGenerator
from repro.workload.reference import evaluate_reference

from spans import Recorder

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
DEFAULT_SEED = 7
PLAN_SEED = 0
QUICK_SF = 0.003
#: cross-scheme result tolerance: summation order differs per layout
CROSS_SCHEME_TOLERANCE = (1e-9, 1e-9)


# ---------------------------------------------------------------- checking
class Ops:
    """Operations attempted and failed.  An operation fails when it
    raises or when its result disagrees with its oracle."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.batch(1, 0 if ok else 1, what)

    def batch(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.failures) < 10:
            self.failures.append(what)


def _visible(relation) -> List[str]:
    """Sorted output column names of an engine or reference relation
    (both also carry hidden bookkeeping columns)."""
    names = getattr(relation, "visible_names", None)
    return sorted(relation.column_names if names is None else names)


def same_rows(expected, got, tolerance=None) -> bool:
    """Order-insensitive comparison of two relations.  ``tolerance`` is
    a ``(rel, abs)`` pair for float columns; ``None`` takes the repo's
    per-dtype envelopes (engine vs the float64 reference)."""
    names = _visible(expected)
    if _visible(got) != names:
        return False
    if tolerance is None:
        tolerances = column_tolerances(names, expected.columns, got.columns)
    else:
        tolerances = [tolerance] * len(names)
    return rows_match(
        normalized_rows(expected.columns, names),
        normalized_rows(got.columns, names),
        tolerances,
    )


def same_bits(expected, got) -> bool:
    return got is not None and bitwise_mismatch(expected, got) is None


def digest(columns: Dict[str, np.ndarray]) -> dict:
    """Row count plus one checksum per column: the sum of a numeric
    column, the CRC of a text column's values in storage order.  Small
    enough to commit as a golden and to keep for every op of a pass."""
    sums: Dict[str, object] = {}
    rows = 0
    for name, values in columns.items():
        values = np.asarray(values)
        rows = len(values)
        if values.dtype.kind in "iub":
            sums[name] = int(values.sum(dtype=np.int64))
        elif values.dtype.kind == "f":
            sums[name] = float(np.nansum(values))
        elif values.dtype.kind in "US":
            sums[name] = zlib.crc32(np.ascontiguousarray(values).tobytes())
        else:
            sums[name] = zlib.crc32("\x00".join(map(str, values.tolist())).encode())
    return {"rows": rows, "columns": sums}


def result_digest(relation) -> Optional[dict]:
    if relation is None:  # the op raised
        return None
    return digest({name: relation.column(name) for name in relation.column_names})


def _close(expected, got) -> bool:
    if isinstance(expected, dict):
        return (
            isinstance(got, dict)
            and expected.keys() == got.keys()
            and all(_close(expected[k], got[k]) for k in expected)
        )
    if isinstance(expected, (list, tuple)):
        return (
            isinstance(got, (list, tuple))
            and len(expected) == len(got)
            and all(_close(a, b) for a, b in zip(expected, got))
        )
    if isinstance(expected, float) or isinstance(got, float):
        return math.isclose(expected, got, rel_tol=1e-9, abs_tol=1e-12)
    return expected == got


class Golden:
    """Committed expectations under ``golden/``: ``<kind>.json`` maps a
    scale factor to ``{key: value}``.  They exist for the default seed
    only; any other seed skips them (the oracles that need no golden
    still run)."""

    def __init__(self, directory: str, sf: float, seed: int, write: bool):
        self.directory = directory
        self.sf = repr(sf)
        self.active = seed == DEFAULT_SEED
        self.write = write
        self._docs: Dict[str, dict] = {}

    def _entries(self, kind: str) -> dict:
        if kind not in self._docs:
            path = os.path.join(self.directory, f"{kind}.json")
            doc = {}
            if os.path.exists(path):
                with open(path) as fh:
                    doc = json.load(fh)
            self._docs[kind] = doc
        return self._docs[kind].setdefault(self.sf, {})

    def matches(self, kind: str, key: str, value) -> bool:
        """Whether ``value`` is what the golden holds (``True`` where no
        golden applies; when writing goldens, records ``value``)."""
        if not self.active:
            return True
        entries = self._entries(kind)
        if self.write:
            entries[key] = value
        return key not in entries or _close(entries[key], value)

    def save(self) -> None:
        for kind, doc in self._docs.items():
            with open(os.path.join(self.directory, f"{kind}.json"), "w") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
                fh.write("\n")


# ----------------------------------------------------------- instrumenting
def instrument(executor: Executor, rec: Recorder) -> Executor:
    """Time an executor's layers from outside: its public methods are
    shadowed by instance attributes that record spans, and ``run``
    issues the parallel path as the separately timed public calls the
    executor itself makes (fragment plan -> backend -> merge)."""
    serial_run = executor.run
    executor.lower = rec.wrap("planner.lowering.lower", executor.lower)
    executor.parallel_plan = rec.wrap(
        "parallel.fragments.plan", executor.parallel_plan
    )
    executor.close = rec.wrap("parallel.backends.close", executor.close)

    def run(pplan) -> QueryResult:
        if executor.options.workers > 1:
            parallel = executor.parallel_plan(pplan)
            if parallel.is_parallel:
                backend = executor.backend()
                disk, costs = executor.disk, executor.costs
                if executor.options.backend == "process":
                    with rec.span("parallel.backends.run"):
                        relation, metrics = backend.run(parallel, disk, costs)
                else:
                    with rec.span("parallel.scheduler.execute_fragments"):
                        results, per_fragment = backend.execute_fragments(
                            parallel, disk, costs
                        )
                    with rec.span("parallel.scheduler.merge"):
                        relation, metrics = merge_parallel_metrics(
                            parallel, results, per_fragment, disk
                        )
                return QueryResult(relation, metrics)
        with rec.span("execution.operators.run"):
            return serial_run(pplan)

    executor.run = run
    return executor


@dataclass
class Pass:
    """What one pass produced.  ``tally`` holds simulated sums and
    counts, ``samples`` extra per-op host samples (seconds), ``results``
    whatever ``check_pass`` compares once the clock has stopped."""

    wall_s: float
    host_s: List[float] = field(default_factory=list)
    sim_s: List[float] = field(default_factory=list)
    tally: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    results: list = field(default_factory=list)

    def add(self, key: str, amount: float) -> None:
        self.tally[key] = self.tally.get(key, 0.0) + amount

    def tally_metrics(self, metrics, scheme: str) -> None:
        """Fold one query's simulated charges into the pass."""
        self.sim_s.append(metrics.makespan_seconds)
        self.add("sim_wall_s", metrics.makespan_seconds)
        self.add("sim_total_s", metrics.total_seconds)
        self.add(f"sim_total_s.{scheme}", metrics.total_seconds)
        self.add(f"sim_peak_sum.{scheme}", metrics.peak_memory_bytes)
        self.add("sim_cpu_s", metrics.cpu_seconds)
        self.add("sim_io_s", metrics.io_seconds)
        self.add("io_bytes", metrics.io_bytes)
        self.add("io_accesses", metrics.io_accesses)
        self.add("rows_scanned", metrics.rows_scanned)
        self.add("delta_rows_scanned", metrics.delta_rows_scanned)


# --------------------------------------------------------------- workloads
class Workload:
    name = ""
    sf = 0.0
    schemes: tuple = ()
    options = ExecutionOptions()
    #: one pass on the 2-core reference host; ``--seconds`` divided by it
    #: fixes the number of passes, so two commits do the same work
    pass_seconds = 1.0

    def __init__(self, seed: int, quick: bool = False):
        self.seed = seed
        self.quick = quick
        if quick:
            self.sf = QUICK_SF
        self.sim_peak_mem = 0.0

    def passes(self, seconds: float) -> int:
        return 1 if self.quick else max(2, round(seconds / self.pass_seconds))

    # ------------------------------------------------------------- set-up
    def setup(self, rec: Recorder, split_advisor: bool = False) -> None:
        with rec.span("tpch.datagen.generate"):
            self.db = tpch.generate(scale_factor=self.sf, seed=self.seed)
        self.env = make_environment(self.sf)
        self.disk, self.costs = self.env.disk, self.env.cost_model
        if split_advisor:
            # the advisor's two phases called directly; the scheme build
            # below repeats them, which only the traced run pays for
            advisor = SchemaAdvisor(self.db.schema, self.env.advisor_config())
            with rec.span("core.advisor.design"):
                design = advisor.design(self.db)
            with rec.span("core.advisor.build"):
                advisor.build(self.db, design)
        self.pdbs = {}
        for scheme in self.schemes:
            with rec.span(f"schemes.{scheme}.build"):
                self.pdbs.update(build_schemes(self.db, self.env, include=[scheme]))

    def check_datagen(self, ops: Ops, golden: Golden) -> None:
        """``tpch.generate`` must keep producing the committed data."""
        drifted = [
            table for table in self.db.loaded_tables if golden.active
            and not golden.matches("datagen", table, digest(self.db.table_data(table)))
        ]
        ops.check(not drifted, f"tpch.generate drifted from the golden: {drifted}")

    def tracer_overhead(self) -> float:
        """Share of throughput lost to the repo's own SpanTracer +
        QueryLog; measured where the op is the CLI's (``paper_suite``)."""
        return 0.0

    def start_tracing(self, rec: Recorder) -> None:
        """Instrument whatever outlives a pass (per-pass executors are
        instrumented where they are made)."""

    def close(self) -> None:
        pass

    def verify(self, ops: Ops, golden: Golden, rec: Recorder) -> None:
        raise NotImplementedError

    def run_pass(self, rec: Optional[Recorder] = None, index: int = 0) -> Pass:
        raise NotImplementedError

    def check_pass(self, done: Pass, ops: Ops, golden: Golden, index: int) -> None:
        raise NotImplementedError


class SingleClient(Workload):
    """One client issuing queries back to back (closed loop, one
    client): the latency of a query is the duration of its call."""

    #: [(label, scheme, payload)], the same sequence every pass
    ops: list = []

    def issue(self, op, rec: Optional[Recorder]):
        """Run one op; returns ``(relation, metrics)``."""
        raise NotImplementedError

    def open_pass(self, rec: Optional[Recorder]) -> None:
        pass

    def close_pass(self) -> None:
        pass

    def run_pass(self, rec: Optional[Recorder] = None, index: int = 0) -> Pass:
        outcomes = []
        self.open_pass(rec)
        started = time.perf_counter()
        for position, op in enumerate(self.ops):
            issued = time.perf_counter()
            try:
                if rec is None:
                    outcome = self.issue(op, None)
                else:
                    rec.op = position
                    with rec.span("query"):
                        outcome = self.issue(op, rec)
            except Exception:  # a failed op is counted, the pass goes on
                traceback.print_exc()
                outcome = (None, None)
            outcomes.append((time.perf_counter() - issued, outcome))
        done = Pass(wall_s=time.perf_counter() - started)
        self.close_pass()
        for op, (seconds, (relation, metrics)) in zip(self.ops, outcomes):
            done.host_s.append(seconds)
            done.results.append(relation)
            if metrics is not None:
                done.tally_metrics(metrics, op[1])
                self.tally_fragments(done, metrics)
        return done

    def tally_fragments(self, done: Pass, metrics) -> None:
        done.add("fragments", len(metrics.fragments))
        done.add("parallel_queries", metrics.workers > 1)
        measured = [f for f in metrics.fragments if f.measured_seconds > 0.0]
        if not measured:
            return
        # the process backend's measured timeline: how long until the
        # first worker started (pool start + export + pickle + dispatch),
        # how busy the workers were, and the parent-side tail
        workers = [f for f in measured if f.role != "final"]
        done.samples.setdefault("first_start", []).append(
            min(f.measured_start_seconds for f in measured)
        )
        done.samples.setdefault("tail", []).append(
            sum(f.measured_seconds for f in measured if f.role == "final")
        )
        done.add("worker_busy_s", sum(f.measured_seconds for f in workers))
        done.add("worker_capacity_s", metrics.workers * metrics.measured_wall_seconds)

    def check_pass(self, done: Pass, ops: Ops, golden: Golden, index: int) -> None:
        # same plans, same options, same process: a timed result must
        # have exactly the verify pass's digest
        for op, expected, got in zip(self.ops, self.expected, done.results):
            ops.check(
                result_digest(got) == expected, f"{self.name} pass {index}: {op[0]}"
            )


class TpchQueries(SingleClient):
    """Ops are the CLI's: ``run_query`` with a cold executor per query."""

    def setup(self, rec: Recorder, split_advisor: bool = False) -> None:
        super().setup(rec, split_advisor)
        self.ops = [
            (f"{query}/{scheme}", scheme, fn)
            for query, fn in QUERIES.items()
            for scheme in self.schemes
        ]

    def issue(self, op, rec: Optional[Recorder], options=None, **observe):
        _, scheme, fn = op
        options = options or self.options
        if rec is None:
            result, metrics = run_query(
                self.pdbs[scheme], fn, disk=self.disk, costs=self.costs,
                options=options, **observe,
            )
            return result.relation, metrics
        # run_query's own body, with the executor instrumented
        executor = instrument(
            Executor(self.pdbs[scheme], self.disk, self.costs, options), rec
        )
        try:
            runner = QueryRunner(executor)
            result = fn(runner)
            return result.relation, runner.metrics
        finally:
            executor.close()


class PaperSuite(TpchQueries):
    """The paper's Fig. 2/3 run: all 22 queries under the three schemes,
    serial.  ``BENCHMARK.json`` says why each workload exists."""

    name = "paper_suite"
    sf = 0.05
    schemes = ("plain", "pk", "bdcc")
    pass_seconds = 2.0

    def verify(self, ops: Ops, golden: Golden, rec: Recorder) -> None:
        self.check_datagen(ops, golden)
        self.expected = []
        plain = None
        for op in self.ops:
            label, scheme, _ = op
            relation, metrics = self.issue(op, None)
            self.expected.append(result_digest(relation))
            self.sim_peak_mem = max(self.sim_peak_mem, metrics.peak_memory_bytes)
            if scheme == "plain":
                plain = relation
                ops.check(
                    golden.matches(self.name, label, self.expected[-1]),
                    f"{label} differs from the golden",
                )
            else:
                ops.check(
                    same_rows(plain, relation, CROSS_SCHEME_TOLERANCE),
                    f"{label} differs from plain",
                )

    def tracer_overhead(self) -> float:
        bare = self.run_pass()
        path = os.path.join(OUT_DIR, "querylog-paper_suite.jsonl")
        if os.path.exists(path):
            os.remove(path)
        tracer = SpanTracer()
        with QueryLog(path) as log:
            started = time.perf_counter()
            for label, scheme, fn in self.ops:
                def observer(runner, result, label=label, scheme=scheme):
                    log.write(
                        build_record(
                            label, runner.metrics, pdb=runner.executor.pdb,
                            scheme=scheme, options=self.options,
                            plans=runner.physical_plans, relation=result.relation,
                        )
                    )
                self.issue((label, scheme, fn), None, tracer=tracer, observer=observer)
            observed = time.perf_counter() - started
        return 1.0 - bare.wall_s / observed


class ProcessParallel(TpchQueries):
    """The same queries on a real ``multiprocessing`` pool."""

    name = "process_parallel"
    sf = 0.025
    schemes = ("plain", "bdcc")
    options = ExecutionOptions(workers=2, backend="process")
    pass_seconds = 4.4

    def verify(self, ops: Ops, golden: Golden, rec: Recorder) -> None:
        self.check_datagen(ops, golden)
        self.expected = []
        simulated = ExecutionOptions(workers=2)
        for op in self.ops:
            reference, modelled = self.issue(op, None, options=simulated)
            relation, metrics = self.issue(op, None)
            self.expected.append(result_digest(relation))
            self.sim_peak_mem = max(self.sim_peak_mem, metrics.peak_memory_bytes)
            ops.check(
                same_bits(reference, relation)
                and metrics.makespan_seconds == modelled.makespan_seconds,
                f"{op[0]}: process backend differs from the simulated backend",
            )


class GeneratedSmall(SingleClient):
    """Many distinct small plans through one executor: every plan a
    plan-cache miss."""

    name = "generated_small"
    sf = 0.006
    schemes = ("bdcc",)
    options = ExecutionOptions(workers=4)
    pass_seconds = 2.2
    plans = 240

    def setup(self, rec: Recorder, split_advisor: bool = False) -> None:
        super().setup(rec, split_advisor)
        count = 40 if self.quick else self.plans
        with rec.span("workload.generator.generate"):
            generator = PlanGenerator(tpch.generate(scale_factor=self.sf, seed=PLAN_SEED))
            self.ops = []
            for index in range(count):
                with rec.span("workload.generator.plan"):
                    generated = generator.generate(PLAN_SEED, index)
                self.ops.append((generated.description, "bdcc", generated.plan))

    def open_pass(self, rec: Optional[Recorder]) -> None:
        self.executor = Executor(self.pdbs["bdcc"], self.disk, self.costs, self.options)
        if rec is not None:
            instrument(self.executor, rec)

    def close_pass(self) -> None:
        self.executor.close()

    def issue(self, op, rec: Optional[Recorder]):
        result = self.executor.execute(op[2])
        return result.relation, result.metrics

    def verify(self, ops: Ops, golden: Golden, rec: Recorder) -> None:
        self.check_datagen(ops, golden)
        self.expected = []
        self.open_pass(None)
        for op in self.ops:
            relation, metrics = self.issue(op, None)
            self.expected.append(result_digest(relation))
            self.sim_peak_mem = max(self.sim_peak_mem, metrics.peak_memory_bytes)
            with rec.span("workload.reference.eval"):
                reference = evaluate_reference(self.db, op[2])
            ops.check(same_rows(reference, relation), f"{op[0]} differs from the reference")
        self.close_pass()


# ------------------------------------------------------------------ serving
class _TimedStream(PlanListStream):
    """Notes when each item was handed to the engine: the host-clock
    issue instant of that client's query."""

    def __init__(self, name, items, issued: dict):
        super().__init__(name, [i.plan for i in items], [i.description for i in items])
        self._issued = issued

    def item(self, index: int):
        self._issued[(self.name, index)] = time.perf_counter()
        return super().item(index)


class _TimedRefresh(RefreshStream):
    """Spans batch generation and the commit of the session the engine
    hands to ``apply`` (the engine commits right after)."""

    def __init__(self, inner: RefreshStream, rec: Recorder):
        super().__init__(inner.name)
        self._inner, self._rec = inner, rec

    def apply(self, index: int, session):
        with self._rec.span("tpch.refresh.generate"):
            description = self._inner.apply(index, session)
        session.commit = self._rec.wrap("updates.session.commit", session.commit)
        return description


class ServingRefresh(Workload):
    """Closed-loop query streams beside a refresh stream on one evolving
    database; a pass is one ``ServingEngine.serve`` round."""

    name = "serving_refresh"
    sf = 0.025
    schemes = ("bdcc",)
    options = ExecutionOptions(workers=4)
    pass_seconds = 2.2
    clients = 4
    pairs = 5

    def setup(self, rec: Recorder, split_advisor: bool = False) -> None:
        super().setup(rec, split_advisor)
        self.pdb = self.pdbs["bdcc"]
        with rec.span("serving.streams.capture"):
            self.items = capture_tpch_items(
                self.pdb, QUERIES, disk=self.disk, costs=self.costs
            )
        self.engine = self._engine(keep_results=False)

    def _engine(self, keep_results: bool) -> ServingEngine:
        return ServingEngine(
            self.pdb, disk=self.disk, costs=self.costs, options=self.options,
            policy="round-robin", max_concurrent=3, keep_results=keep_results,
            compaction_policy=CompactionPolicy(max_delta_fraction=0.02),
        )

    def close(self) -> None:
        self.engine.close()

    def start_tracing(self, rec: Recorder) -> None:
        # serve() calls its executor's lower / parallel_plan and its
        # backend's execute_fragments, so a round splits into lowering,
        # fragmenting, fragment execution, commit and the serving loop's
        # self time (which keeps the serial plans the engine runs
        # without going through its executor)
        backend = instrument(self.engine.executor, rec).backend()
        backend.execute_fragments = rec.wrap(
            "parallel.scheduler.execute_fragments", backend.execute_fragments
        )

    def _streams(self, issued: dict) -> list:
        streams = []
        for client in range(self.clients):
            shift = 6 * client % len(self.items)
            streams.append(
                _TimedStream(
                    f"client{client}", self.items[shift:] + self.items[:shift], issued
                )
            )
        return streams

    def verify(self, ops: Ops, golden: Golden, rec: Recorder) -> None:
        self.check_datagen(ops, golden)
        # every distinct query solo: serial for the expected result,
        # under the workload's options for its peak memory (Fig. 3's
        # quantity; the engine's shared timeline does not carry it)
        solo = {}
        with Executor(self.pdb, self.disk, self.costs) as serial, Executor(
            self.pdb, self.disk, self.costs, self.options
        ) as parallel:
            for item in self.items:
                solo[item.description] = serial.execute(item.plan).relation
                peak = parallel.execute(item.plan).metrics.peak_memory_bytes
                self.sim_peak_mem = max(self.sim_peak_mem, peak)
        # one read-only round through the engine against those
        with self._engine(keep_results=True) as engine:
            report = engine.serve(self._streams({}))
        ops.check(
            len(report.queries) == self.clients * len(self.items),
            "read-only round lost queries",
        )
        for record in report.queries:
            expected = solo[record.description]
            if record.reorders or record.reaggregates:
                ok = same_rows(expected, record.relation, CROSS_SCHEME_TOLERANCE)
            else:
                ok = same_bits(expected, record.relation)
            ops.check(ok, f"served {record.stream}/{record.description} differs from solo")

    def run_pass(self, rec: Optional[Recorder] = None, index: int = 0) -> Pass:
        issued: Dict[tuple, float] = {}
        host_s: List[float] = []

        def observer(record) -> None:
            host_s.append(time.perf_counter() - issued[(record.stream, record.seq)])

        streams = self._streams(issued)
        refresh: RefreshStream = TpchRefreshStream(
            "refresh", self.db, seed=self.seed + index, pairs=self.pairs
        )
        serve = self.engine.serve
        if rec is not None:
            rec.op = index
            refresh = _TimedRefresh(refresh, rec)
            serve = rec.wrap("serving.engine.serve", serve)
        started = time.perf_counter()
        try:
            report = serve(streams, [refresh], observer=observer)
        except Exception:  # SnapshotViolation included: the round failed
            traceback.print_exc()
            return Pass(wall_s=time.perf_counter() - started)
        done = Pass(wall_s=time.perf_counter() - started, host_s=host_s)
        done.results.append(report)
        for record in report.queries:
            done.tally_metrics(record.metrics, "bdcc")
            done.add("fragments", record.fragment_count)
            done.add("parallel_queries", record.fragment_count > 1)
            done.add("sim_queue_s", record.queue_seconds)
        # served queries overlap: latency is the engine's, the wall
        # clock is the shared timeline's
        done.sim_s = [record.latency_seconds for record in report.queries]
        done.tally["sim_wall_s"] = report.makespan_seconds
        done.add("sim_busy_s", report.worker_busy_seconds)
        for commit in report.commits:
            done.add("commits", 1)
            done.add("commit_rows", commit.rows_inserted + commit.rows_deleted)
            done.add("compactions", bool(commit.compacted_tables))
            done.add("sim_compaction_s", commit.compaction_seconds)
        return done

    def check_pass(self, done: Pass, ops: Ops, golden: Golden, index: int) -> None:
        issued = self.clients * len(self.items) + 2 * self.pairs
        if not done.results:
            ops.batch(issued, issued, f"{self.name} round {index} raised")
            return
        report = done.results[0]
        completed = len(report.queries) + len(report.commits)
        ops.batch(issued, issued - completed, f"round {index}: queries or commits lost")
        served = [f"{r.stream} {r.description} {r.rows}" for r in report.queries]
        ops.check(
            golden.matches(self.name, f"round{index}", served),
            f"round {index}: served (stream, query, rows) differ from the golden",
        )


WORKLOADS = {
    w.name: w for w in (PaperSuite, GeneratedSmall, ProcessParallel, ServingRefresh)
}
