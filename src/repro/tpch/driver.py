"""What the two command-line drivers share.

``python -m repro.tpch`` and ``python -m repro.workload`` run different
things over the same substrate: generated TPC-H data, the physical
schemes, an :class:`~repro.planner.executor.ExecutionOptions` and the
observability sink.  The flags that mean the same in both are declared
once (:func:`shared_flags`, an argparse parent) and turned into those
objects once (:func:`open_session`).  ``--seed``, ``--queries`` and
``--workers`` mean different things per driver and stay local.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict

from ..observe import ObservabilitySink
from ..planner.executor import ExecutionOptions
from ..schemes.base import PhysicalDatabase
from .datagen import generate
from .environment import make_environment
from .harness import build_schemes

__all__ = ["shared_flags", "open_session"]


def shared_flags(streams: str) -> argparse.ArgumentParser:
    """The argparse parent of both drivers (a fresh one per call:
    ``set_defaults`` on the child rewrites the shared actions).
    ``streams`` says what this driver serves and reports under
    ``--streams`` — help text only."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--sf", type=float, default=0.01,
        help="TPC-H scale factor (default %(default)s)",
    )
    parent.add_argument(
        "--schemes", default="plain,pk,bdcc",
        help="comma-separated subset of plain,pk,bdcc",
    )
    parent.add_argument(
        "--backend", choices=("simulated", "process"), default="simulated",
        help=(
            "where parallel fragments execute: 'simulated' (in-process, "
            "deterministic scheduler; the default) or 'process' (a real "
            "multiprocessing pool forked over the stored tables — "
            "bit-identical results held to the same contracts, with "
            "measured wall clock reported next to the simulated charges)"
        ),
    )
    parent.add_argument(
        "--streams", type=int, default=0, metavar="N",
        help=(
            "serve N concurrent closed-loop query streams through the "
            "multi-query serving layer on the shared worker pool: "
            + streams
        ),
    )
    parent.add_argument(
        "--policy", choices=("fifo", "round-robin", "shortest"),
        default="fifo",
        help="admission (fairness) policy for --streams (default fifo)",
    )
    parent.add_argument(
        "--max-concurrent", type=int, default=None, metavar="M",
        help=(
            "multiprogramming limit for --streams: at most M queries in "
            "flight at once (default: the worker count)"
        ),
    )
    parent.add_argument(
        "--trace", metavar="FILE", default=None,
        help=(
            "write a Chrome trace-event JSON timeline of every execution "
            "(workers as lanes, fragments as slices, exchanges as flow "
            "arrows; open in https://ui.perfetto.dev)"
        ),
    )
    parent.add_argument(
        "--query-log", metavar="FILE", default=None,
        help=(
            "append one schema-validated JSONL record per execution "
            "(plan fingerprint, options, epochs, actuals, timeline)"
        ),
    )
    parent.add_argument(
        "--json", action="store_true",
        help=(
            "print a machine-readable JSON document (the run's summary "
            "plus query-log-shaped records) instead of the text report"
        ),
    )
    return parent


def open_session(
    args: argparse.Namespace, *, datagen_seed: int, workers: int, **switches
) -> tuple:
    """Parsed shared flags -> ``(schemes, options, sink, env, build)``.

    ``options`` carries ``--backend`` plus the driver's worker count
    and feature ``switches``; ``sink`` is opened on
    ``--trace``/``--query-log``/``--json`` (the caller must ``finish()``
    it); ``build()`` generates the data and builds the requested schemes
    afresh on every call — the serving replay needs a pristine copy."""
    names = [s.strip() for s in args.schemes.split(",") if s.strip()]
    options = ExecutionOptions(
        workers=max(workers, 1), backend=args.backend, **switches
    )
    sink = ObservabilitySink(args.trace, args.query_log, collect=args.json)
    env = make_environment(args.sf)

    def build() -> Dict[str, PhysicalDatabase]:
        print(
            f"generating TPC-H SF={args.sf} (seed {datagen_seed}) and "
            f"building {','.join(names)} ...",
            file=sys.stderr,
        )
        db = generate(scale_factor=args.sf, seed=datagen_seed)
        return build_schemes(db, env, include=names)

    return names, options, sink, env, build
