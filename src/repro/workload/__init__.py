"""Randomized workload: generated plans + cross-scheme differential oracle.

The fifth pillar of the architecture.  The 22 TPC-H queries prove BDCC's
equivalence claim — same results, different cost, under Plain/PK/BDCC
and every ablation — on 22 fixed anecdotes; this package turns the claim
into a *property* checked over an unbounded query space:

* :mod:`repro.workload.generator` — a seeded, deterministic logical-plan
  generator over any :class:`~repro.catalog.Schema`: scans with random
  predicate shapes on FK / dimension / plain columns, FK joins in both
  directions (N:1 and 1:N, inner/left/semi/anti, optional residuals),
  group-bys over key subsets, sort/limit — biased toward the shapes that
  exercise the merge, sandwich and hash paths;
* :mod:`repro.workload.reference` — the SQL reference: each logical
  plan printed as SQL and run by stdlib ``sqlite3`` over a copy of the
  base tables, independent of schemes, lowering, the physical operators
  and the expression evaluator;
* :mod:`repro.workload.differential` — one verdict, one sweep.  The two
  verdict functions every driver judges results with
  (``reference_mismatch`` against the SQL reference, ``twin_mismatch``
  between two engine results — bit-for-bit, or as multisets when the
  plan's contract lets a gather reorder), and the one sweep built on
  them: every generated plan is executed under Plain/PK/BDCC x the
  ablation grid — with ``update_rounds``, between seeded insert/delete
  commits — and any divergence fails loudly with the seed, the logical
  plan and the per-scheme physical plans annotated with their
  per-operator actuals.  The serving replay
  (:mod:`repro.serving.differential`) reports through the same
  ``Divergence``.

Command line
------------

``python -m repro.workload --seed S --queries N`` generates and checks
``N`` plans (options: ``--sf`` scale factor, ``--datagen-seed``,
``--schemes plain,pk,bdcc``, ``--variants default|all``, ``--updates
ROUNDS``, ``--streams N``, ``--fail-fast``, ``--verbose``; every mode
hands its executions to the one observability sink, so ``--trace``,
``--query-log`` and ``--json`` work in all of them).
Exit status is non-zero when any divergence was found;
each divergence report carries everything needed to reproduce it:
the ``--seed``, the query index, and the data flags (``--sf``,
``--datagen-seed``) the plan's sampled literals depend on.

Example::

    python -m repro.workload --seed 0 --queries 200

runs the acceptance sweep: 200 random plans x 3 schemes x the ablation
grid, all compared against the scheme-independent reference.
"""

from .differential import WorkloadReport, ablation_variants, run_differential
from .generator import GeneratedQuery, PlanGenerator
from .reference import evaluate_reference

__all__ = [
    "GeneratedQuery",
    "PlanGenerator",
    "WorkloadReport",
    "ablation_variants",
    "evaluate_reference",
    "run_differential",
]
