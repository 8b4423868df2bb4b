"""TPC-H refresh streams RF1/RF2 over the update subsystem.

The spec's refresh functions, scaled like the data generator: one pair
touches ~0.1% of ORDERS — RF1 inserts new orders with their lineitems
(keys above the current maximum, dates/priorities/parts drawn with the
dbgen-style distributions), RF2 deletes an equal number of existing
orders together with their lineitems (children and parents in one
commit, so referential integrity holds throughout).

Both run through :class:`~repro.updates.UpdateSession` against every
scheme at once: inserts bin into existing BDCC zones, deletes mark
bitmaps, the count tables update incrementally, and compaction kicks in
when the policy says so.  :func:`run_refresh_suite` alternates refresh
pairs with probe queries (Q1/Q6 by default) and reports, per scheme, the
refresh cost next to the query latency — the paper's maintainability
story quantified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..execution.expressions import Col, InList
from ..schemes.base import PhysicalDatabase
from ..storage.database import Database, lookup_rows
from ..updates import CompactionPolicy, UpdateSession
from .datagen import clerk_domain, orders_with_lineitems
from .environment import Environment
from .queries import QUERIES
from .runner import run_query

__all__ = [
    "refresh_pair_size", "generate_rf1", "rf2_order_keys", "stage_rf1",
    "stage_rf2", "RefreshResult", "run_refresh_suite",
]


def refresh_pair_size(scale_factor: float) -> int:
    """Orders touched per refresh function (SF * 1500, floored for the
    tiny scale factors the simulator runs at)."""
    return max(int(1500 * scale_factor), 8)


def generate_rf1(
    db: Database, rng: np.random.Generator, num_orders: int
) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
    """New ORDERS plus their LINEITEMs, dbgen-style distributions drawn
    against the *current* database content."""
    orders = db.table_data("orders")
    customers = db.table_data("customer")["c_custkey"]
    partsupp = db.table_data("partsupp")
    part = db.table_data("part")

    def pick_parts(n_line: int):
        # (partkey, suppkey) pairs come from PARTSUPP so the composite FK holds
        ps_pick = rng.integers(0, len(partsupp["ps_partkey"]), n_line)
        l_part = partsupp["ps_partkey"][ps_pick]
        part_row = lookup_rows([part["p_partkey"]], [l_part])
        return l_part, partsupp["ps_suppkey"][ps_pick], part["p_retailprice"][part_row]

    clerks = clerk_domain(db.scale_factor)
    return orders_with_lineitems(
        rng,
        orders["o_orderkey"].max() + 1 + np.arange(num_orders, dtype=np.int64),
        customers[customers % 3 != 0],
        pick_parts,
        lambda n: rng.choice(clerks, n),
    )


def rf2_order_keys(db: Database, rng: np.random.Generator, num_orders: int) -> np.ndarray:
    """Existing order keys to delete (sampled without replacement)."""
    keys = db.table_data("orders")["o_orderkey"]
    num = min(num_orders, len(keys))
    return rng.choice(keys, num, replace=False)


def stage_rf1(session: UpdateSession, db: Database, rng, num_orders: int) -> None:
    """Stage one RF1 (new orders, then their lineitems) into ``session``;
    the caller commits."""
    orders_rows, lineitem_rows = generate_rf1(db, rng, num_orders)
    session.insert_rows("orders", orders_rows)
    session.insert_rows("lineitem", lineitem_rows)


def stage_rf2(session: UpdateSession, db: Database, rng, num_orders: int) -> int:
    """Stage one RF2 (lineitems first, then their orders — children and
    parents in one commit) into ``session``; returns how many orders
    were doomed.  The caller commits."""
    doomed = rf2_order_keys(db, rng, num_orders).tolist()
    session.delete_where("lineitem", InList(Col("l_orderkey"), doomed))
    session.delete_where("orders", InList(Col("o_orderkey"), doomed))
    return len(doomed)


# -------------------------------------------------------------- harness
@dataclass
class RefreshMeasurement:
    """Per-scheme cost of one refresh pair and its probe queries."""

    scheme: str
    pair: int
    rf1_seconds: float = 0.0
    rf2_seconds: float = 0.0
    query_seconds: Dict[str, float] = field(default_factory=dict)
    delta_rows: int = 0
    compactions: int = 0
    epoch: int = 0


@dataclass
class RefreshResult:
    scale_factor: float
    pairs: int
    rows_inserted: int = 0
    rows_deleted: int = 0
    measurements: List[RefreshMeasurement] = field(default_factory=list)

    def for_scheme(self, scheme: str) -> List[RefreshMeasurement]:
        return [m for m in self.measurements if m.scheme == scheme]

    def render(self) -> str:
        schemes = sorted({m.scheme for m in self.measurements})
        queries = sorted(
            {q for m in self.measurements for q in m.query_seconds}
        )
        lines = [
            f"TPC-H refresh streams, SF={self.scale_factor}: {self.pairs} RF1/RF2 "
            f"pairs (+{self.rows_inserted} rows, -{self.rows_deleted} rows)",
            f"{'scheme':<8}{'pair':>5}{'RF1 ms':>10}{'RF2 ms':>10}"
            + "".join(f"{q + ' ms':>10}" for q in queries)
            + f"{'delta rows':>12}{'compactions':>13}",
        ]
        for scheme in schemes:
            for m in self.for_scheme(scheme):
                lines.append(
                    f"{scheme:<8}{m.pair:>5}"
                    f"{m.rf1_seconds * 1e3:>10.3f}{m.rf2_seconds * 1e3:>10.3f}"
                    + "".join(
                        f"{m.query_seconds.get(q, 0.0) * 1e3:>10.3f}" for q in queries
                    )
                    + f"{m.delta_rows:>12}{m.compactions:>13}"
                )
        for scheme in schemes:
            ms = self.for_scheme(scheme)
            refresh_total = sum(m.rf1_seconds + m.rf2_seconds for m in ms)
            query_total = sum(sum(m.query_seconds.values()) for m in ms)
            num_queries = sum(len(m.query_seconds) for m in ms)
            lines.append(
                f"{scheme}: {2 * len(ms) / refresh_total:,.1f} refreshes/s vs "
                f"{num_queries / query_total:,.1f} queries/s simulated "
                f"(refresh total {refresh_total * 1e3:.3f} ms, "
                f"query total {query_total * 1e3:.3f} ms)"
            )
        return "\n".join(lines)


def run_refresh_suite(
    physical_dbs: Dict[str, PhysicalDatabase],
    environment: Environment,
    pairs: int = 2,
    seed: int = 7,
    query_names: Sequence[str] = ("Q01", "Q06"),
    policy: Optional[CompactionPolicy] = None,
) -> RefreshResult:
    """Alternate RF1/RF2 pairs with probe queries under every scheme.

    All schemes share one logical database, so a single session per
    refresh keeps them consistent; per-scheme costs come from the
    commit's scheme metrics.
    """
    db = next(iter(physical_dbs.values())).database
    rng = np.random.default_rng(seed)
    sf = db.scale_factor or environment.scale_factor
    batch = refresh_pair_size(sf)
    result = RefreshResult(scale_factor=sf, pairs=pairs)

    for pair in range(pairs):
        measurements = {
            scheme: RefreshMeasurement(scheme=scheme, pair=pair + 1)
            for scheme in physical_dbs
        }
        # ---- RF1: insert orders + lineitems -----------------------------
        session = UpdateSession(
            *physical_dbs.values(), policy=policy,
            disk=environment.disk, costs=environment.cost_model,
        )
        stage_rf1(session, db, rng, batch)
        rf1 = session.commit()
        result.rows_inserted += sum(rf1.inserted.values())
        # ---- RF2: delete orders + their lineitems -----------------------
        stage_rf2(session, db, rng, batch)
        rf2 = session.commit()
        result.rows_deleted += sum(rf2.deleted.values())

        for scheme, m in measurements.items():
            m.rf1_seconds = rf1.seconds_for(scheme)
            m.rf2_seconds = rf2.seconds_for(scheme)
            m.compactions = sum(
                1 for c in rf1.changes + rf2.changes
                if c.scheme == scheme and c.compacted
            )
            pdb = physical_dbs[scheme]
            m.delta_rows = sum(
                stored.delta.live_delta_rows
                for stored in pdb.stored.values()
                if stored.delta is not None
            )
            m.epoch = pdb.epoch
            # ---- probe queries over the refreshed state -----------------
            for qname in query_names:
                _, metrics = run_query(
                    pdb, QUERIES[qname],
                    disk=environment.disk, costs=environment.cost_model,
                )
                m.query_seconds[qname] = metrics.total_seconds
            result.measurements.append(m)
    return result
