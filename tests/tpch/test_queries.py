"""TPC-H query correctness.

The central integration check of the repository: all 22 queries return
identical results under Plain, PK and BDCC.  A handful of queries are
additionally validated against direct numpy computations on the raw data,
and every stage of every query against the SQL reference.
"""

import numpy as np
import pytest

from repro.tpch import queries
from repro.tpch.dates import days
from repro.tpch.runner import QueryRunner, run_query
from repro.workload.differential import reference_mismatch
from repro.workload.reference import evaluate_reference


def _rows(result):
    """Rows sorted by a rounding-stable key (floats to 2 decimals)."""
    return sorted(
        (tuple(round(v, 2) if isinstance(v, float) else v for v in row), row)
        for row in result.rows
    )


def _assert_rows_equal(a, b, context):
    assert len(a) == len(b), context
    for (_, row_a), (_, row_b) in zip(a, b):
        for va, vb in zip(row_a, row_b):
            if isinstance(va, float):
                assert va == pytest.approx(vb, rel=1e-9, abs=1e-6), context
            else:
                assert va == vb, context


@pytest.mark.parametrize("qname", sorted(queries.QUERIES))
def test_schemes_agree(qname, physical_dbs, environment):
    fn = queries.QUERIES[qname]
    reference = None
    for scheme_name, pdb in physical_dbs.items():
        result, metrics = run_query(pdb, fn, disk=environment.disk)
        rows = _rows(result)
        if reference is None:
            reference = rows
        else:
            _assert_rows_equal(rows, reference, f"{qname} under {scheme_name}")
        assert metrics.total_seconds > 0


#: queries that decorrelate into a scalar pre-query plus the main plan
_TWO_STAGES = {"Q11", "Q15", "Q22"}


@pytest.mark.parametrize("qname", sorted(queries.QUERIES))
def test_stages_match_reference(qname, bdcc_db, environment, monkeypatch):
    """Every stage the runner executes (25 over the 22 queries) agrees
    with the reference run on the same logical plan."""
    verdicts = []
    execute = QueryRunner.execute

    def judged(runner, plan):
        result = execute(runner, plan)
        reference = evaluate_reference(runner.database, plan)
        verdicts.append(reference_mismatch(reference, result.relation)[0])
        return result

    monkeypatch.setattr(QueryRunner, "execute", judged)
    run_query(bdcc_db, queries.QUERIES[qname], disk=environment.disk)
    assert verdicts == [None] * (2 if qname in _TWO_STAGES else 1)


class TestKnownAnswers:
    """Spot-checks against straight numpy evaluation of the SQL."""

    def test_q01_matches_direct_computation(self, tpch_db, plain_db, environment):
        result, _ = run_query(plain_db, queries.q01, disk=environment.disk)
        l = tpch_db.table_data("lineitem")
        mask = l["l_shipdate"] <= days("1998-09-02")
        rf, ls = l["l_returnflag"][mask], l["l_linestatus"][mask]
        qty = l["l_quantity"][mask]
        out = {}
        for i in range(len(rf)):
            out.setdefault((rf[i], ls[i]), []).append(qty[i])
        expected = {k: (round(float(np.sum(v)), 3), len(v)) for k, v in out.items()}
        got = {
            (row[0], row[1]): (round(row[2], 3), row[-1])
            for row in result.rows
        }
        assert got == expected

    def test_q06_matches_direct_computation(self, tpch_db, plain_db, environment):
        result, _ = run_query(plain_db, queries.q06, disk=environment.disk)
        l = tpch_db.table_data("lineitem")
        mask = (
            (l["l_shipdate"] >= days("1994-01-01"))
            & (l["l_shipdate"] < days("1995-01-01"))
            & (l["l_discount"] >= 0.05)
            & (l["l_discount"] <= 0.07)
            & (l["l_quantity"] < 24)
        )
        expected = float(np.sum(l["l_extendedprice"][mask] * l["l_discount"][mask]))
        assert result.rows[0][0] == pytest.approx(expected)

    def test_q04_matches_direct_computation(self, tpch_db, plain_db, environment):
        result, _ = run_query(plain_db, queries.q04, disk=environment.disk)
        o = tpch_db.table_data("orders")
        l = tpch_db.table_data("lineitem")
        late = set(l["l_orderkey"][l["l_commitdate"] < l["l_receiptdate"]].tolist())
        mask = (
            (o["o_orderdate"] >= days("1993-07-01"))
            & (o["o_orderdate"] < days("1993-10-01"))
        )
        expected = {}
        for key, prio in zip(o["o_orderkey"][mask], o["o_orderpriority"][mask]):
            if int(key) in late:
                expected[prio] = expected.get(prio, 0) + 1
        got = {row[0]: row[1] for row in result.rows}
        assert got == expected

    def test_q13_matches_direct_computation(self, tpch_db, plain_db, environment):
        result, _ = run_query(plain_db, queries.q13, disk=environment.disk)
        o = tpch_db.table_data("orders")
        keep = np.array(
            [not ("special" in c and c.find("requests", c.find("special")) > 0)
             for c in o["o_comment"]]
        )
        counts = {}
        for ck in o["o_custkey"][keep]:
            counts[int(ck)] = counts.get(int(ck), 0) + 1
        per_customer = [counts.get(int(c), 0) for c in tpch_db.column("customer", "c_custkey")]
        expected = {}
        for c in per_customer:
            expected[c] = expected.get(c, 0) + 1
        got = {row[0]: row[1] for row in result.rows}
        assert got == expected

    def test_q15_revenue_is_max(self, tpch_db, plain_db, environment):
        result, _ = run_query(plain_db, queries.q15, disk=environment.disk)
        l = tpch_db.table_data("lineitem")
        mask = (l["l_shipdate"] >= days("1996-01-01")) & (l["l_shipdate"] < days("1996-04-01"))
        rev = l["l_extendedprice"][mask] * (1 - l["l_discount"][mask])
        totals = np.zeros(tpch_db.num_rows("supplier") + 1)
        np.add.at(totals, l["l_suppkey"][mask], rev)
        assert result.rows, "Q15 returned no rows"
        assert result.rows[0][-1] == pytest.approx(totals.max())


class TestQueryShapes:
    def test_q03_limit(self, plain_db, environment):
        result, _ = run_query(plain_db, queries.q03, disk=environment.disk)
        assert result.relation.num_rows <= 10
        assert result.relation.column_names[:1] == ["l_orderkey"]

    def test_q16_counts_positive(self, plain_db, environment):
        result, _ = run_query(plain_db, queries.q16, disk=environment.disk)
        assert result.relation.num_rows > 0
        assert np.all(result.relation.column("supplier_cnt") > 0)

    def test_q22_country_codes(self, plain_db, environment):
        result, _ = run_query(plain_db, queries.q22, disk=environment.disk)
        codes = set(result.relation.column("cntrycode").tolist())
        assert codes <= {"13", "31", "23", "29", "30", "18", "17"}
