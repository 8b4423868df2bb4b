"""TPC-H generator: cardinalities, domains, referential integrity."""

import numpy as np
import pytest

from repro.tpch import text
from repro.tpch.datagen import clerk_domain, generate, table_cardinalities
from repro.tpch.dates import CURRENT_DATE, ORDER_DATE_MAX, ORDER_DATE_MIN


@pytest.fixture(scope="module")
def db():
    return generate(scale_factor=0.01, seed=99)


class TestCardinalities:
    def test_fixed_tables(self, db):
        assert db.num_rows("region") == 5
        assert db.num_rows("nation") == 25

    def test_scaled_tables(self, db):
        card = table_cardinalities(0.01)
        for table in ("supplier", "customer", "part", "partsupp", "orders"):
            assert db.num_rows(table) == card[table]

    def test_lineitem_avg_four_per_order(self, db):
        ratio = db.num_rows("lineitem") / db.num_rows("orders")
        assert 3.5 < ratio < 4.5

    def test_determinism(self):
        a = generate(0.002, seed=7)
        b = generate(0.002, seed=7)
        assert np.array_equal(a.column("lineitem", "l_extendedprice"),
                              b.column("lineitem", "l_extendedprice"))

    def test_rejects_bad_sf(self):
        with pytest.raises(ValueError):
            generate(0.0)


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("scale_factor", [0.002, 0.006, 0.025, 0.05])
def test_the_clerk_domain_is_every_clerk_the_load_draws(scale_factor, seed):
    # RF1 draws from clerk_domain instead of np.unique over the live
    # orders; equal arrays keep its draws bit-identical
    clerks = np.unique(generate(scale_factor, seed=seed).column("orders", "o_clerk"))
    domain = clerk_domain(scale_factor)
    assert domain.dtype == clerks.dtype
    assert np.array_equal(domain, clerks)


class TestReferentialIntegrity:
    @pytest.mark.parametrize("fk", [
        "FK_N_R", "FK_S_N", "FK_C_N", "FK_PS_P", "FK_PS_S",
        "FK_O_C", "FK_L_O", "FK_L_P", "FK_L_S", "FK_L_PS",
    ])
    def test_no_dangling_references(self, db, fk):
        rows = db.follow_foreign_key(fk)
        assert np.all(rows >= 0)

    def test_lineitem_suppkey_consistent_with_partsupp(self, db):
        """(l_partkey, l_suppkey) must exist in PARTSUPP (the dbgen
        supplier-spread formula guarantees it)."""
        rows = db.follow_foreign_key("FK_L_PS")
        assert np.all(rows >= 0)


class TestDomains:
    def test_nations_and_regions_official(self, db):
        assert list(db.column("region", "r_name")) == text.REGIONS
        assert list(db.column("nation", "n_name")) == [n for n, _ in text.NATIONS]
        assert list(db.column("nation", "n_regionkey")) == [r for _, r in text.NATIONS]

    def test_order_dates_in_range(self, db):
        dates = db.column("orders", "o_orderdate")
        assert dates.min() >= ORDER_DATE_MIN and dates.max() <= ORDER_DATE_MAX

    def test_ship_dates_follow_order_dates(self, db):
        l = db.table_data("lineitem")
        o_rows = db.follow_foreign_key("FK_L_O")
        o_dates = db.column("orders", "o_orderdate")[o_rows]
        delta = l["l_shipdate"] - o_dates
        assert delta.min() >= 1 and delta.max() <= 121
        assert np.all(l["l_receiptdate"] > l["l_shipdate"])

    def test_returnflag_semantics(self, db):
        l = db.table_data("lineitem")
        received = l["l_receiptdate"] <= CURRENT_DATE
        assert set(np.unique(l["l_returnflag"][received])) <= {"A", "R"}
        assert set(np.unique(l["l_returnflag"][~received])) == {"N"}

    def test_linestatus(self, db):
        l = db.table_data("lineitem")
        assert np.all((l["l_shipdate"] > CURRENT_DATE) == (l["l_linestatus"] == "O"))

    def test_discount_tax_ranges(self, db):
        l = db.table_data("lineitem")
        assert 0.0 <= l["l_discount"].min() and l["l_discount"].max() <= 0.10
        assert 0.0 <= l["l_tax"].min() and l["l_tax"].max() <= 0.08

    def test_extendedprice_formula(self, db):
        l = db.table_data("lineitem")
        retail = db.column("part", "p_retailprice")[l["l_partkey"] - 1]
        assert np.allclose(l["l_extendedprice"], np.round(l["l_quantity"] * retail, 2))

    def test_totalprice_matches_lineitems(self, db):
        l = db.table_data("lineitem")
        charge = l["l_extendedprice"] * (1 + l["l_tax"]) * (1 - l["l_discount"])
        o_rows = db.follow_foreign_key("FK_L_O")
        totals = np.zeros(db.num_rows("orders"))
        np.add.at(totals, o_rows, charge)
        assert np.allclose(db.column("orders", "o_totalprice"), np.round(totals, 2))

    def test_third_of_customers_orderless(self, db):
        custs = db.column("orders", "o_custkey")
        assert not np.any(custs % 3 == 0)

    def test_segments_and_modes(self, db):
        assert set(np.unique(db.column("customer", "c_mktsegment"))) <= set(text.SEGMENTS)
        assert set(np.unique(db.column("lineitem", "l_shipmode"))) <= set(text.MODES)
        assert set(np.unique(db.column("part", "p_container"))) <= set(text.CONTAINERS)
        assert set(np.unique(db.column("part", "p_type"))) <= set(text.TYPES)

    def test_brand_derived_from_mfgr(self, db):
        mfgr = db.column("part", "p_mfgr")
        brand = db.column("part", "p_brand")
        for m, b in zip(mfgr[:50], brand[:50]):
            assert b[6] == m[-1]  # Brand#MN shares M with Manufacturer#M

    def test_comment_markers_present(self, db):
        o_comments = db.column("orders", "o_comment")
        has_marker = ["special" in c and "requests" in c for c in o_comments[:3000]]
        assert 0 < sum(has_marker) < 0.1 * len(has_marker)

    def test_phone_prefix_from_nation(self, db):
        phones = db.column("customer", "c_phone")
        nations = db.column("customer", "c_nationkey")
        for p, n in zip(phones[:100], nations[:100]):
            assert int(p[:2]) == n + 10
