"""TPC-H generator: cardinalities, domains, referential integrity, and
the generated bytes themselves (CRC pins and the word-chain oracle)."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tpch import text
from repro.tpch.datagen import _comments, clerk_domain, generate, table_cardinalities
from repro.tpch.dates import CURRENT_DATE, ORDER_DATE_MAX, ORDER_DATE_MIN
from repro.tpch.refresh import generate_rf1, refresh_pair_size, rf2_order_keys


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


#: ``dtype:CRC32`` of every column of ``generate(0.002, seed)``, computed
#: with the per-word ``np.char.add`` chains the word-chain builder replaced.
_COLUMN_CRCS = {
    7: {
        "region.r_regionkey": "<i4:4c6b0437",
        "region.r_name": "<U11:0d6f78ab",
        "region.r_comment": "<U116:0714bf71",
        "nation.n_nationkey": "<i4:7731acf2",
        "nation.n_name": "<U14:de5637fe",
        "nation.n_regionkey": "<i4:317df7f0",
        "nation.n_comment": "<U116:41cb14d8",
        "supplier.s_suppkey": "<i4:b6cafd02",
        "supplier.s_name": "<U18:946be5be",
        "supplier.s_address": "<U17:73bdd41d",
        "supplier.s_nationkey": "<i4:3e4bb78e",
        "supplier.s_phone": "<U15:4bbf7352",
        "supplier.s_acctbal": "<f8:b75cf75b",
        "supplier.s_comment": "<U101:f530e6fa",
        "customer.c_custkey": "<i4:729d2edd",
        "customer.c_name": "<U18:4689f264",
        "customer.c_address": "<U17:f7a66e31",
        "customer.c_nationkey": "<i4:0b67beb5",
        "customer.c_phone": "<U15:a68b75a1",
        "customer.c_acctbal": "<f8:962c995c",
        "customer.c_mktsegment": "<U10:f6d29bad",
        "customer.c_comment": "<U117:33a8e7df",
        "part.p_partkey": "<i4:f3f3cc4f",
        "part.p_name": "<U55:73148dce",
        "part.p_mfgr": "<U14:dde58362",
        "part.p_brand": "<U8:b6f8bf64",
        "part.p_type": "<U25:f8b820fd",
        "part.p_size": "<i4:e0e097f9",
        "part.p_container": "<U10:96564548",
        "part.p_retailprice": "<f8:7b679f14",
        "part.p_comment": "<U23:275bf94a",
        "partsupp.ps_partkey": "<i4:3bc364aa",
        "partsupp.ps_suppkey": "<i4:6c8d66e5",
        "partsupp.ps_availqty": "<i4:8ac88cd1",
        "partsupp.ps_supplycost": "<f8:15e7b1db",
        "partsupp.ps_comment": "<U199:de462e83",
        "lineitem.l_orderkey": "<i8:e5c26738",
        "lineitem.l_partkey": "<i4:8e76556d",
        "lineitem.l_suppkey": "<i4:3d29347a",
        "lineitem.l_linenumber": "<i4:604b2292",
        "lineitem.l_quantity": "<f8:dfb5ad9c",
        "lineitem.l_extendedprice": "<f8:492e7767",
        "lineitem.l_discount": "<f8:9cb8e895",
        "lineitem.l_tax": "<f8:0a20ad3f",
        "lineitem.l_returnflag": "<U1:33867ae1",
        "lineitem.l_linestatus": "<U1:f88f20a7",
        "lineitem.l_shipdate": "<i4:3df05a08",
        "lineitem.l_commitdate": "<i4:9435b4c7",
        "lineitem.l_receiptdate": "<i4:fee7fe53",
        "lineitem.l_shipinstruct": "<U17:e198007b",
        "lineitem.l_shipmode": "<U7:932df26f",
        "lineitem.l_comment": "<U44:0a072977",
        "orders.o_orderkey": "<i8:588dc1a1",
        "orders.o_custkey": "<i4:275aa988",
        "orders.o_orderstatus": "<U1:94c752de",
        "orders.o_totalprice": "<f8:89e60d45",
        "orders.o_orderdate": "<i4:d8757260",
        "orders.o_orderpriority": "<U15:fa4a16f4",
        "orders.o_clerk": "<U15:02bafe4f",
        "orders.o_shippriority": "<i4:6aa7929e",
        "orders.o_comment": "<U79:2b2b51e5",
    },
    11: {
        "region.r_regionkey": "<i4:4c6b0437",
        "region.r_name": "<U11:0d6f78ab",
        "region.r_comment": "<U116:9fba16a7",
        "nation.n_nationkey": "<i4:7731acf2",
        "nation.n_name": "<U14:de5637fe",
        "nation.n_regionkey": "<i4:317df7f0",
        "nation.n_comment": "<U116:615c156f",
        "supplier.s_suppkey": "<i4:b6cafd02",
        "supplier.s_name": "<U18:946be5be",
        "supplier.s_address": "<U17:a985f9b0",
        "supplier.s_nationkey": "<i4:f7a34b30",
        "supplier.s_phone": "<U15:07846080",
        "supplier.s_acctbal": "<f8:a6986224",
        "supplier.s_comment": "<U101:94358d75",
        "customer.c_custkey": "<i4:729d2edd",
        "customer.c_name": "<U18:4689f264",
        "customer.c_address": "<U17:cb029681",
        "customer.c_nationkey": "<i4:c29c1a9b",
        "customer.c_phone": "<U15:7e102172",
        "customer.c_acctbal": "<f8:abd0448e",
        "customer.c_mktsegment": "<U10:63b7eddf",
        "customer.c_comment": "<U117:3d9e90a5",
        "part.p_partkey": "<i4:f3f3cc4f",
        "part.p_name": "<U55:b35f136c",
        "part.p_mfgr": "<U14:4d716d85",
        "part.p_brand": "<U8:719d47ef",
        "part.p_type": "<U25:f3913e57",
        "part.p_size": "<i4:fcf8b987",
        "part.p_container": "<U10:01504507",
        "part.p_retailprice": "<f8:7b679f14",
        "part.p_comment": "<U23:16f0fde1",
        "partsupp.ps_partkey": "<i4:3bc364aa",
        "partsupp.ps_suppkey": "<i4:6c8d66e5",
        "partsupp.ps_availqty": "<i4:f94394b4",
        "partsupp.ps_supplycost": "<f8:0bc3d7a5",
        "partsupp.ps_comment": "<U199:709a8ffd",
        "lineitem.l_orderkey": "<i8:30fcd011",
        "lineitem.l_partkey": "<i4:57fdec8a",
        "lineitem.l_suppkey": "<i4:498f951c",
        "lineitem.l_linenumber": "<i4:614f4f73",
        "lineitem.l_quantity": "<f8:d61c27ba",
        "lineitem.l_extendedprice": "<f8:d9bb7aac",
        "lineitem.l_discount": "<f8:e60bc3e7",
        "lineitem.l_tax": "<f8:0d75ccc6",
        "lineitem.l_returnflag": "<U1:bc3610ce",
        "lineitem.l_linestatus": "<U1:9cad54de",
        "lineitem.l_shipdate": "<i4:1a7fd710",
        "lineitem.l_commitdate": "<i4:ce63d845",
        "lineitem.l_receiptdate": "<i4:4e268062",
        "lineitem.l_shipinstruct": "<U17:8c132d9d",
        "lineitem.l_shipmode": "<U7:682b2478",
        "lineitem.l_comment": "<U44:5d6efb54",
        "orders.o_orderkey": "<i8:588dc1a1",
        "orders.o_custkey": "<i4:671279b7",
        "orders.o_orderstatus": "<U1:656d483c",
        "orders.o_totalprice": "<f8:be00caa2",
        "orders.o_orderdate": "<i4:c9f7c52e",
        "orders.o_orderpriority": "<U15:d37c59df",
        "orders.o_clerk": "<U15:573170cd",
        "orders.o_shippriority": "<i4:6aa7929e",
        "orders.o_comment": "<U79:6bd7d22b",
    },
}

#: The text columns of the first two RF1 batches a seeded refresh stream
#: draws over that load (``generate_rf1``, then RF2's draw, then RF1 again).
_RF1_TEXT_CRCS = {
    7: [
        {
            "orders.o_orderstatus": "<U1:7bfef097",
            "orders.o_orderpriority": "<U15:3b37e3ca",
            "orders.o_clerk": "<U15:1c94c4c7",
            "orders.o_comment": "<U79:f7802d87",
            "lineitem.l_returnflag": "<U1:93b67bc9",
            "lineitem.l_linestatus": "<U1:dc433645",
            "lineitem.l_shipinstruct": "<U17:adb5e7a2",
            "lineitem.l_shipmode": "<U7:14545f46",
            "lineitem.l_comment": "<U44:8270545f",
        },
        {
            "orders.o_orderstatus": "<U1:e5761431",
            "orders.o_orderpriority": "<U15:4a451dc0",
            "orders.o_clerk": "<U15:f1749eb0",
            "orders.o_comment": "<U79:073c410b",
            "lineitem.l_returnflag": "<U1:6d52228b",
            "lineitem.l_linestatus": "<U1:5201d2a4",
            "lineitem.l_shipinstruct": "<U17:d5157ddb",
            "lineitem.l_shipmode": "<U7:56b1710a",
            "lineitem.l_comment": "<U44:4713816a",
        },
    ],
    11: [
        {
            "orders.o_orderstatus": "<U1:f77be54c",
            "orders.o_orderpriority": "<U15:1cc597e8",
            "orders.o_clerk": "<U15:5c58c13a",
            "orders.o_comment": "<U79:812c6f32",
            "lineitem.l_returnflag": "<U1:7d5b14a3",
            "lineitem.l_linestatus": "<U1:ee4c06f5",
            "lineitem.l_shipinstruct": "<U17:2c5379b8",
            "lineitem.l_shipmode": "<U7:2970e20b",
            "lineitem.l_comment": "<U44:cb185002",
        },
        {
            "orders.o_orderstatus": "<U1:45aa366d",
            "orders.o_orderpriority": "<U15:b413cfdb",
            "orders.o_clerk": "<U15:3b63472a",
            "orders.o_comment": "<U79:802df86a",
            "lineitem.l_returnflag": "<U1:575e58db",
            "lineitem.l_linestatus": "<U1:f3cdd438",
            "lineitem.l_shipinstruct": "<U17:0c4c3b7e",
            "lineitem.l_shipmode": "<U7:aaf75710",
            "lineitem.l_comment": "<U44:fb0d32d1",
        },
    ],
}


def _crc(values: np.ndarray) -> str:
    values = np.ascontiguousarray(values)
    return f"{values.dtype.str}:{zlib.crc32(values.tobytes()):08x}"


@pytest.mark.parametrize("seed", [7, 11])
def test_every_generated_column_is_pinned(seed):
    db = generate(0.002, seed=seed)
    got = {
        f"{table}.{name}": _crc(values)
        for table in db.loaded_tables
        for name, values in db.table_data(table).items()
    }
    assert got == _COLUMN_CRCS[seed]


@pytest.mark.parametrize("seed", [7, 11])
def test_rf1_text_is_pinned(seed):
    # RF1 continues from the generator the way a refresh stream draws:
    # orders_with_lineitems through generate_rf1, RF2's keys in between
    db = generate(0.002, seed=seed)
    rng = np.random.default_rng(seed)
    batch = refresh_pair_size(db.scale_factor)
    got = []
    for _ in range(2):
        orders, lineitem = generate_rf1(db, rng, batch)
        got.append({
            f"{table}.{name}": _crc(values)
            for table, columns in (("orders", orders), ("lineitem", lineitem))
            for name, values in columns.items()
            if values.dtype.kind == "U"
        })
        rf2_order_keys(db, rng, batch)
    assert got == _RF1_TEXT_CRCS[seed]


def _chained_comments(rng, n, num_words, width, inject=None, inject_rate=0.0):
    """The comment generator as it was: one ``np.char.add`` per word."""
    vocab = np.array(text.COMMENT_WORDS)
    out = rng.choice(vocab, n)
    for _ in range(num_words - 1):
        out = np.char.add(np.char.add(out, " "), rng.choice(vocab, n))
    if inject is not None and inject_rate > 0 and n > 0:
        hit = rng.random(n) < inject_rate
        if hit.any():
            k = int(hit.sum())
            filler = rng.choice(vocab, k)
            marker = np.char.add(
                np.char.add(np.char.add(np.array(inject[0]), " "), filler),
                np.char.add(" ", np.array(inject[1])),
            )
            out = out.astype(f"<U{width}")
            out[hit] = np.char.add(np.char.add(marker, " "), rng.choice(vocab, k))
    return out.astype(f"<U{width}")


@settings(max_examples=120, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 60),
    num_words=st.integers(1, 20),
    slack=st.integers(-200, 12),
    inject_rate=st.sampled_from([0.0, 0.01, 1.0]),
)
def test_word_chains_equal_the_char_add_chain(seed, n, num_words, slack, inject_rate):
    # widths from far below the longest possible chain (every row cut)
    # to above it (none cut)
    longest = num_words * (max(map(len, text.COMMENT_WORDS)) + 1) - 1
    width = max(1, longest + slack)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    args = (n, num_words, width, ("special", "requests"), inject_rate)
    got, expected = _comments(ours, *args), _chained_comments(theirs, *args)
    assert got.dtype == expected.dtype == np.dtype(f"<U{width}")
    assert np.array_equal(got, expected)
    assert ours.integers(0, 2**62) == theirs.integers(0, 2**62)


@pytest.mark.parametrize("num_words, width", [(3000, 40), (4, 2**15)])
def test_word_chains_refuse_what_int16_offsets_cannot_hold(num_words, width):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="32768"):
        _comments(rng, 2, num_words, width)
