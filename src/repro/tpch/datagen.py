"""dbgen-style TPC-H data generator (scaled, vectorised, deterministic).

Cardinalities and value distributions follow the TPC-H specification:

=========  =======================  ==========================
table      rows                     notes
=========  =======================  ==========================
region     5                        fixed
nation     25                       fixed, official region map
supplier   SF * 10,000              ~0.05% "Customer Complaints"
customer   SF * 150,000             1/3 of keys place no orders
part       SF * 200,000             names = 5 colour words
partsupp   4 per part               official suppkey formula
orders     SF * 1,500,000           dates in [1992-01-01, 1998-08-02]
lineitem   1..7 per order (avg 4)   ship/commit/receipt offsets
=========  =======================  ==========================

Simplifications: order keys are contiguous
(dbgen leaves gaps — immaterial to every query), text columns are drawn
from dbgen's vocabularies with a compact grammar, and the "special
requests" / "Customer Complaints" comment patterns are injected at
dbgen-like rates so Q13/Q16 remain selective.

Word-chain text (every comment and ``p_name``) is built by
:func:`_word_chains` in one byte buffer: each word position's
vocabulary indices are drawn with one ``rng.choice``, the words' ASCII
bytes and trailing spaces gathered from a padded word table, the
padding and everything past the column width masked away, and the
remaining stream laid into a ``(rows, width)`` byte buffer that is
widened once to the ``<U{width}`` column — no python loop per row and
no per-word intermediate string array.

The generator's call order is a contract: every table draws from one
``np.random.Generator`` in the order of this module, and RF1
(:func:`orders_with_lineitems` through ``tpch/refresh.py``) continues
from the same kind of stream.  The generated bytes, and so the
``benchmarks/e2e`` data digests and served-round goldens and the
CRC pins in ``tests/tpch/test_datagen.py``, depend on every draw's
position; a change that adds, drops or reorders a draw moves them all.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..storage.database import Database
from . import text
from .dates import CURRENT_DATE, ORDER_DATE_MAX, ORDER_DATE_MIN
from .schema import add_paper_hints, build_schema

__all__ = ["clerk_domain", "generate", "orders_with_lineitems", "table_cardinalities"]


def table_cardinalities(scale_factor: float) -> Dict[str, int]:
    """Row counts at a given scale factor (orders/lineitem are exact for
    orders and expected for lineitem)."""
    return {
        "region": 5,
        "nation": 25,
        "supplier": max(10, int(10_000 * scale_factor)),
        "customer": max(30, int(150_000 * scale_factor)),
        "part": max(40, int(200_000 * scale_factor)),
        "partsupp": 4 * max(40, int(200_000 * scale_factor)),
        "orders": max(300, int(1_500_000 * scale_factor)),
    }


def _zfill(values: np.ndarray, width: int) -> np.ndarray:
    return np.char.zfill(values.astype(f"<U{width}"), width)


def _tagged_names(prefix: str, keys: np.ndarray) -> np.ndarray:
    return np.char.add(f"{prefix}#", _zfill(keys, 9))


def clerk_domain(scale_factor: float) -> np.ndarray:
    """Every clerk an order may name, in order: ``Clerk#1`` to
    ``Clerk#max(1, int(1000·SF))``, dbgen's rule for the load and for
    RF1 alike."""
    return _tagged_names("Clerk", np.arange(1, max(1, int(1000 * scale_factor)) + 1))


def _phones(rng: np.random.Generator, nationkeys: np.ndarray) -> np.ndarray:
    n = len(nationkeys)
    country = _zfill(nationkeys + 10, 2)
    part1 = _zfill(rng.integers(100, 1000, n), 3)
    part2 = _zfill(rng.integers(100, 1000, n), 3)
    part3 = _zfill(rng.integers(1000, 10_000, n), 4)
    out = np.char.add(country, "-")
    out = np.char.add(out, part1)
    out = np.char.add(out, "-")
    out = np.char.add(out, part2)
    out = np.char.add(out, "-")
    return np.char.add(out, part3)


def _addresses(rng: np.random.Generator, n: int) -> np.ndarray:
    streets = rng.choice(np.array(text.COMMENT_WORDS[:30]), n)
    numbers = rng.integers(1, 9999, n).astype("<U4")
    return np.char.add(np.char.add(numbers, " "), streets)


def _word_chains(
    rng: np.random.Generator, words: Sequence[str], n: int, num_words: int, width: int
) -> np.ndarray:
    """``n`` chains of ``num_words`` words from the ASCII vocabulary
    ``words``, joined by single spaces and cut at ``width`` characters
    (as ``astype`` cuts), as a ``<U{width}`` array.

    Draws one ``rng.choice`` over the vocabulary's positions per word
    position, first word first — the draws ``rng.choice(np.array(words),
    n)`` makes per position — so the generator's state afterwards does
    not depend on how the text is assembled."""
    longest = max(len(word) for word in words)
    table = np.zeros((len(words), longest + 1), dtype=np.uint8)
    for i, word in enumerate(words):
        table[i, : len(word) + 1] = np.frombuffer(f"{word} ".encode("ascii"), dtype=np.uint8)
    # each word's length with its space, in int16: at SF 0.05's comment
    # shapes the builder's traced peak is 88 MiB this way and 110 MiB with
    # int64 offsets; so no chain or width may reach 32 768 characters
    if num_words * (longest + 1) >= 2**15 or width >= 2**15:
        raise ValueError(
            f"word chains must stay below 32768 characters: {num_words} words "
            f"of up to {longest + 1}, width {width}"
        )
    spans = np.array([len(word) + 1 for word in words], dtype=np.int16)
    picks = np.stack([rng.choice(len(words), n) for _ in range(num_words)], axis=1)
    span = spans[picks]
    start = np.cumsum(span, axis=1, dtype=np.int16) - span  # each word's offset
    # the last word keeps no trailing space; nothing past the width survives
    length = np.minimum(start[:, -1] + span[:, -1] - 1, width)
    keep = np.clip(np.minimum(span, length[:, None] - start), 0, None)
    stream = table[picks][np.arange(longest + 1, dtype=np.int16) < keep[:, :, None]]
    buffer = np.zeros((n, width), dtype=np.uint8)
    buffer[np.arange(width, dtype=np.int16) < length[:, None]] = stream
    return buffer.astype(np.uint32).view(f"<U{width}").reshape(n)


def _comments(
    rng: np.random.Generator,
    n: int,
    num_words: int,
    width: int,
    inject: Optional[tuple] = None,
    inject_rate: float = 0.0,
) -> np.ndarray:
    """Random word-chain comments; optionally splice a two-word marker
    (e.g. ("special", "requests")) into a fraction of rows."""
    out = _word_chains(rng, text.COMMENT_WORDS, n, num_words, width)
    if inject is not None and inject_rate > 0 and n > 0:
        hit = rng.random(n) < inject_rate
        if hit.any():
            vocab = np.array(text.COMMENT_WORDS)
            k = int(hit.sum())
            filler = rng.choice(vocab, k)
            marker = np.char.add(
                np.char.add(np.char.add(np.array(inject[0]), " "), filler),
                np.char.add(" ", np.array(inject[1])),
            )
            out[hit] = np.char.add(np.char.add(marker, " "), rng.choice(vocab, k))
    return out


def _money(rng: np.random.Generator, low: float, high: float, n: int) -> np.ndarray:
    return np.round(rng.uniform(low, high, n), 2)


def generate(
    scale_factor: float = 0.01,
    seed: int = 42,
    with_hints: bool = True,
) -> Database:
    """Generate a complete TPC-H database at the given scale factor."""
    if scale_factor <= 0:
        raise ValueError("scale factor must be positive")
    rng = np.random.default_rng(seed)
    schema = build_schema()
    if with_hints:
        add_paper_hints(schema)
    db = Database(schema, scale_factor=scale_factor)
    card = table_cardinalities(scale_factor)

    # ------------------------------------------------------------- region
    db.add_table_data("region", {
        "r_regionkey": np.arange(5, dtype=np.int32),
        "r_name": np.array(text.REGIONS),
        "r_comment": _comments(rng, 5, 8, 116),
    })

    # ------------------------------------------------------------- nation
    nation_names = np.array([n for n, _ in text.NATIONS])
    nation_regions = np.array([r for _, r in text.NATIONS], dtype=np.int32)
    db.add_table_data("nation", {
        "n_nationkey": np.arange(25, dtype=np.int32),
        "n_name": nation_names,
        "n_regionkey": nation_regions,
        "n_comment": _comments(rng, 25, 9, 116),
    })

    # ----------------------------------------------------------- supplier
    n_supp = card["supplier"]
    s_key = np.arange(1, n_supp + 1, dtype=np.int32)
    s_nation = rng.integers(0, 25, n_supp).astype(np.int32)
    db.add_table_data("supplier", {
        "s_suppkey": s_key,
        "s_name": _tagged_names("Supplier", s_key),
        "s_address": _addresses(rng, n_supp),
        "s_nationkey": s_nation,
        "s_phone": _phones(rng, s_nation),
        "s_acctbal": _money(rng, -999.99, 9999.99, n_supp),
        "s_comment": _comments(
            rng, n_supp, 8, 101, inject=("Customer", "Complaints"), inject_rate=0.0005
        ),
    })

    # ----------------------------------------------------------- customer
    n_cust = card["customer"]
    c_key = np.arange(1, n_cust + 1, dtype=np.int32)
    c_nation = rng.integers(0, 25, n_cust).astype(np.int32)
    db.add_table_data("customer", {
        "c_custkey": c_key,
        "c_name": _tagged_names("Customer", c_key),
        "c_address": _addresses(rng, n_cust),
        "c_nationkey": c_nation,
        "c_phone": _phones(rng, c_nation),
        "c_acctbal": _money(rng, -999.99, 9999.99, n_cust),
        "c_mktsegment": rng.choice(np.array(text.SEGMENTS), n_cust),
        "c_comment": _comments(rng, n_cust, 9, 117),
    })

    # --------------------------------------------------------------- part
    n_part = card["part"]
    p_key = np.arange(1, n_part + 1, dtype=np.int32)
    p_name = _word_chains(rng, text.COLORS, n_part, 5, 55)
    mfgr_num = rng.integers(1, 6, n_part)
    brand_num = mfgr_num * 10 + rng.integers(1, 6, n_part)
    p_retail = np.round(
        (90000.0 + (p_key % 200001) / 10.0 + 100.0 * (p_key % 1000)) / 100.0, 2
    )
    db.add_table_data("part", {
        "p_partkey": p_key,
        "p_name": p_name,
        "p_mfgr": np.char.add("Manufacturer#", mfgr_num.astype("<U1")),
        "p_brand": np.char.add("Brand#", brand_num.astype("<U2")),
        "p_type": rng.choice(np.array(text.TYPES), n_part),
        "p_size": rng.integers(1, 51, n_part).astype(np.int32),
        "p_container": rng.choice(np.array(text.CONTAINERS), n_part),
        "p_retailprice": p_retail,
        "p_comment": _comments(rng, n_part, 2, 23),
    })

    # ----------------------------------------------------------- partsupp
    ps_part = np.repeat(p_key, 4)
    line = np.tile(np.arange(4), n_part)
    # official dbgen supplier spread formula
    ps_supp = (
        (ps_part + line * (n_supp // 4 + (ps_part - 1) // n_supp)) % n_supp + 1
    ).astype(np.int32)
    n_ps = len(ps_part)
    db.add_table_data("partsupp", {
        "ps_partkey": ps_part.astype(np.int32),
        "ps_suppkey": ps_supp,
        "ps_availqty": rng.integers(1, 10_000, n_ps).astype(np.int32),
        "ps_supplycost": _money(rng, 1.0, 1000.0, n_ps),
        "ps_comment": _comments(rng, n_ps, 17, 199),
    })

    # -------------------------------------------------- orders + lineitem
    def pick_parts(n_line: int):
        l_part = rng.integers(1, n_part + 1, n_line).astype(np.int32)
        supp_slot = rng.integers(0, 4, n_line)
        l_supp = (
            (l_part + supp_slot * (n_supp // 4 + (l_part - 1) // n_supp)) % n_supp + 1
        ).astype(np.int32)
        return l_part, l_supp, p_retail[l_part - 1]

    clerks = clerk_domain(scale_factor)
    orders, lineitem = orders_with_lineitems(
        rng,
        np.arange(1, card["orders"] + 1, dtype=np.int64),
        # a third of customers place no orders (custkey % 3 == 0 is skipped)
        c_key[c_key % 3 != 0],
        pick_parts,
        lambda n: clerks[rng.integers(0, len(clerks), n)],
    )
    db.add_table_data("lineitem", lineitem)
    db.add_table_data("orders", orders)
    return db


def orders_with_lineitems(
    rng: np.random.Generator,
    o_key: np.ndarray,
    customers: np.ndarray,
    pick_parts: Callable[[int], Tuple[np.ndarray, np.ndarray, np.ndarray]],
    pick_clerks: Callable[[int], np.ndarray],
) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
    """ORDERS rows for the keys ``o_key`` plus their LINEITEMs, with the
    dbgen-style distributions — the initial load and RF1 both draw here
    (in this RNG order) and differ only in where parts and clerks come
    from: ``pick_parts(n)`` returns ``(partkey, suppkey, retail price)``
    per line, ``pick_clerks(n)`` the clerk per order."""
    n_ord = len(o_key)
    o_cust = rng.choice(customers, n_ord)
    o_date = rng.integers(ORDER_DATE_MIN, ORDER_DATE_MAX + 1, n_ord).astype(np.int32)

    lines_per_order = rng.integers(1, 8, n_ord)
    n_line = int(lines_per_order.sum())
    order_row = np.repeat(np.arange(n_ord), lines_per_order)
    l_linenumber = (
        np.arange(n_line) - np.repeat(np.cumsum(lines_per_order) - lines_per_order, lines_per_order) + 1
    ).astype(np.int32)
    l_part, l_supp, retail = pick_parts(n_line)
    l_qty = rng.integers(1, 51, n_line).astype(np.float64)
    l_extprice = np.round(l_qty * retail, 2)
    l_discount = np.round(rng.integers(0, 11, n_line) / 100.0, 2)
    l_tax = np.round(rng.integers(0, 9, n_line) / 100.0, 2)
    o_date_per_line = o_date[order_row]
    l_ship = (o_date_per_line + rng.integers(1, 122, n_line)).astype(np.int32)
    l_commit = (o_date_per_line + rng.integers(30, 91, n_line)).astype(np.int32)
    l_receipt = (l_ship + rng.integers(1, 31, n_line)).astype(np.int32)
    received = l_receipt <= CURRENT_DATE
    flag_rand = rng.random(n_line) < 0.5
    l_returnflag = np.where(received, np.where(flag_rand, "R", "A"), "N").astype("<U1")
    l_linestatus = np.where(l_ship > CURRENT_DATE, "O", "F").astype("<U1")

    lineitem = {
        "l_orderkey": o_key[order_row],
        "l_partkey": l_part,
        "l_suppkey": l_supp,
        "l_linenumber": l_linenumber,
        "l_quantity": l_qty,
        "l_extendedprice": l_extprice,
        "l_discount": l_discount,
        "l_tax": l_tax,
        "l_returnflag": l_returnflag,
        "l_linestatus": l_linestatus,
        "l_shipdate": l_ship,
        "l_commitdate": l_commit,
        "l_receiptdate": l_receipt,
        "l_shipinstruct": rng.choice(np.array(text.INSTRUCTIONS), n_line),
        "l_shipmode": rng.choice(np.array(text.MODES), n_line),
        "l_comment": _comments(rng, n_line, 4, 44),
    }

    # order aggregates derived from their lineitems (per the spec)
    charge = l_extprice * (1.0 + l_tax) * (1.0 - l_discount)
    o_total = np.round(np.bincount(order_row, weights=charge, minlength=n_ord), 2)
    open_lines = np.bincount(order_row, weights=(l_linestatus == "O"), minlength=n_ord)
    o_status = np.where(
        open_lines == lines_per_order, "O", np.where(open_lines == 0, "F", "P")
    ).astype("<U1")
    orders = {
        "o_orderkey": o_key,
        "o_custkey": o_cust,
        "o_orderstatus": o_status,
        "o_totalprice": o_total,
        "o_orderdate": o_date,
        "o_orderpriority": rng.choice(np.array(text.PRIORITIES), n_ord),
        "o_clerk": pick_clerks(n_ord),
        "o_shippriority": np.zeros(n_ord, dtype=np.int32),
        "o_comment": _comments(
            rng, n_ord, 6, 79, inject=("special", "requests"), inject_rate=0.01
        ),
    }
    return orders, lineitem
