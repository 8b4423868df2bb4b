"""The judge against the row-at-a-time rule it replaced.

``reference_mismatch`` and ``twin_mismatch(exact=False)`` compare
canonical numpy columns.  The oracle here keeps the older rule in
plain python — normalized rows as sorted tuples, NULL first, floats by
``math.isclose`` — and both verdicts and the worst relative error
(float-hex equal) must agree with it over drawn pairs of relations:
ints, float64 and float32, strings, NULL masks, NaN, ±0.0, row
permutations, int against float, and float pairs just inside and just
outside the envelope and the 7-digit ordering granule.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.relation import Relation
from repro.workload.differential import (
    NULL, normalized_rows, reference_mismatch, twin_mismatch,
)
from repro.workload.reference import RefRelation

_SENTINEL = -8.98846567431158e307


def _oracle_rows(columns, valid):
    """The rows as sorted tuples, :data:`NULL` for NULL: floats widened to
    float64, -0.0 as 0.0, NaN as a sentinel, ordered on 7 significant
    digits; ints as ints, strings as strings."""
    cells, keys = [], []
    for name in sorted(columns):
        array = columns[name]
        ok = valid.get(name, np.ones(len(array), bool)).tolist()
        if array.dtype.kind == "f":
            values = np.where(np.isnan(array), _SENTINEL, array.astype(np.float64)) + 0.0
            exponent = np.floor(np.log10(np.where(values == 0, 1.0, np.abs(values))))
            scale = np.power(10.0, 6.0 - exponent)
            key = (np.round(values * scale) / scale).tolist()
            values = values.tolist()
        else:
            values = key = array.tolist()
        cells.append([v if o else NULL for v, o in zip(values, ok)])
        keys.append([(1, k) if o else (0,) for k, o in zip(key, ok)])
    return [row for _, row in sorted(zip(zip(*keys), zip(*cells)), key=lambda p: p[0])]


def _oracle(expected, got):
    """(same multiset?, worst relative float error) by the older rule."""
    a_rows, b_rows = (_oracle_rows(r.columns, r.valid) for r in (expected, got))
    if len(a_rows) != len(b_rows):
        return False, 0.0
    tolerances = []
    for name in sorted(expected.columns):
        sizes = {r.columns[name].dtype.itemsize for r in (expected, got)
                 if r.columns[name].dtype.kind == "f"}
        tolerances.append((1e-4, 1e-4) if 4 in sizes else (2e-6, 2e-6))
    worst = 0.0
    for a_row, b_row in zip(a_rows, b_rows):
        for a, b, (rel, abs_) in zip(a_row, b_row, tolerances):
            if a is NULL or b is NULL:
                if a is not b:
                    return False, 0.0
            elif isinstance(a, float) or isinstance(b, float):
                if not math.isclose(a, b, rel_tol=rel, abs_tol=abs_):
                    return False, 0.0
                if max(abs(a), abs(b)) > 0:
                    worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
            elif a != b:
                return False, 0.0
    return True, worst


#: finite normal values, a rounding-granule boundary (1.0000005) and
#: its neighbours among them
_FLOATS = [0.0, -0.0, np.nan, 1.0, 1.0000005, 1.00000049, 2.5, -3.75, 123.456, 1e8]
#: relative nudges: summation noise, either side of the float64
#: envelope (2e-6) and of the float32 one (1e-4), and half a granule
_NUDGES = [0.0, 1e-11, -1e-11, 1.9e-6, -2.1e-6, 5e-7, -5e-7, 9e-5, -1.1e-4]
_KINDS = ("int", "float64", "float32", "str", "int-vs-float")


@st.composite
def _pairs(draw):
    rows = draw(st.integers(0, 5))
    column = lambda elements: draw(st.lists(elements, min_size=rows, max_size=rows))  # noqa: E731
    expected, got, expected_valid, got_valid = {}, {}, {}, {}
    for i, kind in enumerate(draw(st.lists(st.sampled_from(_KINDS), min_size=1, max_size=3))):
        name = f"c{i}"
        if kind == "str":
            expected[name] = np.array(column(st.sampled_from(["", "a", "ab", "b"])), "<U2")
            got[name] = expected[name].copy()
        elif kind in ("int", "int-vs-float"):
            expected[name] = np.array(column(st.integers(-2, 2)), np.int64)
            got[name] = expected[name].astype(np.float64 if kind != "int" else np.int64)
        else:
            dtype = np.float32 if kind == "float32" else np.float64
            expected[name] = np.array(column(st.sampled_from(_FLOATS)), dtype)
            got[name] = expected[name].astype(np.float64)
        if got[name].dtype.kind == "f":
            got[name] = got[name] * (1 + np.array(column(st.sampled_from(_NUDGES))))
            got[name] = got[name] + np.array(column(st.sampled_from([0.0, 1.9e-6, -2.1e-6])))
        if rows and draw(st.booleans()):
            expected_valid[name] = np.array(column(st.booleans()))
            got_valid[name] = expected_valid[name].copy()
            if draw(st.booleans()):
                got_valid[name][draw(st.integers(0, rows - 1))] ^= True
        if rows and draw(st.booleans()):   # one value moved by 1 (within 2e-6 only at 1e8)
            at = draw(st.integers(0, rows - 1))
            got[name][at] = "z" if kind == "str" else got[name][at] + 1
    order = np.array(draw(st.permutations(range(rows))), dtype=np.int64)
    got = {name: values[order] for name, values in got.items()}
    got_valid = {name: mask[order] for name, mask in got_valid.items()}
    return (expected, expected_valid), (got, got_valid)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_pairs())
def test_the_judge_gives_the_older_rules_verdict(pair):
    (expected, expected_valid), (got, got_valid) = pair
    reference = RefRelation(expected, expected_valid)
    relation = Relation(got, got_valid)
    same, worst = _oracle(reference, relation)
    # the same order and canonical values (repr tells -0.0 from 0.0)
    assert repr(normalized_rows(expected, list(expected), expected_valid)) == repr(
        _oracle_rows(expected, expected_valid)
    )

    detail, judged_worst = reference_mismatch(reference, relation)
    assert (detail is None) == same, detail
    assert float(judged_worst).hex() == float(worst).hex()

    kinds_agree = all(expected[n].dtype.kind == got[n].dtype.kind for n in expected)
    twin = twin_mismatch(Relation(expected, expected_valid), relation, exact=False)
    assert (twin is None) == (same and kinds_agree), twin


def test_the_envelope_is_symmetric_not_numpys():
    """``np.isclose`` adds ``atol`` to ``rtol * |b|``: it calls a gap of
    3.5e-6 at 1.0 close under (2e-6, 2e-6), the symmetric rule
    (``|a-b| <= max(rel * max(|a|, |b|), abs)``) does not."""
    a, b = 1.0, 1.0 + 3.5e-6
    assert np.isclose(b, a, rtol=2e-6, atol=2e-6)
    assert not math.isclose(a, b, rel_tol=2e-6, abs_tol=2e-6)
    expected, got = {"x": np.array([a])}, {"x": np.array([b])}
    assert reference_mismatch(RefRelation(expected), Relation(got))[0] is not None
    assert twin_mismatch(Relation(expected), Relation(got), exact=False) is not None
    # an infinity is close to nothing but itself
    huge, inf = {"x": np.array([1e308])}, {"x": np.array([np.inf])}
    assert reference_mismatch(RefRelation(huge), Relation(inf))[0] is not None


def test_floats_within_the_ordering_granule_tie():
    """Two rows whose floats round to the same 7 digits are ordered by
    the next column, so noise that swaps the floats on one side cannot
    misalign the rows."""
    expected = {"x": np.array([1.0000004, 1.00000049]), "y": np.array([1, 2])}
    got = {"x": np.array([1.00000045, 1.00000041]), "y": np.array([1, 2])}
    assert reference_mismatch(RefRelation(expected), Relation(got)) == (
        None, (1.00000049 - 1.00000041) / 1.00000049
    )


def test_zero_rows_are_equal_whatever_the_dtypes():
    """sqlite returns no row for an empty result, so every reference
    column is float64; the engine's empty columns keep their types."""
    reference = RefRelation({"c_name": np.array([]), "o_count": np.array([])})
    got = Relation({
        "c_name": np.array([], dtype="<U17"), "o_count": np.array([], dtype=np.int64),
    })
    assert reference.columns["c_name"].dtype == np.float64
    assert reference_mismatch(reference, got) == (None, 0.0)
