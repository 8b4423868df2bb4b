"""Expression language, including the LIKE patterns the queries need."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.expressions import (
    And,
    Between,
    Case,
    Cmp,
    Col,
    Const,
    InList,
    Like,
    Not,
    Or,
    Substring,
    col,
    days,
    lit,
    year,
)
from repro.execution.relation import Relation
from repro.planner.executor import Executor
from repro.schemes.plain import PlainScheme
from repro.workload.differential import reference_mismatch
from repro.workload.reference import evaluate_reference

from ..workload.test_reference import _dept_emp, _dept_left_join_emp


def _rel(**cols):
    return Relation({k: np.asarray(v) for k, v in cols.items()})


def _values(expr, rel):
    """The values of an expression over a relation with no NULL."""
    values, valid = expr.eval(rel)
    assert valid is None
    return values


class TestArithmeticAndComparison:
    def test_revenue_expression(self):
        rel = _rel(price=[100.0, 200.0], disc=[0.1, 0.5])
        expr = col("price") * (1 - col("disc"))
        assert list(_values(expr, rel)) == [90.0, 100.0]

    def test_comparisons(self):
        rel = _rel(x=[1, 2, 3])
        assert list(_values(col("x").lt(2), rel)) == [True, False, False]
        assert list(_values(col("x").ge(2), rel)) == [False, True, True]
        assert list(_values(col("x").ne(2), rel)) == [True, False, True]

    def test_between_and_isin(self):
        rel = _rel(x=[1, 5, 9])
        assert list(_values(col("x").between(2, 8), rel)) == [False, True, False]
        assert list(_values(col("x").isin([1, 9]), rel)) == [True, False, True]

    def test_boolean_connectives(self):
        rel = _rel(x=[1, 2, 3, 4])
        expr = (col("x").gt(1) & col("x").lt(4)) | col("x").eq(1)
        assert list(_values(expr, rel)) == [True, True, True, False]
        assert list(_values(~col("x").eq(2), rel)) == [True, False, True, True]

    def test_columns_tracking(self):
        expr = (col("a") + col("b")).gt(col("c"))
        assert expr.columns() == {"a", "b", "c"}

    def test_rsub_rmul(self):
        rel = _rel(x=[2.0])
        assert _values(1 - col("x"), rel)[0] == -1.0
        assert _values(3 * col("x"), rel)[0] == 6.0


class TestLike:
    def _values(self):
        return _rel(s=["PROMO BRUSHED TIN", "STANDARD BRASS", "MEDIUM POLISHED BRASS",
                       "forest green things", "green forest"])

    def test_prefix(self):
        out = _values(col("s").like("PROMO%"), self._values())
        assert list(out) == [True, False, False, False, False]

    def test_suffix(self):
        out = _values(col("s").like("%BRASS"), self._values())
        assert list(out) == [False, True, True, False, False]

    def test_contains(self):
        out = _values(col("s").like("%green%"), self._values())
        assert list(out) == [False, False, False, True, True]

    def test_double_wildcard_ordered(self):
        rel = _rel(s=["special handling requests", "requests special", "special requests",
                      "nothing here"])
        out = _values(col("s").like("%special%requests%"), rel)
        assert list(out) == [True, False, True, False]

    def test_not_like(self):
        rel = _rel(s=["MEDIUM POLISHED TIN", "SMALL POLISHED TIN"])
        out = _values(col("s").not_like("MEDIUM POLISHED%"), rel)
        assert list(out) == [False, True]

    def test_exact_without_wildcards(self):
        rel = _rel(s=["abc", "abcd", "ab"])
        out = _values(col("s").like("abc"), rel)
        assert list(out) == [True, False, False]

    def test_overlap_not_double_counted(self):
        # pattern needs two separate occurrences
        rel = _rel(s=["abab", "aba"])
        out = _values(col("s").like("%ab%ab%"), rel)
        assert list(out) == [True, False]

    def test_anchored_both_ends_with_middle(self):
        rel = _rel(s=["a-x-b", "a-b", "xa-b"])
        out = _values(col("s").like("a%b"), rel)
        assert list(out) == [True, True, False]

    def test_underscore_unsupported(self):
        with pytest.raises(NotImplementedError):
            Like(col("s"), "a_c")

    def test_matches_python_reference(self):
        import re
        rng = np.random.default_rng(0)
        alphabet = list("abc ")
        strings = ["".join(rng.choice(alphabet, 8)) for _ in range(300)]
        rel = _rel(s=strings)
        for pattern in ["a%", "%b", "%ab%", "a%b%c", "%a b%c%", "abc"]:
            regex = "^" + ".*".join(re.escape(seg) for seg in pattern.split("%")) + "$"
            regex = regex.replace(".*$", ".*$") if pattern.endswith("%") else regex
            expected = [re.match("^" + ".*".join(map(re.escape, pattern.split("%"))) + "$", s) is not None for s in strings]
            got = list(_values(col("s").like(pattern), rel))
            assert got == expected, pattern


class TestCaseSubstringYear:
    def test_case(self):
        rel = _rel(x=[1, 2, 3])
        expr = Case([(col("x").eq(1), lit(10)), (col("x").eq(2), lit(20))], 0)
        assert list(_values(expr, rel)) == [10, 20, 0]

    def test_case_with_expressions(self):
        rel = _rel(x=[1.0, 2.0], y=[5.0, 7.0])
        expr = Case([(col("x").gt(1.5), col("y"))], 0.0)
        assert list(_values(expr, rel)) == [0.0, 7.0]

    def test_substring(self):
        rel = _rel(phone=["13-555-123", "31-999-000"])
        expr = Substring(col("phone"), 1, 2)
        assert list(_values(expr, rel)) == ["13", "31"]

    @settings(max_examples=60, derandomize=True)
    @given(
        st.lists(st.text("ab-1 ", max_size=8), max_size=12),
        st.integers(1, 9),
        st.integers(1, 5),
        st.data(),
    )
    def test_substring_is_python_slicing(self, strings, start, length, data):
        # strings shorter than the window and empty strings included; the
        # validity passes through, whatever lies under a NULL
        flags = st.lists(st.booleans(), min_size=len(strings), max_size=len(strings))
        valid = np.array(data.draw(flags), dtype=bool)
        rel = Relation(
            columns={"s": np.array(strings, dtype="<U8")}, valid={"s": valid}
        )
        values, got_valid = Substring(col("s"), start, length).eval(rel)
        assert values.dtype == np.dtype(f"<U{length}")
        assert list(values) == [s[start - 1 : start - 1 + length] for s in strings]
        assert np.array_equal(got_valid, valid)

    def test_year(self):
        rel = _rel(d=[days("1994-01-01"), days("1995-12-31"), days("1992-06-15")])
        assert list(_values(year("d"), rel)) == [1994, 1995, 1992]

    def test_days_literal(self):
        assert days("1970-01-01") == 0
        assert days("1970-01-02") == 1


class TestValidity:
    """NULL in, NULL out, and Kleene logic for the connectives: the one
    rule every operator reads off ``eval``."""

    def _rel(self):
        return Relation(
            columns={"a": np.arange(4), "b": np.arange(4), "c": np.arange(4)},
            valid={
                "a": np.array([True, False, True, True]),
                "b": np.array([True, True, False, True]),
            },
        )

    def test_no_masked_input_is_every_row(self):
        assert (col("c") * 2).eval(self._rel())[1] is None
        assert lit(1).eval(self._rel())[1] is None

    def test_one_masked_input_is_its_mask(self):
        rel = self._rel()
        assert (col("a") + col("c")).eval(rel)[1] is rel.valid["a"]

    def test_every_input_must_be_valid(self):
        _, mask = (col("a") + col("b") * col("c")).eval(self._rel())
        assert mask.tolist() == [True, False, False, True]

    def test_kleene_connectives(self):
        """a NULL is unknown: FALSE AND NULL is FALSE, TRUE OR NULL is
        TRUE, NOT NULL is NULL — and a filter keeps only TRUE."""
        rel = Relation(
            columns={"x": np.array([1, 0, 1, 0]), "y": np.array([1, 1, 0, 0])},
            valid={"y": np.array([False, False, False, True])},
        )
        x, y = col("x").eq(1), col("y").eq(1)
        assert (x & y).eval(rel)[1].tolist() == [False, True, False, True]
        assert (x | y).eval(rel)[1].tolist() == [True, False, True, True]
        assert (~y).eval(rel)[1].tolist() == [False, False, False, True]
        assert (x | y).holds(rel).tolist() == [True, False, True, False]
        assert (~y).holds(rel).tolist() == [False, False, False, True]

    def test_a_case_branch_fires_only_where_its_condition_is_true(self):
        rel = Relation(
            columns={"x": np.array([1, 1, 2]), "y": np.array([5, 6, 7])},
            valid={"x": np.array([True, False, True]), "y": np.array([True, True, False])},
        )
        values, valid = Case([(col("x").eq(1), lit(10))], col("y")).eval(rel)
        assert values.tolist()[:2] == [10, 6] and valid.tolist() == [True, True, False]


class TestStructuralIdentity:
    def test_equal_predicates_built_apart_are_equal_and_hash_equal(self):
        def build():
            return (
                col("a").isin([1, 2]) & col("s").like("%x%")
                | Case([(col("a").gt(1), col("b"))], 0).eq(lit(3))
            )
        first, second = build(), build()
        assert first is not second and first == second and hash(first) == hash(second)
        assert InList(col("a"), [1, 2]).values == (1, 2)
        assert build() != (col("a").isin([1, 3]) & col("s").like("%x%"))


# ------------------------------------------------- Kleene logic against SQL
#: literals per column of ``dept LEFT JOIN emp`` (``e_*`` are nullable)
LITERALS = {"d_id": [1, 2, 4], "e_id": [0, 3, 7], "e_dept": [1, 2, 3], "e_sal": [10.0, 35.0, 80.0]}
COLUMNS = st.sampled_from(sorted(LITERALS))
PICK = st.integers(0, 2)


def _between(name, i, j):
    low, high = sorted((LITERALS[name][i], LITERALS[name][j]))
    return Between(Col(name), Const(low), Const(high))


LEAVES = st.one_of(
    st.builds(
        lambda name, op, i: Cmp(op, Col(name), Const(LITERALS[name][i])),
        COLUMNS, st.sampled_from(["==", "!=", "<", "<=", ">", ">="]), PICK,
    ),
    st.builds(_between, COLUMNS, PICK, PICK),
    st.builds(
        lambda name, picks: InList(Col(name), [LITERALS[name][i] for i in sorted(picks)]),
        COLUMNS, st.sets(PICK, min_size=1),
    ),
    st.builds(lambda pattern: Like(Col("d_name"), pattern), st.sampled_from(["e%", "%o%", "hr"])),
)


def _extend(inner):
    """Connectives over predicates, and a CASE whose branch is a
    nullable value compared in turn."""
    case = st.builds(
        lambda when, name: Case([(when, Col(name))], 0.0).gt(25.0),
        inner, st.sampled_from(["e_sal", "d_id"]),
    )
    return st.one_of(st.builds(And, inner, inner), st.builds(Or, inner, inner), st.builds(Not, inner), case)


PREDICATES = st.recursive(LEAVES, _extend, max_leaves=6)


@pytest.fixture(scope="module")
def lonely():
    """``lonely_db``: department 4 has no employee, so its ``e_*``
    columns are NULL in ``dept LEFT JOIN emp``."""
    database = _dept_emp(["eng", "ops", "hr", "fin"])
    return database, Executor(PlainScheme().build(database))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(predicate=PREDICATES)
def test_kleene_logic_is_sqls(lonely, predicate):
    """Projected, a predicate is TRUE, FALSE or NULL where SQL says so;
    as a filter, it keeps exactly SQL's rows."""
    database, executor = lonely
    joined = _dept_left_join_emp()
    for plan in (joined.project(d=col("d_id"), e=col("e_id"), p=predicate), joined.filter(predicate)):
        got = executor.execute(plan).relation
        assert reference_mismatch(evaluate_reference(database, plan), got)[0] is None, predicate
