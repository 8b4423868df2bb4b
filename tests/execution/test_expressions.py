"""Expression language, including the LIKE patterns the queries need."""

import numpy as np
import pytest

from repro.execution.expressions import (
    Case,
    Like,
    Substring,
    col,
    days,
    lit,
    validity,
    year,
)


def _rel(**cols):
    return {k: np.asarray(v) for k, v in cols.items()}


class TestArithmeticAndComparison:
    def test_revenue_expression(self):
        rel = _rel(price=[100.0, 200.0], disc=[0.1, 0.5])
        expr = col("price") * (1 - col("disc"))
        assert list(expr.eval(rel)) == [90.0, 100.0]

    def test_comparisons(self):
        rel = _rel(x=[1, 2, 3])
        assert list(col("x").lt(2).eval(rel)) == [True, False, False]
        assert list(col("x").ge(2).eval(rel)) == [False, True, True]
        assert list(col("x").ne(2).eval(rel)) == [True, False, True]

    def test_between_and_isin(self):
        rel = _rel(x=[1, 5, 9])
        assert list(col("x").between(2, 8).eval(rel)) == [False, True, False]
        assert list(col("x").isin([1, 9]).eval(rel)) == [True, False, True]

    def test_boolean_connectives(self):
        rel = _rel(x=[1, 2, 3, 4])
        expr = (col("x").gt(1) & col("x").lt(4)) | col("x").eq(1)
        assert list(expr.eval(rel)) == [True, True, True, False]
        assert list((~col("x").eq(2)).eval(rel)) == [True, False, True, True]

    def test_columns_tracking(self):
        expr = (col("a") + col("b")).gt(col("c"))
        assert expr.columns() == {"a", "b", "c"}

    def test_rsub_rmul(self):
        rel = _rel(x=[2.0])
        assert (1 - col("x")).eval(rel)[0] == -1.0
        assert (3 * col("x")).eval(rel)[0] == 6.0


class TestLike:
    def _values(self):
        return _rel(s=["PROMO BRUSHED TIN", "STANDARD BRASS", "MEDIUM POLISHED BRASS",
                       "forest green things", "green forest"])

    def test_prefix(self):
        out = col("s").like("PROMO%").eval(self._values())
        assert list(out) == [True, False, False, False, False]

    def test_suffix(self):
        out = col("s").like("%BRASS").eval(self._values())
        assert list(out) == [False, True, True, False, False]

    def test_contains(self):
        out = col("s").like("%green%").eval(self._values())
        assert list(out) == [False, False, False, True, True]

    def test_double_wildcard_ordered(self):
        rel = _rel(s=["special handling requests", "requests special", "special requests",
                      "nothing here"])
        out = col("s").like("%special%requests%").eval(rel)
        assert list(out) == [True, False, True, False]

    def test_not_like(self):
        rel = _rel(s=["MEDIUM POLISHED TIN", "SMALL POLISHED TIN"])
        out = col("s").not_like("MEDIUM POLISHED%").eval(rel)
        assert list(out) == [False, True]

    def test_exact_without_wildcards(self):
        rel = _rel(s=["abc", "abcd", "ab"])
        out = col("s").like("abc").eval(rel)
        assert list(out) == [True, False, False]

    def test_overlap_not_double_counted(self):
        # pattern needs two separate occurrences
        rel = _rel(s=["abab", "aba"])
        out = col("s").like("%ab%ab%").eval(rel)
        assert list(out) == [True, False]

    def test_anchored_both_ends_with_middle(self):
        rel = _rel(s=["a-x-b", "a-b", "xa-b"])
        out = col("s").like("a%b").eval(rel)
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
            got = list(col("s").like(pattern).eval(rel))
            assert got == expected, pattern


class TestCaseSubstringYear:
    def test_case(self):
        rel = _rel(x=[1, 2, 3])
        expr = Case([(col("x").eq(1), lit(10)), (col("x").eq(2), lit(20))], 0)
        assert list(expr.eval(rel)) == [10, 20, 0]

    def test_case_with_expressions(self):
        rel = _rel(x=[1.0, 2.0], y=[5.0, 7.0])
        expr = Case([(col("x").gt(1.5), col("y"))], 0.0)
        assert list(expr.eval(rel)) == [0.0, 7.0]

    def test_substring(self):
        rel = _rel(phone=["13-555-123", "31-999-000"])
        expr = Substring(col("phone"), 1, 2)
        assert list(expr.eval(rel)) == ["13", "31"]

    def test_year(self):
        rel = _rel(d=[days("1994-01-01"), days("1995-12-31"), days("1992-06-15")])
        assert list(year("d").eval(rel)) == [1994, 1995, 1992]

    def test_days_literal(self):
        assert days("1970-01-01") == 0
        assert days("1970-01-02") == 1


class TestValidity:
    """NULL in, NULL out: the one rule ``Project`` and ``Aggregate`` read."""

    def _rel(self):
        from repro.execution.relation import Relation

        return Relation(
            columns={"a": np.arange(4), "b": np.arange(4), "c": np.arange(4)},
            valid={
                "a": np.array([True, False, True, True]),
                "b": np.array([True, True, False, True]),
            },
        )

    def test_no_masked_input_is_every_row(self):
        assert validity(col("c") * 2, self._rel()) is None
        assert validity(lit(1), self._rel()) is None

    def test_one_masked_input_is_its_mask(self):
        rel = self._rel()
        assert validity(col("a") + col("c"), rel) is rel.valid["a"]

    def test_every_input_must_be_valid(self):
        mask = validity(col("a") + col("b") * col("c"), self._rel())
        assert mask.tolist() == [True, False, False, True]
