"""Catalog: datatypes, tables, foreign keys, hints, traversal."""

import pytest

from repro.catalog import (
    DATE,
    DECIMAL,
    INT32,
    Schema,
    SchemaError,
    string_type,
)


class TestDatatypes:
    def test_string_type(self):
        t = string_type(25)
        assert t.numpy_dtype == "<U25"
        assert t.stored_bytes == 25.0

    def test_string_avg_bytes(self):
        t = string_type(100, avg_bytes=49)
        assert t.stored_bytes == 49.0

    def test_string_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            string_type(0)

    def test_date_flag(self):
        # a date is its own type, stored as an int32 day number
        assert DATE.name == "date" and DATE != INT32
        assert DATE.numpy_dtype == INT32.numpy_dtype
        assert DATE.empty(3).dtype == "int32"

    def test_empty_allocation(self):
        arr = DECIMAL.empty(7)
        assert arr.dtype == "float64" and len(arr) == 7


def _schema():
    s = Schema()
    s.add_table("parent", [("p_id", INT32), ("p_val", INT32)], primary_key=["p_id"])
    s.add_table("child", [("c_id", INT32), ("c_p", INT32)], primary_key=["c_id"])
    s.add_foreign_key("FK_C_P", "child", ["c_p"], "parent")
    return s


class TestSchema:
    def test_lookup(self):
        s = _schema()
        assert s.table("parent").primary_key == ("p_id",)
        assert s.foreign_key("FK_C_P").parent_columns == ("p_id",)

    def test_duplicate_table_rejected(self):
        s = _schema()
        with pytest.raises(SchemaError):
            s.add_table("parent", [("x", INT32)])

    def test_duplicate_column_rejected(self):
        s = Schema()
        with pytest.raises(SchemaError):
            s.add_table("t", [("a", INT32), ("a", INT32)])

    def test_fk_missing_column_rejected(self):
        s = _schema()
        with pytest.raises(SchemaError):
            s.add_foreign_key("BAD", "child", ["nope"], "parent")

    def test_fk_defaults_to_parent_pk(self):
        s = _schema()
        fk = s.foreign_key("FK_C_P")
        assert fk.parent_columns == ("p_id",)

    def test_outgoing_incoming(self):
        s = _schema()
        assert [f.name for f in s.outgoing_foreign_keys("child")] == ["FK_C_P"]
        assert [f.name for f in s.incoming_foreign_keys("parent")] == ["FK_C_P"]

    def test_find_foreign_key_by_columns(self):
        s = _schema()
        assert s.find_foreign_key("child", ["c_p"]).name == "FK_C_P"
        assert s.find_foreign_key("child", ["c_id"]) is None

    def test_leaves_first_order(self):
        s = _schema()
        order = s.leaves_first_order()
        assert order.index("parent") < order.index("child")

    def test_cycle_detected(self):
        s = Schema()
        s.add_table("a", [("a_id", INT32), ("a_b", INT32)], primary_key=["a_id"])
        s.add_table("b", [("b_id", INT32), ("b_a", INT32)], primary_key=["b_id"])
        s.add_foreign_key("FK_A_B", "a", ["a_b"], "b")
        s.add_foreign_key("FK_B_A", "b", ["b_a"], "a")
        with pytest.raises(SchemaError):
            s.leaves_first_order()

    def test_index_hints(self):
        s = _schema()
        s.add_index_hint("i1", "parent", ["p_val"], dimension_name="D_VAL")
        hints = s.hints_for("parent")
        assert hints[0].dimension_name == "D_VAL"
        with pytest.raises(SchemaError):
            s.add_index_hint("i2", "parent", ["missing"])

    def test_table_of_column(self):
        s = _schema()
        owners = [t for t in s.table_names if s.table(t).has_column("c_p")]
        assert owners == ["child"]
        assert not any(s.table(t).has_column("nope") for t in s.table_names)
