"""The one schema checker: every spec form, one table; and the promise
that no JSON value makes it (or the three artifact validators built on
it) raise."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observe import (
    ledger_record_errors,
    record_errors,
    validate_trace,
    validate_trace_events,
)
from repro.observe.history import LEDGER_RECORD_SPEC
from repro.observe.query_log import RECORD_SPEC
from repro.observe.schema import ANY, COUNT, NUMBER, Number, Rule, Tagged, problems
from repro.observe.trace_events import EVENTS_SPEC

NAN, INF = float("nan"), float("inf")

_POINT = {"x": NUMBER, "y?": NUMBER}
_ORDERED = Rule(
    {"low": NUMBER, "high": NUMBER},
    lambda v: ["high below low"] if v["high"] < v["low"] else [],
)
_SHAPES = Tagged("kind", {
    "circle": {"kind": str, "r": NUMBER},
    "tag": {"text": str, ...: ANY},
})


def _paths(found):
    """The path of each problem (the text before its first ``": "``;
    ``""`` for a problem of the root value)."""
    return sorted(p.partition(": ")[0] if ": " in p else "" for p in found)


@pytest.mark.parametrize(
    "value, spec, expected",
    [
        # ------------------------------------------------------- types
        ("a", str, []),
        (1, str, ["v"]),
        (None, str, ["v"]),
        ({}, dict, []),
        ([], dict, ["v"]),
        ([1, "a", None], list, []),
        ({"anything": [1, {"at": "all"}]}, ANY, []),
        (None, ANY, []),
        # ---------------------------------------------- NUMBER / COUNT
        (0, NUMBER, []),
        (-1.5, NUMBER, []),
        (10 ** 400, NUMBER, []),           # too large for a double: still finite
        (True, NUMBER, ["v"]),             # a bool is not a number
        (False, COUNT, ["v"]),
        ("1", NUMBER, ["v"]),
        (None, NUMBER, ["v"]),
        (NAN, NUMBER, ["v"]),
        (INF, NUMBER, ["v"]),
        (-INF, NUMBER, ["v"]),
        (3, COUNT, []),
        (0, COUNT, []),
        (-1, COUNT, ["v"]),
        (3.0, COUNT, ["v"]),               # integral means int
        (0.0, Number(non_negative=True), []),
        (-0.5, Number(non_negative=True), ["v"]),
        (NAN, Number(non_negative=True), ["v"]),
        # ---------------------------------------------------- literals
        (2, 2, []),
        (1, 2, ["v"]),
        (True, 1, ["v"]),                  # True == 1, but is not the literal 1
        (2.0, 2, ["v"]),
        ("2", 2, ["v"]),
        ("X", "X", []),
        ("Y", "X", ["v"]),
        # ------------------------------------------------------- lists
        ([], [NUMBER], []),
        ([1, 2.5], [NUMBER], []),
        ([1, "two", NAN], [NUMBER], ["v[1]", "v[2]"]),
        ("12", [NUMBER], ["v"]),
        ([[1], [2, "x"]], [[NUMBER]], ["v[1][1]"]),
        # ------------------------- shapes: required, optional, closed
        ({"x": 1}, _POINT, []),
        ({"x": 1, "y": 2}, _POINT, []),
        ({"y": 2}, _POINT, ["v.x"]),                     # missing
        ({"x": 1, "y": "2"}, _POINT, ["v.y"]),
        ({"x": 1, "z": 3}, _POINT, ["v"]),               # unknown field
        ({"x": 1, 7: 3}, _POINT, ["v"]),                 # non-string key
        ([("x", 1)], _POINT, ["v"]),
        ({"inner": {"x": True}}, {"inner": _POINT}, ["v.inner.x"]),
        ({"points": [{"x": 1}, {}]}, {"points": [_POINT]}, ["v.points[1].x"]),
        # --------------------------------- maps and open shapes (...)
        ({}, {...: NUMBER}, []),
        ({"a": 1, "b": 2.5}, {...: NUMBER}, []),
        ({"a": 1, "b": True, "c.d": NAN}, {...: NUMBER}, ["v[b]", "v[c.d]"]),
        ({1: 1.0}, {...: NUMBER}, ["v"]),
        ({"name": "n", "more": [1]}, {"name": str, ...: ANY}, []),
        ({"more": [1]}, {"name": str, ...: ANY}, ["v.name"]),
        ({"name": "n", "n": "x"}, {"name": str, ...: NUMBER}, ["v[n]"]),
        # ------------------------------------------------------ Tagged
        ({"kind": "circle", "r": 1}, _SHAPES, []),
        ({"kind": "circle"}, _SHAPES, ["v.r"]),
        ({"kind": "circle", "r": 1, "extra": 0}, _SHAPES, ["v"]),
        ({"kind": "tag", "text": "t", "extra": 0}, _SHAPES, []),
        ({"kind": "square"}, _SHAPES, ["v"]),
        ({"kind": ["circle"]}, _SHAPES, ["v"]),          # unhashable tag
        ({}, _SHAPES, ["v"]),
        ("circle", _SHAPES, ["v"]),
        # -------------------------------------------------------- Rule
        ({"low": 1, "high": 2}, _ORDERED, []),
        ({"low": 2, "high": 1}, _ORDERED, ["v"]),
        ({"low": 2, "high": "1"}, _ORDERED, ["v.high"]),  # rule not run
        ([{"low": 0, "high": 1}, {"low": 1, "high": 0}], [_ORDERED], ["v[1]"]),
    ],
)
def test_problem_paths(value, spec, expected):
    assert _paths(problems(value, spec, "v")) == sorted(expected)


def test_messages_name_path_expectation_and_finding():
    assert problems({"a": {"b": [1, NAN]}}, {"a": {"b": [NUMBER]}}) == [
        "a.b[1]: expected a finite number, got nan"
    ]
    assert problems({"a": True}, {"a": COUNT, "b": str}) == [
        "a: expected a non-negative integer, got bool",
        "b: missing",
    ]
    assert problems({"surprise": 1}, {}) == ["unknown field 'surprise'"]
    assert problems([], {"a": str}) == ["expected an object, got list"]
    assert problems({"ph": "Q"}, Tagged("ph", {"X": {}}), "e") == [
        "e: unknown ph 'Q'"
    ]


# --------------------------------------------------------- never raises
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(["X", "M", "s", "f", 10 ** 400]),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(
        st.text(max_size=3) | st.sampled_from(
            # the keys the artifact specs look at, so generated values
            # reach the nested checks and the cross-field rules
            ["ph", "ts", "dur", "id", "cat", "name", "pid", "tid",
             "metrics", "meta", "host", "fragments", "operators",
             "simulated", "start_seconds", "end_seconds", "host_seconds",
             "registry_delta", "counters", "traceEvents"]
        ),
        children, max_size=5,
    ),
    max_leaves=20,
)


@settings(max_examples=120, deadline=None)
@given(_JSON)
def test_no_json_value_makes_a_validator_raise(value):
    for spec in (RECORD_SPEC, LEDGER_RECORD_SPEC, EVENTS_SPEC):
        assert all(isinstance(p, str) for p in problems(value, spec))
    for validator in (
        record_errors, ledger_record_errors, validate_trace_events, validate_trace
    ):
        assert isinstance(validator(value), list)


@settings(max_examples=80, deadline=None)
@given(st.lists(
    st.fixed_dictionaries(
        {"ph": st.sampled_from(["X", "M", "s", "f", "B"])},
        optional={
            "name": _JSON, "pid": _JSON, "tid": _JSON, "cat": _JSON,
            "id": _JSON, "ts": _JSON, "dur": _JSON,
        },
    ) | _JSON,
    max_size=6,
))
def test_no_event_list_makes_the_trace_validator_raise(events):
    """Event-shaped input: reaches the per-phase checks and the flow
    pairing (any JSON ``id`` / ``cat``), which arbitrary JSON rarely
    does."""
    assert all(isinstance(p, str) for p in validate_trace_events(events))
