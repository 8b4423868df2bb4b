"""The one schema checker behind the three artifact validators.

:func:`problems` walks a JSON value against a *spec*, names every
violation by path (``fragments[3].end_seconds``) and never raises,
whatever JSON it is handed — a validator that crashes on the input it
exists to reject is no validator.  The query-log record, the Perfetto
trace and the ledger record and document are each one spec
(``RECORD_SPEC``, ``EVENTS_SPEC``, ``LEDGER_RECORD_SPEC``,
``LEDGER_DOCUMENT_SPEC``) and one call.  A spec is:

* a type (``str``, ``list``, ``dict``; :data:`ANY` accepts anything);
* :data:`NUMBER` — a finite ``int``/``float``: a ``bool`` is not a
  number, and neither is NaN or an infinity, which JSON cannot carry —
  or :data:`COUNT`, a non-negative ``int`` (both are :class:`Number`\\ s);
* a literal ``int``/``str`` — exactly that value (schema versions);
* ``[spec]`` — a list of items matching ``spec``;
* ``{key: spec}`` — an object: keys are required unless spelled
  ``"key?"``, and the key set is closed unless ``...`` gives the spec of
  every *other* key (``{...: NUMBER}`` is a string-keyed map of numbers,
  ``{"name": ANY, ...: ANY}`` an open shape);
* :class:`Tagged` — an object whose string field ``key`` picks its shape;
* :class:`Rule` — a spec plus a cross-field check, run once the spec
  itself holds (so the check may assume the shape).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

__all__ = ["ANY", "NUMBER", "COUNT", "Number", "Tagged", "Rule", "problems"]


@dataclass(frozen=True)
class Number:
    """A finite JSON number, optionally integral and/or non-negative."""

    integral: bool = False
    non_negative: bool = False


@dataclass(frozen=True)
class Tagged:
    """An object whose string field ``key`` selects its shape."""

    key: str
    shapes: Dict[str, dict]


@dataclass(frozen=True)
class Rule:
    """``spec`` plus ``check(value) -> problem messages``; the check
    runs only on a value that already matches ``spec``."""

    spec: object
    check: Callable[[object], Iterable[str]]


ANY = object
NUMBER = Number()
COUNT = Number(integral=True, non_negative=True)


def problems(value, spec, path: str = "") -> List[str]:
    """Every way ``value`` violates ``spec``, as ``path: problem``
    strings (empty = valid)."""
    return [
        f"{where}: {what}" if where else what
        for where, what in _walk(value, spec, path)
    ]


def _number_problem(value, spec: Number) -> str:
    """The one judgement of what a number is ("" = ``value`` is one)."""
    allowed = int if spec.integral else (int, float)
    if isinstance(value, bool) or not isinstance(value, allowed):
        got = type(value).__name__
    # only a float can be non-finite (and math.isfinite overflows on a
    # JSON integer too large for a double)
    elif (isinstance(value, float) and not math.isfinite(value)) or (
        spec.non_negative and value < 0
    ):
        got = repr(value)
    else:
        return ""
    kind = "integer" if spec.integral else "number"
    return f"expected a {'non-negative' if spec.non_negative else 'finite'} {kind}, got {got}"


def _walk(value, spec, path: str) -> Iterator[Tuple[str, str]]:
    """``(path, problem)`` pairs."""
    kind = type(value).__name__
    if isinstance(spec, Rule):
        found = list(_walk(value, spec.spec, path))
        yield from found or ((path, message) for message in spec.check(value))
    elif isinstance(spec, Number):
        problem = _number_problem(value, spec)
        if problem:
            yield path, problem
    elif isinstance(spec, (dict, Tagged)):
        if not isinstance(value, dict):
            yield path, f"expected an object, got {kind}"
            return
        if isinstance(spec, Tagged):
            tag = value.get(spec.key)
            if not isinstance(tag, str) or tag not in spec.shapes:
                got = repr(tag) if isinstance(tag, str) else type(tag).__name__
                yield path, f"unknown {spec.key} {got}"
                return
            spec = spec.shapes[tag]
        named = {key.rstrip("?"): key for key in spec if key is not ...}
        for name, key in named.items():
            field = f"{path}.{name}" if path else name
            if name in value:
                yield from _walk(value[name], spec[key], field)
            elif not key.endswith("?"):
                yield field, "missing"
        for key, item in value.items():
            if not isinstance(key, str):
                yield path, f"non-string key {key!r}"
            elif key in named:
                continue
            elif ... in spec:
                yield from _walk(item, spec[...], f"{path}[{key}]")
            else:
                yield path, f"unknown field {key!r}"
    elif isinstance(spec, list):
        if not isinstance(value, list):
            yield path, f"expected a list, got {kind}"
            return
        for position, item in enumerate(value):
            yield from _walk(item, spec[0], f"{path}[{position}]")
    elif isinstance(spec, type):
        if not isinstance(value, spec):
            yield path, f"expected {spec.__name__}, got {kind}"
    else:  # a literal: same type, same value
        got = repr(value) if type(value) is type(spec) else kind
        if got != repr(spec):
            yield path, f"expected {spec!r}, got {got}"
