"""Facts derived from a frozen value, memoised on it and dying with it."""


def derive(value, key, build):
    """The fact under ``key`` — ``(fact, *arguments)``, e.g. a zone map or
    a predicate's mask — of the frozen dataclass ``value``, built by
    ``build()`` on first request.  The memo is in the value's
    ``__dict__``, not a field, so ``dataclasses.replace`` starts every new
    version without one and no writer resets it."""
    memo = value.__dict__.setdefault("_derived", {})
    if key not in memo:
        memo[key] = build()
    return memo[key]
