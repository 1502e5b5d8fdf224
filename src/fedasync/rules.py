"""Bounds on configuration fields, each written once, on its field.

A dataclass field carries its bound as ``field(metadata=...)``, built
with the helpers below. The class's ``__post_init__`` calls
:func:`validate`; the command line reads the same bound through
:func:`rule_of`, so that it can report every key that breaks one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable


@dataclass(frozen=True)
class Rule:
    """``text`` states the bound and ``ok(value)`` tests it. A value the
    test cannot compare, such as a string for a number, breaks it."""

    text: str
    ok: Callable[[object], bool]

    def holds(self, value) -> bool:
        try:
            return bool(self.ok(value))
        except TypeError:
            return False


def bound(text: str, ok: Callable[[object], bool]) -> dict:
    """Field metadata holding the rule ``(text, ok)``."""
    return {"rule": Rule(text, ok)}


def at_least(lo: int) -> dict:
    return bound(f"must be >= {lo}", lambda v: v >= lo)


def one_of(choices: tuple[str, ...]) -> dict:
    return bound("must be one of " + ", ".join(choices), lambda v: v in choices)


def optional(meta: dict) -> dict:
    """The bound of ``meta``, with None (not set) allowed as well."""
    rule = meta["rule"]
    return bound(rule.text, lambda v: v is None or rule.ok(v))


FINITE_POSITIVE = bound("must be finite and > 0", lambda v: math.isfinite(v) and v > 0)
FINITE_NONNEGATIVE = bound("must be finite and >= 0", lambda v: math.isfinite(v) and v >= 0)


def rule_of(cls: type, name: str) -> Rule | None:
    """The rule on field ``name`` of dataclass ``cls``, if it has one."""
    return next(f.metadata.get("rule") for f in fields(cls) if f.name == name)


def validate(obj) -> None:
    """Raise ``ValueError`` naming the first field of ``obj`` that breaks its rule."""
    for f in fields(obj):
        rule = f.metadata.get("rule")
        value = getattr(obj, f.name)
        if rule is not None and not rule.holds(value):
            raise ValueError(f"{f.name} {rule.text}, got {value!r}")
