"""The package's two exceptions, and ``agree``, the one place where routes to a number must be equal."""

from __future__ import annotations

from typing import TypeVar

T = TypeVar("T")


class DimensionCalculusError(Exception):
    """An input breaks a rule of the calculus; the message names the rule."""


class Disagreement(DimensionCalculusError):
    """Routes to one number gave different values; ``values`` maps each route's name to its value."""

    def __init__(self, what: str, **values: object):
        super().__init__(f"{what}: " + ", ".join(f"{k} {v}" for k, v in values.items()))
        self.values = values


def agree(what: str, **routes: T) -> T:
    """The value every route gives; ``Disagreement(what, **routes)``, naming each value, when any differs."""
    first, *rest = routes.values()
    if any(value != first for value in rest):
        raise Disagreement(what, **routes)
    return first
