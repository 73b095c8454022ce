"""The package's two exceptions: a broken rule, and two routes that disagree."""

from __future__ import annotations


class DimensionCalculusError(Exception):
    """An input breaks a rule of the calculus; the message names the rule."""


class Disagreement(DimensionCalculusError):
    """Two independent routes to the same number gave different values.

    ``values`` maps each route's name to its value; the message names both.
    """

    def __init__(self, what: str, **values: object):
        super().__init__(f"{what}: " + ", ".join(f"{k} {v}" for k, v in values.items()))
        self.values = values
