"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class DimensionCalculusError(Exception):
    """Base class for every error raised by this package."""


class GroundTooSmall(DimensionCalculusError):
    """The ground set is too small for the requested enumeration."""


class GroundMismatch(DimensionCalculusError):
    """Two partitions live on ground sets of different sizes."""


class NotProper(DimensionCalculusError):
    """A single-block partition was supplied where a proper one is required."""


class SpecInvalid(DimensionCalculusError):
    """A family specification violates the rules of its flavor."""


class InvalidShape(SpecInvalid):
    """A decomposition shape violates its rules."""


class RankTooSmall(DimensionCalculusError):
    """A symplectic rank is below 1 for an Sp atom or below 2 for a varying factor."""


class VaryingDimTooSmall(InvalidShape, RankTooSmall):
    """A shape has no varying factor, or one of dimension below 2.

    A varying factor of dimension d has monodromy Sp(2d) of rank d, so a
    realization target with a rank below 2 fails this same rule.
    """


class TargetTooLarge(DimensionCalculusError):
    """The target group does not fit inside the requested total dimension."""


class UnitaryBoundViolated(DimensionCalculusError):
    """An SU(p, q) atom has p or q below 1, or a realization request
    violates g' >= p+q+1."""


class UnrealizableTarget(DimensionCalculusError):
    """The target group expression is not of a realizable form."""


class GenusTooSmall(DimensionCalculusError):
    """Fiber genus below 3; the budget method does not apply."""


class Disagreement(DimensionCalculusError):
    """Two independent routes to the same number gave different values.

    ``values`` maps each route's name to its value; the message names both.
    """

    def __init__(self, what: str, **values: object):
        super().__init__(f"{what}: " + ", ".join(f"{k} {v}" for k, v in values.items()))
        self.values = values
