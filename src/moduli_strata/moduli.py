"""Exact dimensions of the ambient moduli spaces and symbolic groups.

Everything here is integer arithmetic on two families of spaces:

* the Siegel space of principally polarized abelian g-folds: dimension
  g(g+1)/2, boundary codimension exactly g;
* the unitary space of abelian (p+q)-folds with multiplication by an
  imaginary quadratic field acting with eigenspace dimensions (p, q):
  dimension p*q, boundary codimension at least p+q-1.

Group expressions are formal products of ``Sp(2k)`` and ``SU(p,q)``-form
atoms with exact dimensions k(2k+1) and (p+q)^2 - 1.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Union

from .errors import DimensionCalculusError, agree


def half_exact(n: int) -> int:
    """Return n/2, insisting that n is even.

    All half-integer formulas in this package are exact; a failed parity
    check here means a formula was applied outside its domain.
    """
    if n % 2 != 0:
        raise ArithmeticError(f"expected an even value, got {n}")
    return n // 2


def quarter_exact(n: int) -> int:
    if n % 4 != 0:
        raise ArithmeticError(f"expected a multiple of 4, got {n}")
    return n // 4


def siegel_dim(g: int) -> int:
    """Dimension g(g+1)/2 of the Siegel space of abelian g-folds."""
    if g < 0:
        raise ValueError(f"dimension must be >= 0, got {g}")
    return g * (g + 1) // 2


def unitary_dim(p: int, q: int) -> int:
    if p < 0 or q < 0:
        raise ValueError(f"parameters must be >= 0, got ({p}, {q})")
    return p * q


class BoundaryCodim(namedtuple("BoundaryCodim", "codim exact")):
    """Codimension of the minimal compactification boundary.

    ``exact`` distinguishes a sharp value from a guaranteed lower bound.
    """

    __slots__ = ()


def siegel_boundary_codim(g: int) -> BoundaryCodim:
    """Exactly g: the boundary of the minimal compactification of the
    Siegel space is a chain of lower Siegel spaces."""
    if g < 1:
        raise DimensionCalculusError("boundary codimension needs g >= 1")
    return BoundaryCodim(agree(f"Siegel boundary codimension at g = {g}", closed_form=g,
                               dimension_drop=siegel_dim(g) - siegel_dim(g - 1)), exact=True)


def unitary_boundary_codim(p: int, q: int) -> BoundaryCodim:
    """At least p+q-1: the boundary strata of the minimal compactification
    are the spaces (p-r, q-r), and pq - (p-1)(q-1) = p+q-1."""
    SUFormAtom(p, q)  # the unitary rule p, q >= 1
    return BoundaryCodim(agree(f"unitary boundary codimension at ({p}, {q})", closed_form=p + q - 1,
                               dimension_drop=unitary_dim(p, q) - unitary_dim(p - 1, q - 1)), exact=False)


def torelli_codim(g: int) -> int:
    """Codimension of the closure of the Jacobian locus: g(g+1)/2 - (3g-3)."""
    if g < 2:
        raise DimensionCalculusError(f"Torelli codimension needs g >= 2, got {g}")
    return siegel_dim(g) - (3 * g - 3)


def sp_dim(l: int) -> int:
    """Dimension l(2l+1) of Sp(2l); also the weight of a block of size l."""
    return l * (2 * l + 1)


class SpAtom(namedtuple("SpAtom", "rank")):
    """A symplectic factor Sp(2*rank); dimension rank*(2*rank+1)."""

    __slots__ = ()

    def __new__(cls, rank: int) -> SpAtom:
        if rank < 1:
            raise DimensionCalculusError(f"Sp atom rank must be >= 1, got {rank}")
        return super().__new__(cls, rank)

    @property
    def dim(self) -> int:
        return sp_dim(self.rank)

    @property
    def label(self) -> str:
        return f"Sp({2 * self.rank})"


class SUFormAtom(namedtuple("SUFormAtom", "p q")):
    """A rational form of SU(p, q); dimension (p+q)^2 - 1."""

    __slots__ = ()

    def __new__(cls, p: int, q: int) -> SUFormAtom:
        if p < 1 or q < 1:
            raise DimensionCalculusError(f"unitary parameters must be >= 1, got ({p}, {q})")
        return super().__new__(cls, p, q)

    @property
    def dim(self) -> int:
        return (self.p + self.q) ** 2 - 1

    @property
    def label(self) -> str:
        return f"SU({self.p},{self.q})"


GroupAtom = Union[SpAtom, SUFormAtom]


def _atom_key(atom: GroupAtom) -> tuple[int, int, int]:
    if isinstance(atom, SpAtom):
        return (0, atom.rank, 0)
    return (1, atom.p, atom.q)


class GroupExpr(namedtuple("GroupExpr", "atoms")):
    """A formal product of group atoms in canonical (sorted) order."""

    __slots__ = ()

    def __new__(cls, atoms: Iterable[GroupAtom]) -> GroupExpr:
        atoms = tuple(sorted(atoms, key=_atom_key))
        if not atoms:
            raise ValueError("a group expression needs at least one atom")
        return super().__new__(cls, atoms)

    @property
    def label(self) -> str:
        return " x ".join(a.label for a in self.atoms)

    @property
    def dim(self) -> int:
        return sum(a.dim for a in self.atoms)
