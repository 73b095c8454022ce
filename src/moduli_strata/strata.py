"""Strata of the multiply-decomposable locus and their minimal codimension.

Inside a product of Siegel factors, a point with two isogenous simple
factors lies on one of two stratum families:

* ``b_offdiag(i, j, d)`` -- factors i < j share a common d-dimensional
  isogeny factor; codimension d(2g_i + 2g_j + 1 - 3d)/2.
* ``b_diag(i, d)`` -- factor i contains a repeated d-dimensional factor;
  codimension d(4g_i + 1 - 5d)/2.

With a fixed product of abelian varieties in front, there is additionally

* ``c(i, j)`` -- varying factor i absorbs fixed factor j; codimension
  g_c(2g_v + 1 - g_c)/2, only realizable when g_c <= g_v.

Inside a unitary moduli space with parameters (p, q):

* ``unitary_cm(k, l)`` -- the repeated factor itself carries the field
  action; k, l even, k + l >= 2; dimension kl/4 + (p-k)(q-l).
* ``unitary_noncm(k)`` -- the repeated factor carries no field action,
  1 <= k <= min(p, q); dimension k(k+1)/2 + (p-k)(q-k).

Every stratum dimension is computed twice: from raw sums of moduli-space
dimensions and (where one exists) from the closed form, and the two must
agree.  Minima over strata are compared against published closed-form
minima; a disagreement is reported, never silently overridden.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .errors import Disagreement, InvalidShape, VaryingDimTooSmall
from .moduli import half_exact, quarter_exact, siegel_dim, unitary_dim


class Stratum(namedtuple("Stratum", "kind params ambient_dim stratum_dim")):
    """One component of the multiply-decomposable locus."""

    __slots__ = ()

    def __new__(cls, kind: str, params: tuple[int, ...], ambient_dim: int, stratum_dim: int) -> Stratum:
        self = super().__new__(cls, kind, params, ambient_dim, stratum_dim)
        if stratum_dim > ambient_dim:
            raise ValueError(f"stratum dimension exceeds ambient: {self}")
        return self

    @property
    def codim(self) -> int:
        return self.ambient_dim - self.stratum_dim

    @property
    def label(self) -> str:
        return f"{self.kind}({', '.join(str(p) for p in self.params)})"

    def sort_key(self) -> tuple[int, str, tuple[int, ...]]:
        return (self.codim, self.kind, self.params)


class DecompositionShape(namedtuple("DecompositionShape", "fixed_dims varying_dims")):
    """Fixed factor dimensions plus varying factor dimensions.

    This is also the symplectic family spec (``planner.SymplecticFamily``).
    Both tuples are kept sorted ascending; fixed factors may be absent and
    have dimension at least 1, and at least one varying factor is required,
    each of dimension at least 2.
    """

    __slots__ = ()

    def __new__(cls, fixed_dims: tuple[int, ...], varying_dims: tuple[int, ...]) -> DecompositionShape:
        if not varying_dims:
            raise VaryingDimTooSmall("at least one varying factor is required")
        if any(d < 2 for d in varying_dims):
            raise VaryingDimTooSmall(f"varying dimensions must be >= 2, got {varying_dims}")
        if any(d < 1 for d in fixed_dims):
            raise InvalidShape(f"fixed dimensions must be >= 1, got {fixed_dims}")
        return super().__new__(cls, tuple(sorted(fixed_dims)), tuple(sorted(varying_dims)))

    @property
    def total_g(self) -> int:
        return sum(self.fixed_dims) + sum(self.varying_dims)


class MinCodim(namedtuple("MinCodim", "codim witness closed_form agrees notes", defaults=((),))):
    """Minimum codimension over a stratum family, with audit trail.

    ``closed_form`` is the published formula's value where one applies;
    ``agrees`` records whether the computed minimum matches it.
    """

    __slots__ = ()


def _check_two_paths(closed: int, raw: int, label: str) -> int:
    if closed != raw:
        raise Disagreement(f"codimension paths disagree for {label}", closed=closed, raw=raw)
    return closed


# Each stratum codimension depends only on the dimensions involved, never
# on the factor positions, so the per-family minima below are memoized by
# those dimensions and the two-path check runs once per distinct stratum.
# An absorption key holds a single stratum, so its codimension is memoized
# directly.


def _offdiag_codim(gi: int, gj: int, d: int) -> int:
    closed = half_exact(d * (2 * gi + 2 * gj + 1 - 3 * d))
    raw = siegel_dim(gi) + siegel_dim(gj) - siegel_dim(gi - d) - siegel_dim(d) - siegel_dim(gj - d)
    return _check_two_paths(closed, raw, f"b_offdiag of dimensions {gi}, {gj} at d = {d}")


def _diag_codim(gi: int, d: int) -> int:
    closed = half_exact(d * (4 * gi + 1 - 5 * d))
    raw = siegel_dim(gi) - siegel_dim(gi - 2 * d) - siegel_dim(d)
    return _check_two_paths(closed, raw, f"b_diag of dimension {gi} at d = {d}")


@lru_cache(maxsize=None)
def _absorb_codim(gi: int, gc: int) -> int:
    """Codimension of a fixed factor of dimension gc <= gi absorbed by a
    varying factor of dimension gi."""
    closed = half_exact(gc * (2 * gi + 1 - gc))
    raw = siegel_dim(gi) - siegel_dim(gi - gc)
    return _check_two_paths(closed, raw, f"c of dimensions {gi}, {gc}")


@lru_cache(maxsize=None)
def _offdiag_min(gi: int, gj: int) -> tuple[int, int]:
    """Smallest ``(codim, d)`` of ``b_offdiag`` on factors of dimensions gi, gj."""
    return min((_offdiag_codim(gi, gj, d), d) for d in range(1, min(gi, gj) + 1))


@lru_cache(maxsize=None)
def _diag_min(gi: int) -> tuple[int, int]:
    """Smallest ``(codim, d)`` of ``b_diag`` on a factor of dimension gi >= 2."""
    return min((_diag_codim(gi, d), d) for d in range(1, gi // 2 + 1))


def strata_of_shape(shape: DecompositionShape) -> tuple[Stratum, ...]:
    """Strata for a varying product with a fixed product in front.

    Factors are indexed 1..s in ascending dimension order.  Codimensions
    are computed both by the closed forms above and by alternating sums of
    Siegel dimensions; the two paths must agree exactly.  The fixed factors
    contribute the absorption strata ``c(i, j)``; pairs with g_c > g_v are
    empty and omitted.  This full enumeration is the independent check of
    the memoized minimum in ``mdec_codim_fixedpart``.
    """
    dims = shape.varying_dims
    ambient = sum(siegel_dim(d) for d in dims)
    out: list[Stratum] = []
    for i, gi in enumerate(dims, start=1):
        for j in range(i + 1, len(dims) + 1):
            gj = dims[j - 1]
            for d in range(1, min(gi, gj) + 1):
                out.append(Stratum("b_offdiag", (i, j, d), ambient, ambient - _offdiag_codim(gi, gj, d)))
        for d in range(1, gi // 2 + 1):
            out.append(Stratum("b_diag", (i, d), ambient, ambient - _diag_codim(gi, d)))
        for j, gc in enumerate(shape.fixed_dims, start=1):
            if gc <= gi:
                out.append(Stratum("c", (i, j), ambient, ambient - _absorb_codim(gi, gc)))
    out.sort(key=Stratum.sort_key)
    return tuple(out)


def fixedpart_closed_form(shape: DecompositionShape) -> int | None:
    """Published minimum for a shape, or None where it is not asserted.

    The formula min(2g_v1 - 2, h(g_c1), h(g_cr)) with
    h(x) = x(2g_v1 + 1 - x)/2 presumes every absorption stratum is
    realizable, i.e. max(fixed) <= min(varying).
    """
    gv1 = shape.varying_dims[0]
    if not shape.fixed_dims:
        return 2 * gv1 - 2
    if shape.fixed_dims[-1] > gv1:
        return None
    gc1, gcr = shape.fixed_dims[0], shape.fixed_dims[-1]
    return min(
        2 * gv1 - 2,
        half_exact(gc1 * (2 * gv1 + 1 - gc1)),
        half_exact(gcr * (2 * gv1 + 1 - gcr)),
    )


def mdec_codim_fixedpart(shape: DecompositionShape) -> MinCodim:
    """Minimal codimension of the repeated-factor locus for a shape.

    The witness is the least stratum by ``Stratum.sort_key``, taken over
    the memoized minimum of each family and factor pair; it must be the
    first stratum of ``strata_of_shape``, which the ``strata`` command and
    the tests check.  Whenever all fixed dimensions are at most all varying
    dimensions the minimum must match the closed form; otherwise only the
    computed minimum stands and the exclusion is noted.  In every case the
    minimum is at least the smallest varying dimension.
    """
    dims = shape.varying_dims
    candidates: list[tuple[int, str, tuple[int, ...]]] = []
    excluded: list[tuple[int, int]] = []
    for i, gi in enumerate(dims, start=1):
        for j in range(i + 1, len(dims) + 1):
            codim, d = _offdiag_min(gi, dims[j - 1])
            candidates.append((codim, "b_offdiag", (i, j, d)))
        codim, d = _diag_min(gi)
        candidates.append((codim, "b_diag", (i, d)))
        for j, gc in enumerate(shape.fixed_dims, start=1):
            if gc <= gi:
                candidates.append((_absorb_codim(gi, gc), "c", (i, j)))
            else:
                excluded.append((i, j))
    codim, kind, params = min(candidates)
    ambient = sum(siegel_dim(d) for d in dims)
    witness = Stratum(kind, params, ambient, ambient - codim)
    gv1 = dims[0]
    if codim < gv1:
        raise Disagreement(f"fixed-part minimum below its bound for {shape}", minimum=codim, bound=gv1)
    # excluded pairs exist exactly where the closed form is not asserted
    closed = None if excluded else fixedpart_closed_form(shape)
    agrees = closed is None or codim == closed
    notes: list[str] = []
    if excluded:
        notes.append(
            "closed form not asserted: absorption strata "
            + ", ".join(f"c{p}" for p in excluded)
            + " are empty (fixed dimension exceeds a varying dimension)"
        )
    elif not agrees:
        notes.append(
            f"enumerated minimum {codim} differs from closed form {closed}"
        )
    return MinCodim(codim, witness, closed, agrees, tuple(notes))


def strata_of_unitary(p: int, q: int) -> tuple[Stratum, ...]:
    """Strata of the repeated-factor locus in a unitary moduli space.

    unitary_cm dimensions are cross-checked against the expanded form
    pq - pl - kq + 5kl/4.  unitary_noncm dimensions use the raw sum
    k(k+1)/2 + (p-k)(q-k) only: the half-weight closed form
    pq - k(p+q - 3k/2 - 1/2)/2 disagrees with that sum (its correction
    term is off by a factor of two) and is not used.
    """
    if p < 1 or q < 1:
        raise InvalidShape(f"unitary parameters must be >= 1, got ({p}, {q})")
    ambient = unitary_dim(p, q)
    out: list[Stratum] = []
    for k in range(0, p + 1, 2):
        for l in range(0, q + 1, 2):
            if k + l < 2:
                continue
            raw = unitary_dim(k // 2, l // 2) + unitary_dim(p - k, q - l)
            closed = ambient - p * l - k * q + quarter_exact(5 * k * l)
            if closed != raw:
                raise Disagreement(f"cm stratum paths disagree at ({k},{l})", closed=closed, raw=raw)
            out.append(Stratum("unitary_cm", (k, l), ambient, raw))
    for k in range(1, min(p, q) + 1):
        raw = siegel_dim(k) + unitary_dim(p - k, q - k)
        out.append(Stratum("unitary_noncm", (k,), ambient, raw))
    out.sort(key=Stratum.sort_key)
    return tuple(out)


NONCM_DISPLAY_NOTE = (
    "unitary_noncm dimensions are raw sums dim A_k + dim Z(p-k, q-k); the "
    "half-weight closed form pq - k(p+q - 3k/2 - 1/2)/2 disagrees with that "
    "sum by a factor of two in its correction term and is not used"
)


def unitary_closed_form(p: int, q: int) -> int | None:
    """min(2p, p+q-2, 2q); only asserted once p + q >= 3."""
    if p + q < 3:
        return None
    return min(2 * p, p + q - 2, 2 * q)


def mdec_codim_unitary(p: int, q: int, strata: tuple[Stratum, ...]) -> MinCodim:
    """Minimal codimension of the repeated-factor locus in unitary moduli.

    The minimum is taken over ``strata``, as ``strata_of_unitary(p, q)``
    returns them, and compared with min(2p, p+q-2, 2q); at (p, q) = (2, 2)
    and (3, 3) the unitary_noncm stratum with k = p = q lies strictly deeper
    than the closed form and the disagreement is reported in the result.
    """
    witness = min(strata, key=Stratum.sort_key)
    closed = unitary_closed_form(p, q)
    notes: list[str] = []
    agrees = closed is None or witness.codim == closed
    if not agrees:
        notes.append(
            f"enumerated minimum {witness.codim} is below the closed form "
            f"min(2p, p+q-2, 2q) = {closed}; witness {witness.label} has "
            f"dimension {witness.stratum_dim} in ambient dimension {witness.ambient_dim}"
        )
    cm = [s for s in strata if s.kind == "unitary_cm"]
    if cm:
        top = max(cm, key=lambda s: (s.stratum_dim, s.params))
        low = [s for s in cm if sum(s.params) == 2]
        if low and top.stratum_dim > max(s.stratum_dim for s in low):
            notes.append(
                f"largest unitary_cm stratum is {top.label} with k+l > 2 "
                f"(dimension {top.stratum_dim}); the k+l = 2 strata are smaller"
            )
    return MinCodim(witness.codim, witness, closed, agrees, tuple(notes))

