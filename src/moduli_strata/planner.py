"""Family planning: dimension budgets, monodromy groups, feasibility.

A family specification fixes a product decomposition (a fixed part that
stays constant and a varying part that moves in moduli).  The planner turns
it into a budget: a complete base of dimension d exists when both the
repeated-factor locus and the compactification boundary have codimension at
least d + 1 in the ambient family locus, so

    d_max = min(mdec codim, boundary codim) - 1.

The connected monodromy group of the resulting family is the product of
full symplectic groups of the varying factors (symplectic flavor) or a
rational form of SU(p, q) (unitary flavor); fixed factors contribute
nothing.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Union

from .errors import DimensionCalculusError, agree
from .hecke_groups import gamma_gamma_codim
from .moduli import (
    GroupExpr,
    SpAtom,
    SUFormAtom,
    siegel_boundary_codim,
    torelli_codim,
    unitary_boundary_codim,
)
from .strata import (
    DecompositionShape,
    mdec_codim_fixedpart,
    mdec_codim_unitary,
    strata_of_unitary,
)


#: Fixed abelian factors plus varying full-moduli factors; the shape's
#: constructor enforces the symplectic rules.
SymplecticFamily = DecompositionShape


class UnitaryFamily(namedtuple("UnitaryFamily", "elliptic_count p q")):
    """Fixed non-CM elliptic factors plus one varying factor with
    imaginary quadratic multiplication of type (p, q)."""

    __slots__ = ()

    def __new__(cls, elliptic_count: int, p: int, q: int) -> UnitaryFamily:
        if elliptic_count < 0:
            raise DimensionCalculusError(f"elliptic factor count {elliptic_count} < 0")
        SUFormAtom(p, q)  # the unitary rule p, q >= 1
        if p + q < 4:
            raise DimensionCalculusError(f"p+q={p + q} < 4")
        return super().__new__(cls, elliptic_count, p, q)

    @property
    def total_g(self) -> int:
        return self.elliptic_count + self.p + self.q


FamilySpec = Union[SymplecticFamily, UnitaryFamily]


def derived_mt(spec: FamilySpec) -> GroupExpr:
    """Monodromy bound: the derived group of the generic Hodge-theoretic
    symmetry group.  Fixed factors are monodromy-invariant and drop out."""
    if isinstance(spec, SymplecticFamily):
        return GroupExpr(SpAtom(d) for d in spec.varying_dims)
    return GroupExpr([SUFormAtom(spec.p, spec.q)])


class PlanReport(namedtuple("PlanReport", "spec mdec boundary monodromy hecke_margin notes", defaults=((),))):
    """What ``plan_family`` computes for one family spec; budget, d_max and feasibility derive from it."""

    __slots__ = ()

    @property
    def total_g(self) -> int:
        return self.spec.total_g

    @property
    def ambient_dim(self) -> int:
        return self.mdec.witness.ambient_dim

    @property
    def budget(self) -> int:
        return min(self.mdec.codim, self.boundary.codim)

    @property
    def d_max(self) -> int:
        return self.budget - 1

    @property
    def monodromy_dim(self) -> int:
        return self.monodromy.dim

    @property
    def feasible(self) -> bool:
        return self.d_max >= 1


def plan_family(spec: FamilySpec) -> PlanReport:
    """Compute the full dimension budget and monodromy for a family spec.

    The repeated-factor codimension comes from per-family stratum minima
    memoized by factor dimensions (symplectic) or from the stratum
    enumeration (unitary), the boundary codimension from the
    compactification rule, and the budget is their minimum; d_max =
    budget - 1.  For unitary specs where the enumeration undercuts the
    closed form min(2p, p+q-2, 2q), the computed (smaller) budget is
    reported and the divergence is noted.
    """
    notes: list[str] = []
    if isinstance(spec, SymplecticFamily):
        sizes = spec.fixed_dims + spec.varying_dims
        mdec = mdec_codim_fixedpart(spec)
        # each factor's boundary codimension is exactly its dimension
        boundary = siegel_boundary_codim(spec.varying_dims[0])
        if spec.fixed_dims:
            notes.append(
                "fixed factors are assumed pairwise non-isogenous, non-isogenous to "
                "every varying factor, and (for the varying factors) general in moduli"
            )
        notes.extend(mdec.notes)
    else:
        sizes = (1,) * spec.elliptic_count + (spec.p + spec.q,)
        mdec = mdec_codim_unitary(spec.p, spec.q, strata_of_unitary(spec.p, spec.q))
        boundary = unitary_boundary_codim(spec.p, spec.q)
        notes.append(
            "fixed elliptic factors are assumed pairwise non-isogenous and without "
            "extra endomorphisms; the varying factor is assumed general in its moduli"
        )
        notes.extend(mdec.notes)
        notes.append(
            f"{spec.elliptic_count} fixed elliptic factor(s) contribute no strata; minimum equals the r = 0 case"
        )
        # unitary_noncm(1) has codim p+q-2, below the boundary p+q-1, so the budget is mdec.codim
        if not mdec.agrees:
            notes.append(
                f"d_max {mdec.codim - 1} is below the closed-form bound {mdec.closed_form - 1}; "
                "the stratum enumeration is authoritative"
            )
    if len(sizes) < 2:
        margin = None
        notes.append("decomposition has a single factor; no translate margin to compute")
    else:
        margin = gamma_gamma_codim(sizes)
    report = PlanReport(spec, mdec, boundary, derived_mt(spec), margin, tuple(notes))
    if isinstance(spec, SymplecticFamily):
        agree(f"symplectic budget for {spec}", d_max=report.d_max, min_varying_minus_one=min(spec.varying_dims) - 1)
    return report


def realize_group(target: GroupExpr, g_prime: int) -> FamilySpec:
    """A family spec of total dimension g' whose monodromy group is target.

    Symplectic targets are padded with pairwise non-isogenous elliptic
    fixed factors of dimension 1; a unitary target must pass
    ``UnitaryFamily``'s rules (p+q >= 4) and then needs at least one such
    pad, g' >= p+q+1.
    """
    atoms = target.atoms
    if all(isinstance(a, SpAtom) for a in atoms):
        ranks = tuple(a.rank for a in atoms)  # type: ignore[union-attr]
        if g_prime < sum(ranks):
            raise DimensionCalculusError(f"target needs total dimension >= {sum(ranks)}, got g' = {g_prime}")
        pad = g_prime - sum(ranks)
        return SymplecticFamily(fixed_dims=(1,) * pad, varying_dims=ranks)
    if len(atoms) == 1 and isinstance(atoms[0], SUFormAtom):
        p, q = atoms[0].p, atoms[0].q
        # the family's own rules first, so a p+q = 3 target is not sent to a larger g'
        family = UnitaryFamily(elliptic_count=max(g_prime - (p + q), 0), p=p, q=q)
        if family.elliptic_count < 1:
            raise DimensionCalculusError(f"need g' >= p+q+1 = {p + q + 1}, got {g_prime}")
        return family
    raise DimensionCalculusError("target must be a product of Sp atoms or a single SU-form atom")


class KodairaReport(namedtuple("KodairaReport", "plan torelli_codim notes", defaults=((),))):
    """Budget chain for a complete one-dimensional family of curves.

    The fiber-genus-h construction works inside the locus of products of a
    fixed elliptic curve with varying (h-1)-folds, then descends through
    the Jacobian locus; completeness needs two units of budget left after
    paying the Torelli codimension.
    """

    __slots__ = ()

    @property
    def fiber_genus(self) -> int:
        return self.plan.total_g

    @property
    def post_torelli_budget(self) -> int:
        return self.plan.budget - self.torelli_codim

    @property
    def feasible(self) -> bool:
        return self.post_torelli_budget >= 2


def kodaira_budget(fiber_genus: int) -> KodairaReport:
    """Feasibility of the complete-curve-family construction at a genus.

    Plans the spec {elliptic} x (moduli of (genus-1)-folds); the method
    needs post_torelli_budget = plan budget - torelli >= 2.
    """
    if fiber_genus < 3:
        raise DimensionCalculusError(f"fiber genus must be >= 3, got {fiber_genus}")
    plan = plan_family(SymplecticFamily(fixed_dims=(1,), varying_dims=(fiber_genus - 1,)))
    notes = (
        "ramification of the period map over the hyperelliptic locus is "
        "resolved by a branched double cover of the base",
    )
    return KodairaReport(plan, torelli_codim(fiber_genus), notes)
