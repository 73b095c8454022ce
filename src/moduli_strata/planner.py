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

from .errors import (
    Disagreement,
    GenusTooSmall,
    SpecInvalid,
    TargetTooLarge,
    UnitaryBoundViolated,
    UnrealizableTarget,
)
from .hecke_groups import gamma_gamma_codim
from .moduli import (
    GroupExpr,
    SpAtom,
    SUFormAtom,
    siegel_boundary_codim,
    siegel_dim,
    torelli_codim,
    unitary_boundary_codim,
    unitary_dim,
)
from .strata import (
    DecompositionShape,
    mdec_codim_fixedpart,
    mdec_codim_unitary,
    strata_of_unitary,
    unitary_closed_form,
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
            raise SpecInvalid(f"elliptic factor count {elliptic_count} < 0")
        if p < 1 or q < 1:
            raise SpecInvalid(f"unitary parameters ({p},{q}) must be >= 1")
        if p + q < 4:
            raise SpecInvalid(f"p+q={p + q} < 4")
        return super().__new__(cls, elliptic_count, p, q)

    @property
    def total_g(self) -> int:
        return self.elliptic_count + self.p + self.q


FamilySpec = Union[SymplecticFamily, UnitaryFamily]


def derived_mt(spec: FamilySpec) -> GroupExpr:
    """Monodromy bound: the derived group of the generic Hodge-theoretic
    symmetry group.  Fixed factors are monodromy-invariant and drop out."""
    if isinstance(spec, SymplecticFamily):
        return GroupExpr.of(SpAtom(d) for d in spec.varying_dims)
    return GroupExpr.of([SUFormAtom(spec.p, spec.q)])


class PlanReport(
    namedtuple(
        "PlanReport",
        "spec total_g ambient_dim mdec boundary budget d_max monodromy monodromy_dim hecke_margin feasible notes",
        defaults=((),),
    )
):
    """Everything the budget arithmetic produces for one family spec."""

    __slots__ = ()


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
        ambient = sum(siegel_dim(d) for d in spec.varying_dims)
        mdec = mdec_codim_fixedpart(spec)
        # each factor's boundary codimension is exactly its dimension
        boundary = siegel_boundary_codim(spec.varying_dims[0])
        if spec.fixed_dims:
            notes.append(
                "fixed factors are assumed pairwise non-isogenous, non-isogenous to "
                "every varying factor, and (for the varying factors) general in moduli"
            )
    else:
        sizes = (1,) * spec.elliptic_count + (spec.p + spec.q,)
        ambient = unitary_dim(spec.p, spec.q)
        mdec = mdec_codim_unitary(spec.p, spec.q, strata_of_unitary(spec.p, spec.q))
        boundary = unitary_boundary_codim(spec.p, spec.q)
        notes.append(
            "fixed elliptic factors are assumed pairwise non-isogenous and without "
            "extra endomorphisms; the varying factor is assumed general in its moduli"
        )
    budget = min(mdec.codim, boundary.codim)
    d_max = budget - 1
    monodromy = derived_mt(spec)
    notes.extend(mdec.notes)
    if isinstance(spec, SymplecticFamily):
        expected = min(spec.varying_dims) - 1
        if d_max != expected:
            raise Disagreement(f"symplectic budget for {spec}", d_max=d_max, min_varying_minus_one=expected)
    else:
        notes.append(
            f"{spec.elliptic_count} fixed elliptic factor(s) contribute no strata; minimum equals the r = 0 case"
        )
        closed = unitary_closed_form(spec.p, spec.q)
        if closed is not None and d_max != closed - 1:
            notes.append(
                f"d_max {d_max} is below the closed-form bound {closed - 1}; "
                "the stratum enumeration is authoritative"
            )
    if len(sizes) < 2:
        margin = None
        notes.append("decomposition has a single factor; no translate margin to compute")
    else:
        margin = gamma_gamma_codim(sizes)
    return PlanReport(
        spec=spec,
        total_g=spec.total_g,
        ambient_dim=ambient,
        mdec=mdec,
        boundary=boundary,
        budget=budget,
        d_max=d_max,
        monodromy=monodromy,
        monodromy_dim=monodromy.dim,
        hecke_margin=margin,
        feasible=d_max >= 1,
        notes=tuple(notes),
    )


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
            raise TargetTooLarge(
                f"target needs total dimension >= {sum(ranks)}, got g' = {g_prime}"
            )
        pad = g_prime - sum(ranks)
        return SymplecticFamily(fixed_dims=(1,) * pad, varying_dims=ranks)
    if len(atoms) == 1 and isinstance(atoms[0], SUFormAtom):
        p, q = atoms[0].p, atoms[0].q
        # the family's own rules first, so a p+q = 3 target is not sent to a larger g'
        family = UnitaryFamily(elliptic_count=max(g_prime - (p + q), 0), p=p, q=q)
        if family.elliptic_count < 1:
            raise UnitaryBoundViolated(f"need g' >= p+q+1 = {p + q + 1}, got {g_prime}")
        return family
    raise UnrealizableTarget(
        "target must be a product of Sp atoms or a single SU-form atom"
    )


class KodairaReport(
    namedtuple(
        "KodairaReport",
        "fiber_genus spec mdec boundary torelli_codim post_torelli_budget feasible monodromy notes",
        defaults=((),),
    )
):
    """Budget chain for a complete one-dimensional family of curves.

    The fiber-genus-h construction works inside the locus of products of a
    fixed elliptic curve with varying (h-1)-folds, then descends through
    the Jacobian locus; completeness needs two units of budget left after
    paying the Torelli codimension.
    """

    __slots__ = ()


def kodaira_budget(fiber_genus: int) -> KodairaReport:
    """Feasibility of the complete-curve-family construction at a genus.

    Plans the spec {elliptic} x (moduli of (genus-1)-folds); the method
    needs post_torelli_budget = plan budget - torelli >= 2.
    """
    if fiber_genus < 3:
        raise GenusTooSmall(f"fiber genus must be >= 3, got {fiber_genus}")
    plan = plan_family(SymplecticFamily(fixed_dims=(1,), varying_dims=(fiber_genus - 1,)))
    torelli = torelli_codim(fiber_genus)
    budget = plan.budget - torelli
    notes = (
        "ramification of the period map over the hyperelliptic locus is "
        "resolved by a branched double cover of the base",
    )
    return KodairaReport(
        fiber_genus=fiber_genus,
        spec=plan.spec,
        mdec=plan.mdec,
        boundary=plan.boundary,
        torelli_codim=torelli,
        post_torelli_budget=budget,
        feasible=budget >= 2,
        monodromy=plan.monodromy,
        notes=notes,
    )
