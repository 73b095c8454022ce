"""Planner: budgets, monodromy, realization, curve-family feasibility."""

import itertools

import pytest

from moduli_strata.errors import DimensionCalculusError
from moduli_strata.moduli import GroupExpr, SpAtom, SUFormAtom
from moduli_strata.planner import (
    SymplecticFamily,
    UnitaryFamily,
    derived_mt,
    kodaira_budget,
    plan_family,
    realize_group,
)


class TestValidate:
    def test_valid(self):
        assert SymplecticFamily((2, 1), (2,)).fixed_dims == (1, 2)
        assert UnitaryFamily(2, 2, 3).total_g == 7

    def test_violations(self):
        with pytest.raises(DimensionCalculusError, match=r"varying dimensions must be >= 2, got \(1, 3\)"):
            SymplecticFamily((), (1, 3))
        with pytest.raises(DimensionCalculusError, match=r"p\+q=3 < 4"):
            UnitaryFamily(1, 1, 2)
        with pytest.raises(DimensionCalculusError, match=r"unitary parameters must be >= 1, got \(0, 4\)"):
            UnitaryFamily(1, 0, 4)
        with pytest.raises(DimensionCalculusError, match="elliptic factor count -1 < 0"):
            UnitaryFamily(-1, 2, 3)
        with pytest.raises(DimensionCalculusError, match=r"fixed dimensions must be >= 1, got \(0,\)"):
            SymplecticFamily((0,), (2,))
        with pytest.raises(DimensionCalculusError, match="at least one varying factor is required"):
            SymplecticFamily((), ())

    def test_plan_rejects_invalid(self):
        with pytest.raises(DimensionCalculusError, match=r"varying dimensions must be >= 2, got \(1, 3\)"):
            plan_family(SymplecticFamily((), (1, 3)))


class TestPlanSymplectic:
    def test_fixed1_varying3(self):
        r = plan_family(SymplecticFamily((1,), (3,)))
        assert r.total_g == 4
        assert r.d_max == 2
        assert r.monodromy.label == "Sp(6)" and r.monodromy_dim == 21
        assert r.mdec.codim == 3 and r.boundary.codim == 3

    def test_fixed1_varying2(self):
        r = plan_family(SymplecticFamily((1,), (2,)))
        assert r.d_max == 1
        assert r.monodromy.label == "Sp(4)" and r.monodromy_dim == 10

    def test_varying22(self):
        r = plan_family(SymplecticFamily((), (2, 2)))
        assert r.total_g == 4 and r.d_max == 1
        assert r.monodromy_dim == 20

    def test_budget_is_min_varying_minus_one(self):
        for fixed_len in range(0, 3):
            for fixed in itertools.combinations_with_replacement(range(1, 5), fixed_len):
                for varying in itertools.combinations_with_replacement(range(2, 6), 2):
                    r = plan_family(SymplecticFamily(fixed, varying))
                    assert r.d_max == min(varying) - 1
                    assert r.feasible == (r.d_max >= 1)
                    assert r.monodromy_dim == derived_mt(r.spec).dim

    def test_single_factor_has_no_margin(self):
        r = plan_family(SymplecticFamily((), (3,)))
        assert r.hecke_margin is None
        assert r.d_max == 2

    def test_margin_is_at_least_four(self):
        r = plan_family(SymplecticFamily((1, 1), (2, 3)))
        assert r.hecke_margin is not None and r.hecke_margin >= 4


class TestPlanUnitary:
    def test_values_follow_enumeration(self):
        r = plan_family(UnitaryFamily(1, 2, 3))
        assert r.total_g == 6
        assert r.d_max == 2  # min(4, 3, 6) - 1, enumeration agrees
        assert r.monodromy.label == "SU(2,3)" and r.monodromy_dim == 24
        assert r.boundary.codim == 4 and not r.boundary.exact

    def test_divergent_cases_report_true_budget(self):
        r = plan_family(UnitaryFamily(1, 2, 2))
        assert r.monodromy_dim == 15
        assert r.d_max == 0 and not r.feasible
        assert not r.mdec.agrees
        assert any("below the closed-form bound" in n for n in r.notes)
        r = plan_family(UnitaryFamily(1, 3, 3))
        assert r.d_max == 2 and r.feasible

    def test_margin_present_with_elliptic_factors(self):
        r = plan_family(UnitaryFamily(2, 2, 3))
        assert r.hecke_margin is not None and r.hecke_margin >= 4
        assert plan_family(UnitaryFamily(0, 2, 3)).hecke_margin is None

    def test_budget_sweep(self):
        # d_max = min(2p, p+q-2, 2q) - 1 wherever the enumeration agrees
        # with the closed form; at (2,2) and (3,3) it is one lower.
        for p in range(1, 7):
            for q in range(1, 7):
                if p + q < 4:
                    continue
                r = plan_family(UnitaryFamily(1, p, q))
                closed = min(2 * p, p + q - 2, 2 * q) - 1
                if (p, q) in ((2, 2), (3, 3)):
                    assert r.d_max == closed - 1
                else:
                    assert r.d_max == closed
                assert r.boundary.codim == p + q - 1


class TestDerivedMT:
    def test_examples(self):
        assert derived_mt(SymplecticFamily((), (2,))).label == "Sp(4)"
        expr = derived_mt(SymplecticFamily((), (2, 3)))
        assert expr.label == "Sp(4) x Sp(6)" and expr.dim == 31
        assert derived_mt(UnitaryFamily(1, 3, 2)).dim == 24

    def test_fixed_factors_contribute_nothing(self):
        a = derived_mt(SymplecticFamily((), (2, 3)))
        b = derived_mt(SymplecticFamily((1, 4), (2, 3)))
        assert a == b


class TestRealize:
    def test_examples(self):
        assert realize_group(GroupExpr([SpAtom(2)]), 3) == SymplecticFamily((1,), (2,))
        assert realize_group(GroupExpr([SpAtom(2), SpAtom(3)]), 5) == SymplecticFamily((), (2, 3))
        assert realize_group(GroupExpr([SUFormAtom(2, 2)]), 6) == UnitaryFamily(2, 2, 2)

    def test_errors(self):
        with pytest.raises(DimensionCalculusError, match=r"varying dimensions must be >= 2, got \(1,\)"):
            realize_group(GroupExpr([SpAtom(1)]), 5)
        with pytest.raises(DimensionCalculusError, match="target needs total dimension >= 6, got g' = 5"):
            realize_group(GroupExpr([SpAtom(3), SpAtom(3)]), 5)
        with pytest.raises(DimensionCalculusError, match=r"need g' >= p\+q\+1 = 5, got 4"):
            realize_group(GroupExpr([SUFormAtom(2, 2)]), 4)
        with pytest.raises(DimensionCalculusError, match=r"p\+q=3 < 4"):
            realize_group(GroupExpr([SUFormAtom(1, 2)]), 9)  # UnitaryFamily's p+q >= 4
        with pytest.raises(DimensionCalculusError, match="target must be a product of Sp atoms or a single SU-form"):
            realize_group(GroupExpr([SpAtom(2), SUFormAtom(2, 2)]), 9)

    def test_round_trip_box(self):
        for n_atoms in (1, 2, 3):
            for ranks in itertools.combinations_with_replacement(range(2, 6), n_atoms):
                target = GroupExpr(SpAtom(r) for r in ranks)
                for g_prime in range(sum(ranks), 16):
                    spec = realize_group(target, g_prime)
                    report = plan_family(spec)
                    assert report.monodromy == target
                    assert report.d_max == min(ranks) - 1
                    assert report.total_g == g_prime

    def test_unitary_round_trip(self):
        for p, q in [(2, 2), (2, 3), (3, 3), (4, 2)]:
            for g_prime in range(p + q + 1, 12):
                spec = realize_group(GroupExpr([SUFormAtom(p, q)]), g_prime)
                assert spec.elliptic_count == g_prime - (p + q)
                assert plan_family(spec).monodromy == GroupExpr([SUFormAtom(p, q)])


class TestKodaira:
    def test_genus3(self):
        k = kodaira_budget(3)
        assert (k.torelli_codim, k.plan.mdec.codim, k.plan.boundary.codim) == (0, 2, 2)
        assert k.post_torelli_budget == 2 and k.feasible
        assert k.plan.monodromy.label == "Sp(4)"

    def test_genus4_chain(self):
        k = kodaira_budget(4)
        assert k.plan.mdec.codim == 3
        assert k.torelli_codim == 1
        assert k.plan.boundary.codim == 3
        assert k.post_torelli_budget == 2 and k.feasible
        assert k.plan.monodromy.label == "Sp(6)"

    def test_genus5_infeasible(self):
        k = kodaira_budget(5)
        assert (k.torelli_codim, k.plan.mdec.codim, k.plan.boundary.codim) == (3, 4, 4)
        assert k.post_torelli_budget == 1 and not k.feasible

    @pytest.mark.parametrize("genus", range(5, 11))
    def test_higher_genus_infeasible(self, genus):
        assert not kodaira_budget(genus).feasible

    def test_genus_too_small(self):
        with pytest.raises(DimensionCalculusError, match="fiber genus must be >= 3, got 2"):
            kodaira_budget(2)

