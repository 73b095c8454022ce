"""Stratum enumeration versus closed-form minima."""

from itertools import combinations_with_replacement

import pytest

from moduli_strata.errors import DimensionCalculusError
from moduli_strata.planner import UnitaryFamily, plan_family
from moduli_strata.strata import (
    DecompositionShape,
    Stratum,
    fixedpart_closed_form,
    mdec_codim_fixedpart,
    mdec_codim_unitary,
    strata_of_shape,
    strata_of_unitary,
    unitary_closed_form,
)


def by_kind_params(strata):
    return {(s.kind, s.params): s for s in strata}


def product_min(dims):
    return mdec_codim_fixedpart(DecompositionShape((), dims))


def unitary_min(p, q):
    return mdec_codim_unitary(p, q, strata_of_unitary(p, q))


class TestProductStrata:
    def test_two_three(self):
        s = by_kind_params(strata_of_shape(DecompositionShape((), (2, 3))))
        assert s[("b_diag", (1, 1))].codim == 2
        assert s[("b_diag", (2, 1))].codim == 4
        assert s[("b_offdiag", (1, 2, 1))].codim == 4
        assert s[("b_offdiag", (1, 2, 2))].codim == 5
        assert len(s) == 4

    def test_single_factor(self):
        strata = strata_of_shape(DecompositionShape((), (2,)))
        assert len(strata) == 1
        assert strata[0].kind == "b_diag" and strata[0].codim == 2

    def test_rejects_small_dims(self):
        with pytest.raises(DimensionCalculusError, match=r"varying dimensions must be >= 2, got \(1, 3\)"):
            strata_of_shape(DecompositionShape((), (1, 3)))
        with pytest.raises(DimensionCalculusError, match="at least one varying factor is required"):
            strata_of_shape(DecompositionShape((), ()))

    def test_minimum_examples(self):
        assert product_min((2, 3)).codim == 2
        assert product_min((3, 3)).codim == 4
        assert product_min((2, 2, 2)).codim == 2
        r = product_min((3, 3))
        assert r.witness.kind == "b_diag" and r.witness.params == (1, 1)

    @pytest.mark.parametrize("length", [1, 2, 3, 4])
    def test_closed_form_over_box(self, length):
        for dims in combinations_with_replacement(range(2, 7), length):
            r = product_min(dims)
            assert r.codim == 2 * dims[0] - 2
            assert r.agrees


class TestFixedPartStrata:
    def test_shape_validation(self):
        with pytest.raises(DimensionCalculusError, match="at least one varying factor is required"):
            DecompositionShape((1,), ())
        with pytest.raises(DimensionCalculusError, match=r"fixed dimensions must be >= 1, got \(0,\)"):
            DecompositionShape((0,), (2,))
        with pytest.raises(DimensionCalculusError, match=r"varying dimensions must be >= 2, got \(1,\)"):
            DecompositionShape((), (1,))

    def test_examples(self):
        assert mdec_codim_fixedpart(DecompositionShape((1,), (3,))).codim == 3
        assert mdec_codim_fixedpart(DecompositionShape((1,), (2,))).codim == 2
        assert mdec_codim_fixedpart(DecompositionShape((2,), (3,))).codim == 4

    def test_absorption_strata_present(self):
        s = by_kind_params(strata_of_shape(DecompositionShape((1, 2), (3, 4))))
        assert s[("c", (1, 1))].codim == 3  # fixed 1 into varying 3
        assert s[("c", (1, 2))].codim == 5  # fixed 2 into varying 3
        assert s[("c", (2, 1))].codim == 4  # fixed 1 into varying 4
        assert s[("c", (2, 2))].codim == 7  # fixed 2 into varying 4

    def test_unrealizable_absorption_excluded(self):
        strata = strata_of_shape(DecompositionShape((5,), (2,)))
        assert all(s.kind != "c" for s in strata)
        r = mdec_codim_fixedpart(DecompositionShape((5,), (2,)))
        assert r.codim == 2 and r.closed_form is None and r.agrees
        assert any("empty" in n for n in r.notes)

    def test_closed_form_in_regime(self):
        for fixed_len in range(0, 3):
            for fixed in combinations_with_replacement(range(1, 7), fixed_len):
                for varying in combinations_with_replacement(range(2, 7), 2):
                    shape = DecompositionShape(fixed, varying)
                    r = mdec_codim_fixedpart(shape)
                    closed = fixedpart_closed_form(shape)
                    if closed is not None:
                        assert r.codim == closed and r.agrees
                    assert r.codim >= varying[0]

    def test_memoized_witness_is_the_enumerated_minimum(self):
        # every shape of the default L3.2 box: fixed dims 1..6 and varying
        # dims 2..6, at most three factors each
        fixed_choices = [()] + [f for n in (1, 2, 3) for f in combinations_with_replacement(range(1, 7), n)]
        varying_choices = [v for n in (1, 2, 3) for v in combinations_with_replacement(range(2, 7), n)]
        assert len(fixed_choices) * len(varying_choices) == 4620
        for fixed in fixed_choices:
            for varying in varying_choices:
                shape = DecompositionShape(fixed, varying)
                enumerated = min(strata_of_shape(shape), key=Stratum.sort_key)
                assert mdec_codim_fixedpart(shape).witness == enumerated, shape

    def test_adding_fixed_factor_never_increases(self):
        for varying in combinations_with_replacement(range(2, 7), 2):
            base = mdec_codim_fixedpart(DecompositionShape((), varying)).codim
            for extra in range(1, 7):
                grown = mdec_codim_fixedpart(DecompositionShape((extra,), varying)).codim
                assert grown <= base


class TestUnitaryStrata:
    def test_two_two(self):
        s = by_kind_params(strata_of_unitary(2, 2))
        assert s[("unitary_noncm", (1,))].stratum_dim == 2
        assert s[("unitary_noncm", (1,))].codim == 2
        assert s[("unitary_cm", (2, 0))].stratum_dim == 0
        assert s[("unitary_cm", (2, 0))].codim == 4
        assert s[("unitary_cm", (2, 2))].stratum_dim == 1
        assert s[("unitary_cm", (2, 2))].codim == 3
        # the fully-degenerate repeated factor: a whole lower moduli inside
        assert s[("unitary_noncm", (2,))].stratum_dim == 3
        assert s[("unitary_noncm", (2,))].codim == 1

    def test_three_one(self):
        s = by_kind_params(strata_of_unitary(3, 1))
        assert s[("unitary_cm", (2, 0))].stratum_dim == 1
        assert s[("unitary_cm", (2, 0))].codim == 2
        assert s[("unitary_noncm", (1,))].stratum_dim == 1
        assert s[("unitary_noncm", (1,))].codim == 2

    def test_one_one_degenerate(self):
        s = by_kind_params(strata_of_unitary(1, 1))
        assert s[("unitary_noncm", (1,))].stratum_dim == 1
        assert s[("unitary_noncm", (1,))].codim == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(DimensionCalculusError, match=r"unitary parameters must be >= 1, got \(0, 2\)"):
            strata_of_unitary(0, 2)

    def test_minimum_examples(self):
        assert unitary_min(2, 1).codim == 1
        assert unitary_min(2, 3).codim == 3
        assert unitary_min(4, 4).codim == 6

    def test_closed_form_agreement_off_diagonal(self):
        for p in range(1, 9):
            for q in range(1, 9):
                if p + q < 3 or (p == q and p in (2, 3)):
                    continue
                r = unitary_min(p, q)
                assert r.agrees and r.codim == unitary_closed_form(p, q)

    def test_known_divergences_pinned(self):
        r22 = unitary_min(2, 2)
        assert (r22.codim, r22.closed_form, r22.agrees) == (1, 2, False)
        assert r22.witness.kind == "unitary_noncm" and r22.witness.params == (2,)
        r33 = unitary_min(3, 3)
        assert (r33.codim, r33.closed_form, r33.agrees) == (3, 4, False)
        assert r33.witness.params == (3,)
        assert any("below the closed form" in n for n in r22.notes)

    def test_cm_dominance_note(self):
        # at (2, 2) the largest cm stratum has k+l = 4, not 2
        notes = unitary_min(2, 2).notes
        assert any("k+l > 2" in n for n in notes)

    def test_fixed_elliptic_part_is_inert(self):
        for r in range(0, 4):
            for p, q in [(2, 2), (2, 3), (3, 3), (4, 1)]:
                plan = plan_family(UnitaryFamily(r, p, q))
                b = unitary_min(p, q)
                assert (plan.mdec.codim, plan.mdec.closed_form, plan.mdec.agrees) == (b.codim, b.closed_form, b.agrees)
                note = f"{r} fixed elliptic factor(s) contribute no strata; minimum equals the r = 0 case"
                # after the assumption note and the unitary minimum's own notes
                assert plan.notes[1 + len(b.notes)] == note


class TestTwoPathConsistency:
    """Raw dimension sums define every stratum; closed forms must match."""

    def test_product_codims_both_paths(self):
        # strata_of_shape raises internally on any mismatch; a broad
        # sweep exercises every parameter branch.
        for dims in combinations_with_replacement(range(2, 8), 3):
            strata_of_shape(DecompositionShape((), dims))

    def test_unitary_codims_both_paths(self):
        for p in range(1, 9):
            for q in range(1, 9):
                strata_of_unitary(p, q)
