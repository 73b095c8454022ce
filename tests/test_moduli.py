"""Space dimensions, boundary codimensions, and group expression arithmetic."""

import pytest

from moduli_strata.errors import DimensionCalculusError
from moduli_strata.moduli import (
    GroupExpr,
    SpAtom,
    SUFormAtom,
    half_exact,
    siegel_boundary_codim,
    siegel_dim,
    torelli_codim,
    unitary_boundary_codim,
    unitary_dim,
)


class TestDimensions:
    def test_siegel(self):
        assert siegel_dim(4) == 10
        assert siegel_dim(0) == 0
        assert siegel_dim(1) == 1

    def test_unitary(self):
        assert unitary_dim(2, 3) == 6
        assert unitary_dim(0, 5) == 0

    def test_curves(self):
        # dim M_g = 3g - 3 is the Jacobian locus inside A_g: g(g+1)/2 - torelli
        assert siegel_dim(2) - torelli_codim(2) == 3
        assert siegel_dim(4) - torelli_codim(4) == 9

    @pytest.mark.parametrize("g", range(0, 12))
    def test_siegel_increment(self, g):
        assert siegel_dim(g + 1) - siegel_dim(g) == g + 1


class TestBoundary:
    def test_siegel_exact(self):
        b = siegel_boundary_codim(3)
        assert (b.codim, b.exact) == (3, True)
        assert siegel_boundary_codim(1).codim == 1

    def test_unitary_lower_bound(self):
        b = unitary_boundary_codim(2, 2)
        assert (b.codim, b.exact) == (3, False)

    def test_degenerate_rejected(self):
        with pytest.raises(DimensionCalculusError, match="boundary codimension needs g >= 1"):
            siegel_boundary_codim(0)
        with pytest.raises(DimensionCalculusError, match=r"unitary parameters must be >= 1, got \(0, 2\)"):
            unitary_boundary_codim(0, 2)

    @pytest.mark.parametrize("g", range(1, 10))
    def test_siegel_boundary_is_dimension_drop(self, g):
        assert siegel_boundary_codim(g).codim == siegel_dim(g) - siegel_dim(g - 1)

    @pytest.mark.parametrize("p,q", [(p, q) for p in range(1, 7) for q in range(1, 7)])
    def test_unitary_boundary_is_dimension_drop(self, p, q):
        drop = unitary_dim(p, q) - unitary_dim(p - 1, q - 1)
        assert unitary_boundary_codim(p, q).codim == drop


class TestTorelli:
    def test_values(self):
        assert torelli_codim(3) == 0
        assert torelli_codim(4) == 1
        assert torelli_codim(5) == 3

    def test_too_small(self):
        with pytest.raises(DimensionCalculusError, match="Torelli codimension needs g >= 2, got 1"):
            torelli_codim(1)


class TestGroupExpr:
    def test_atom_dims(self):
        assert SpAtom(4).dim == 36
        assert SpAtom(3).dim == 21
        assert SUFormAtom(2, 2).dim == 15

    def test_product_dim(self):
        expr = GroupExpr([SpAtom(2), SpAtom(3)])
        assert expr.dim == 31
        assert expr.label == "Sp(4) x Sp(6)"
        assert GroupExpr([SUFormAtom(2, 2)]).dim == 15

    def test_canonical_order(self):
        assert GroupExpr([SpAtom(3), SpAtom(2)]) == GroupExpr([SpAtom(2), SpAtom(3)])
        assert GroupExpr([SpAtom(3), SpAtom(2)]).label == "Sp(4) x Sp(6)"

    def test_atoms_reject_small_parameters(self):
        with pytest.raises(DimensionCalculusError, match="Sp atom rank must be >= 1, got 0"):
            SpAtom(0)
        with pytest.raises(DimensionCalculusError, match=r"unitary parameters must be >= 1, got \(0, 3\)"):
            SUFormAtom(0, 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            GroupExpr(())

    @pytest.mark.parametrize("m", range(1, 12))
    def test_rank_increment(self, m):
        assert SpAtom(m + 1).dim - SpAtom(m).dim == 4 * m + 3

    def test_half_exact_guards_parity(self):
        assert half_exact(6) == 3
        with pytest.raises(ArithmeticError):
            half_exact(7)
