"""Subgroup dimensions, product maxima, and translate margins."""

import itertools
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moduli_strata import hecke_groups
from moduli_strata.cli import MAX_GAMMA_G, run
from moduli_strata.errors import DimensionCalculusError
from moduli_strata.hecke_groups import (
    gamma_dim,
    gamma_gamma_codim,
    gamma_gamma_codim_by_search,
    gamma_gamma_codims_by_pairs,
    max_product_dim,
    max_product_dim_by_pairs,
    product_dim,
    product_dim_from_matrix,
)
from moduli_strata.moduli import GroupExpr, SpAtom, sp_dim
from moduli_strata.partitions import (
    IntersectionMatrix,
    block_sizes,
    canonical_entries,
    enumerate_matrix_types,
    enumerate_proper_partitions,
    integer_partitions,
    iter_all_partitions,
    meet,
    proper_classes,
    renumber,
)
from partition_helpers import blocks, intersection_matrix


@st.composite
def partition_pairs(draw, max_g=6):
    g = draw(st.integers(2, max_g))
    a = renumber([draw(st.integers(0, g - 1)) for _ in range(g)])
    b = renumber([draw(st.integers(0, g - 1)) for _ in range(g)])
    return a, b


class TestGammaDim:
    def test_examples(self):
        assert gamma_dim(block_sizes(blocks([1], [2], [3], [4], [5]))) == 15
        assert gamma_dim(block_sizes(blocks([1, 2], [3]))) == 13
        assert gamma_dim(block_sizes(blocks([1, 2, 3]))) == 21

    def test_subgroup_structure(self):
        sizes = block_sizes(blocks([1, 2], [3], [4]))
        group = GroupExpr(SpAtom(l) for l in sizes)
        assert group.label == "Sp(2) x Sp(2) x Sp(4)"
        assert group.dim == 3 + 3 + 10 == gamma_dim(sizes)

    @pytest.mark.parametrize("g", range(2, 7))
    def test_insertion_increment(self, g):
        # growing a block of size l adds exactly 4l + 3
        for part in iter_all_partitions(g):
            sizes = block_sizes(part)
            for idx, l in enumerate(sizes + (0,)):
                assert gamma_dim(block_sizes(part + (idx,))) == gamma_dim(sizes) + 4 * l + 3


class TestProductDim:
    def test_examples(self):
        assert product_dim(blocks([1, 2], [3]), blocks([1], [2, 3])) == 17
        lam = blocks([1, 4], [2, 3])
        assert product_dim(lam, lam) == gamma_dim(block_sizes(lam))
        g2 = blocks([1], [2])
        assert product_dim(g2, g2) == 6

    def test_mismatch(self):
        with pytest.raises(DimensionCalculusError, match="ground sizes differ: 2 vs 3"):
            product_dim(blocks([1], [2]), blocks([1], [2], [3]))

    def test_any_labels_name_the_blocks(self):
        # renumbered by first appearance, as meet renumbers its cells
        assert product_dim((0, 2), (0, 1)) == product_dim((0, 1), (0, 1)) == 6
        assert product_dim(("a", "b", "a"), (7, 7, 5)) == product_dim(blocks([1, 3], [2]), blocks([1, 2], [3]))

    def test_empty_ground(self):
        with pytest.raises(DimensionCalculusError, match="^need g >= 1, got 0$"):
            product_dim((), ())

    @given(partition_pairs())
    @settings(max_examples=100, derandomize=True)
    def test_symmetry(self, pair):
        a, b = pair
        assert product_dim(a, b) == product_dim(b, a)

    @given(partition_pairs())
    @settings(max_examples=100, derandomize=True)
    def test_matrix_path_agrees(self, pair):
        a, b = pair
        assert product_dim(a, b) == product_dim_from_matrix(intersection_matrix(a, b))

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_matrix_path_agrees_exhaustively(self, g):
        parts = enumerate_proper_partitions(g)
        for a in parts:
            for b in parts:
                assert product_dim(a, b) == product_dim_from_matrix(intersection_matrix(a, b))

    @given(partition_pairs())
    @settings(max_examples=100, derandomize=True)
    def test_lower_bound_and_refinement_equality(self, pair):
        a, b = pair
        value = product_dim(a, b)
        larger = max(gamma_dim(block_sizes(a)), gamma_dim(block_sizes(b)))
        assert value >= larger
        refines = meet(a, b) in (a, b)
        assert (value == larger) == refines


class TestMaxProductDim:
    @pytest.mark.parametrize("g,expected", [(2, 6), (3, 17), (4, 32), (5, 51)])
    def test_values(self, g, expected):
        r = max_product_dim(g)
        assert r.value == expected == sp_dim(g) - 4 == r.closed_form

    def test_witness_realized_by_spec_pair(self):
        r = max_product_dim(3)
        assert r.witness == intersection_matrix(blocks([1, 2], [3]), blocks([1], [2, 3]))

    @pytest.mark.parametrize("g", range(2, 9))
    def test_matrix_route_equals_pair_route(self, g):
        assert max_product_dim(g).value == max_product_dim_by_pairs(g)

    @pytest.mark.parametrize("g", range(2, 7))
    def test_pair_sweep_equals_per_class_pair_sweeps(self, g):
        # the two pair routes meet class by class: the best lam class leaves the least codimension
        codims = gamma_gamma_codims_by_pairs(g)
        assert max_product_dim_by_pairs(g) == sp_dim(g) - min(codims.values())

    @pytest.mark.parametrize("g", range(2, 7))
    def test_reduced_pair_sweep_equals_all_pairs(self, g):
        # one lam per block-size class must lose nothing against the full sweep
        parts = enumerate_proper_partitions(g)
        unreduced = max(product_dim(a, b) for a in parts for b in parts)
        assert max_product_dim_by_pairs(g) == unreduced

    @pytest.mark.parametrize("g", range(2, 9))
    def test_two_block_family_attains_maximum(self, g):
        assert product_dim((0,) * (g - 1) + (1,), (0,) + (1,) * (g - 1)) == sp_dim(g) - 4

    def test_completion_route_matches_exhaustive(self):
        # the scaling route that gives the maximizer its value agrees with
        # full matrix-type enumeration wherever types are exhausted
        for g in range(2, 9):
            dp = max(
                sp_dim(g) - gamma_gamma_codim_by_search(sizes)
                for sizes in integer_partitions(g)
                if len(sizes) >= 2
            )
            assert dp == max(map(product_dim_from_matrix, enumerate_matrix_types(g)))

    def test_large_ground_uses_completion_route(self):
        r = max_product_dim(10)
        assert r.value == sp_dim(10) - 4
        assert r.witness == IntersectionMatrix(((8, 1), (1, 0)))
        assert product_dim_from_matrix(r.witness) == r.value

    def test_witness_is_its_own_type_at_every_served_g(self):
        # the record keeps the entries it is given, so the types that ``agree`` compares it with are canonical only
        # because the two-block witness already is
        for g in range(2, MAX_GAMMA_G + 1):
            witness = ((g - 2, 1), (1, 0))
            assert canonical_entries(witness) == witness

    @pytest.mark.parametrize("g", range(2, 9))
    def test_two_block_type_is_the_only_maximizer(self, g):
        # why the two-block matrix is the witness at every g
        assert _maximizing_types(g) == [IntersectionMatrix(((g - 2, 1), (1, 0)))]

    @pytest.mark.parametrize("g", range(2, 9))
    def test_tied_pairs_of_the_sweep_have_the_only_maximizer_type(self, g):
        # the pair sweep's certificate and the matrix types name the same maximizer
        lams = [tuple(i for i, l in enumerate(sizes) for _ in range(l)) for sizes in proper_classes(g)]
        mus = enumerate_proper_partitions(g)
        rows = list(hecke_groups._sweep(lams, mus))
        best = max(map(max, rows))
        tied = [(lam, mu) for lam, row in zip(lams, rows) for mu, value in zip(mus, row) if value == best]
        assert best == max_product_dim_by_pairs(g) and len(tied) == g - 1
        assert all(block_sizes(lam) == (g - 1, 1) for lam, _ in tied)
        assert {intersection_matrix(lam, mu) for lam, mu in tied} == set(_maximizing_types(g))

    @pytest.mark.parametrize("g", range(2, 6))
    def test_shared_columns_lose_nothing(self, g):
        # every proper lam shares the sweep's block columns, one-element blocks and all singletons included
        parts = enumerate_proper_partitions(g)
        rows = list(hecke_groups._sweep(parts, parts))
        assert len(rows) == len(parts)
        for lam, row in zip(parts, rows):
            assert row == [product_dim(lam, mu) for mu in parts]

    def test_definition_reads_no_block_gains(self, monkeypatch):
        # one more for every two-element block moves the sweep's gains formula and leaves the definition alone
        real = hecke_groups._Gains.__missing__

        def shifted(gains, ids):
            gain = gains[ids] = real(gains, ids) + (len(ids) == 2)
            return gain

        monkeypatch.setattr(hecke_groups._Gains, "__missing__", shifted)
        parts = enumerate_proper_partitions(3)
        rows = list(hecke_groups._sweep(parts, parts))
        assert rows != [[product_dim(lam, mu) for mu in parts] for lam in parts]
        for g in range(2, 9):
            assert product_dim((0,) * (g - 1) + (1,), (0,) + (1,) * (g - 1)) == sp_dim(g) - 4

    @pytest.mark.parametrize("mutation", ("tie", "missing"))
    def test_maximizing_pair_count_off_the_two_block_type_exits_2(self, capsys, monkeypatch, mutation):
        # a repeated or a dropped maximizing mu fails the pair sweep's uniqueness certificate
        real = hecke_groups.enumerate_proper_partitions

        def mutated(g):
            split = (0,) + (1,) * (g - 1)  # splits element 1 off the large block of lam = {1..g-1 | g}
            if mutation == "tie":
                return real(g) + [split]
            return [mu for mu in real(g) if mu != split or g == 2]  # g = 2 has no other proper mu

        monkeypatch.setattr(hecke_groups, "enumerate_proper_partitions", mutated)
        code = run(["verify", "L5.5", "--g-max", "4", "--json"])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and "Traceback" not in err
        g, count = (2, 2) if mutation == "tie" else (3, 1)
        assert err == (
            f"moduli-strata: disagreement: maximizing pairs at g = {g}: "
            f"two_block {{{(g - 1, 1)}: {g - 1}}}, pair_sweep {{{(g - 1, 1)}: {count}}}\n"
        )

    @pytest.mark.parametrize("g", range(6, 9))
    def test_no_matrix_types_above_the_exhaustive_limit(self, monkeypatch, g):
        # they took 11, 41 and 168 ms at g = 6, 7 and 8 (in-process, 2-vCPU host); the pair sweep certifies uniqueness there
        def refuse(ground):
            raise AssertionError(f"matrix types enumerated at g = {ground}")

        monkeypatch.setattr(hecke_groups, "enumerate_matrix_types", refuse)
        assert max_product_dim(g).value == sp_dim(g) - 4

    @pytest.mark.parametrize("shift", (0, 1), ids=("tie", "excess"))
    def test_matrix_type_at_or_above_the_search_value_exits_2(self, capsys, monkeypatch, shift):
        # a second type tying or exceeding the maximum fails the g <= 5 cross-check
        real = hecke_groups.product_dim_from_matrix
        rival = IntersectionMatrix(((1, 1), (1, 1)))
        rival_value = sp_dim(4) - 4 + shift
        monkeypatch.setattr(hecke_groups, "product_dim_from_matrix", lambda m: rival_value if m == rival else real(m))
        code = run(["gamma", "--g", "4", "--json"])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and "Traceback" not in err
        witness = IntersectionMatrix(((2, 1), (1, 0)))
        assert err == (
            f"moduli-strata: disagreement: matrix types at g = 4: search_optimum {{{witness.entries}: {sp_dim(4) - 4}}}, "
            f"types_at_or_above {{{rival.entries}: {rival_value}, {witness.entries}: {sp_dim(4) - 4}}}\n"
        )

    def test_ground_too_small(self):
        with pytest.raises(DimensionCalculusError, match="need g >= 2, got 1"):
            max_product_dim(1)

    @pytest.mark.parametrize("g", (-1, 0, 1))
    @pytest.mark.parametrize("maximizer", (max_product_dim, max_product_dim_by_pairs), ids=lambda f: f.__name__)
    def test_both_maximizers_reject_small_grounds(self, maximizer, g):
        with pytest.raises(DimensionCalculusError, match=f"need g >= 2, got {g}"):
            maximizer(g)

    def test_ground_rule_does_not_rest_on_the_matrix_types(self, capsys, monkeypatch):
        # with no g <= EXHAUSTIVE_LIMIT cross-check left to run first, the maximizer still owns its rule
        monkeypatch.setattr(hecke_groups, "EXHAUSTIVE_LIMIT", 0)
        with pytest.raises(DimensionCalculusError) as info:
            max_product_dim(1)
        assert type(info.value) is DimensionCalculusError and str(info.value) == "need g >= 2, got 1"
        assert run(["gamma", "--g", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "moduli-strata: error: gamma: need g >= 2, got 1\n"


@lru_cache(maxsize=None)
def _maximizing_types(g):
    """The canonical matrix types attaining the largest product dimension on ground size g."""
    values = {m: product_dim_from_matrix(m) for m in enumerate_matrix_types(g)}
    best = max(values.values())
    return [m for m, v in values.items() if v == best]


class TestTranslateMargin:
    def test_g2_example(self):
        assert gamma_gamma_codim((1, 1)) == 4

    def test_not_proper(self):
        with pytest.raises(DimensionCalculusError, match="a proper partition is required"):
            gamma_gamma_codim((3,))

    @pytest.mark.parametrize("g", range(2, 7))
    def test_completion_matches_brute_force(self, g):
        # closed form and completion search on the block sizes equal the
        # definition against every proper partition itself; the pair route
        # sweeps the consecutive layout of every size class at once
        parts = enumerate_proper_partitions(g)
        for lam in parts:
            sizes = block_sizes(lam)
            direct = sp_dim(g) - max(product_dim(mu, lam) for mu in parts)
            assert gamma_gamma_codim(sizes) == gamma_gamma_codim_by_search(sizes) == direct
        codims = gamma_gamma_codims_by_pairs(g)
        assert set(codims) == {tuple(sorted(block_sizes(lam), reverse=True)) for lam in parts}
        for sizes, codim in codims.items():
            assert codim == gamma_gamma_codim(sizes)

    def test_closed_form_matches_search_on_every_class(self):
        classes = [s for g in range(2, 13) for s in proper_classes(g)]
        assert len(classes) == 259
        for sizes in classes:
            assert gamma_gamma_codim(sizes) == gamma_gamma_codim_by_search(sizes), sizes

    @pytest.mark.parametrize("g", range(2, 8))
    def test_margin_at_least_four(self, g):
        for lam in enumerate_proper_partitions(g):
            assert gamma_gamma_codim(block_sizes(lam)) >= 4

    def test_depends_only_on_block_sizes(self):
        a = blocks([1, 2], [3], [4])
        b = blocks([1], [2, 4], [3])
        assert gamma_gamma_codim(block_sizes(a)) == gamma_gamma_codim(block_sizes(b))

    def test_rejects_improper_sizes(self):
        with pytest.raises(DimensionCalculusError, match="a proper partition is required"):
            gamma_gamma_codim((1,))
        with pytest.raises(ValueError):
            gamma_gamma_codim((2, 0))


@lru_cache(maxsize=None)
def _reference_fill(caps):
    """Best total column value over every fill of the profile: each row gives each column any amount."""
    return max((value + _reference_fill(rest) for _, value, rest in _reference_columns(caps)), default=0)


def _reference_columns(caps):
    """(amounts, value, sorted rest) of every nonempty column, one amount per row: no grouping, no first-row rule."""
    for amounts in itertools.product(*(range(cap + 1) for cap in caps)):
        if any(amounts):
            rest = tuple(sorted((cap - v for cap, v in zip(caps, amounts) if cap > v), reverse=True))
            yield amounts, sp_dim(sum(amounts)) - sum(map(sp_dim, amounts)), rest


def _reference_search(sizes):
    """Translate codimension by the reference fill; a first column that leaves nothing is the one-block mu."""
    sizes = tuple(sorted(sizes, reverse=True))
    best = max(value + _reference_fill(rest) for _, value, rest in _reference_columns(sizes) if rest)
    return sp_dim(sum(sizes)) - gamma_dim(sizes) - best


class TestCompletionSearchIsExhaustive:
    # the search enumerates each group of equal rows once and only columns
    # holding part of the first row; a per-row reference that does neither
    # must give the same value everywhere

    def test_best_fill_equals_per_row_reference(self):
        profiles = [p for n in range(11) for p in integer_partitions(n)]
        assert len(profiles) == 139
        for caps in profiles:
            assert hecke_groups._best_fill(caps) == _reference_fill(caps), caps

    def test_columns_are_the_reference_columns_through_the_first_row(self):
        # one take per group stands for every order of the same amounts within the group
        for caps in (p for n in range(1, 11) for p in integer_partitions(n)):
            first_row = {(value, rest) for amounts, value, rest in _reference_columns(caps) if amounts[0]}
            assert set(hecke_groups._columns(caps)) == first_row, caps

    def test_search_equals_reference_search_on_every_class(self):
        classes = [s for g in range(2, 13) for s in proper_classes(g)]
        assert len(classes) == 259
        for sizes in classes:
            assert gamma_gamma_codim_by_search(sizes) == _reference_search(sizes), sizes

    def test_search_is_memoized_after_validation(self):
        # both spellings are one class: the validated sizes are the memo's key, and bad sizes never reach it
        assert gamma_gamma_codim_by_search((3, 1)) == 4
        before = hecke_groups._search.cache_info()
        assert gamma_gamma_codim_by_search([1, 3]) == 4
        for bad, error in (((3,), DimensionCalculusError), ((2, 0), ValueError)):
            for _ in range(2):
                with pytest.raises(error):
                    gamma_gamma_codim_by_search(bad)
        after = hecke_groups._search.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
