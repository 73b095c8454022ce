"""Partition lattice, intersection matrices, and canonical-form invariance."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moduli_strata.errors import DimensionCalculusError
from moduli_strata.partitions import (
    IntersectionMatrix,
    bell_number,
    block_sizes,
    canonical_entries,
    enumerate_matrix_types,
    enumerate_proper_partitions,
    integer_partitions,
    iter_all_partitions,
    meet,
    renumber,
    _tables,
)
from partition_helpers import (
    blocks,
    blocks_of,
    canonical_entries_by_orders,
    intersection_matrix,
    realize,
    relabel,
)

BELL = {2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140}


@st.composite
def partition_pairs(draw, max_g=6, count=2):
    g = draw(st.integers(2, max_g))
    parts = []
    for _ in range(count):
        labels = [draw(st.integers(0, g - 1)) for _ in range(g)]
        parts.append(renumber(labels))
    return (g, *parts)


class TestSetPartition:
    def test_canonical_block_order(self):
        # blocks are numbered by least element, whatever the input labels
        assert blocks([3], [2, 1]) == (0, 0, 1)
        assert meet((2, 2, 0), (5, 5, 5)) == (0, 0, 1)
        assert meet((0, 2), (0, 1)) == (0, 1)
        assert renumber("abcab") == (0, 1, 2, 0, 1)
        assert renumber(iter([(5, 5), (0, 1), (5, 5)])) == (0, 1, 0)
        assert renumber(()) == ()

    def test_validation(self):
        # every enumerated tuple is a restricted growth string
        for g in range(1, 8):
            for p in iter_all_partitions(g):
                assert len(p) == g and p[0] == 0
                assert all(p[i] <= max(p[:i]) + 1 for i in range(1, g))
        with pytest.raises(DimensionCalculusError, match="need g >= 1, got 0"):
            next(iter_all_partitions(0))

    def test_relabel(self):
        p = blocks([1, 2], [3])
        q = relabel(p, [3, 1, 2])  # 1->3, 2->1, 3->2
        assert q == blocks([1, 3], [2])


class TestEnumeration:
    def test_g2_single_proper_partition(self):
        assert enumerate_proper_partitions(2) == [blocks([1], [2])]

    def test_g3_listing(self):
        got = set(enumerate_proper_partitions(3))
        expected = {
            blocks([1], [2], [3]),
            blocks([1, 2], [3]),
            blocks([1, 3], [2]),
            blocks([1], [2, 3]),
        }
        assert got == expected

    @pytest.mark.parametrize("g", range(2, 9))
    def test_counts_match_bell(self, g):
        parts = enumerate_proper_partitions(g)
        assert len(parts) == bell_number(g) - 1 == BELL[g] - 1
        assert len(set(parts)) == len(parts)

    def test_ground_too_small(self):
        with pytest.raises(DimensionCalculusError, match="need g >= 2, got 1"):
            enumerate_proper_partitions(1)


class TestMeet:
    def test_refines_to_singletons(self):
        assert meet(blocks([1, 2], [3]), blocks([1], [2, 3])) == blocks([1], [2], [3])

    def test_singletons_absorb(self):
        s = blocks([1], [2], [3])
        assert meet(s, blocks([1, 2], [3])) == s

    def test_ground_mismatch(self):
        with pytest.raises(DimensionCalculusError, match="ground sizes differ: 2 vs 3"):
            meet(blocks([1], [2]), blocks([1], [2], [3]))

    def test_empty_ground(self):
        # the rule and the words of iter_all_partitions and product_dim
        with pytest.raises(DimensionCalculusError, match="^need g >= 1, got 0$"):
            meet((), ())

    @given(partition_pairs())
    @settings(max_examples=80, derandomize=True)
    def test_idempotent_commutative(self, data):
        _, a, b = data
        assert meet(a, a) == a
        assert meet(a, b) == meet(b, a)

    @given(partition_pairs(count=3))
    @settings(max_examples=80, derandomize=True)
    def test_associative(self, data):
        _, a, b, c = data
        assert meet(meet(a, b), c) == meet(a, meet(b, c))

    @given(partition_pairs())
    @settings(max_examples=80, derandomize=True)
    def test_refinement_block_count(self, data):
        _, a, b = data
        assert len(block_sizes(meet(a, b))) >= max(len(block_sizes(a)), len(block_sizes(b)))

    @given(partition_pairs())
    @settings(max_examples=80, derandomize=True)
    def test_meet_refines_both(self, data):
        _, a, b = data
        for block in blocks_of(meet(a, b)):
            assert any(block <= x for x in blocks_of(a))
            assert any(block <= x for x in blocks_of(b))


class TestIntersectionMatrix:
    def test_spec_pairs(self):
        # the counts ((1, 1), (0, 1)) and ((1, 2), (0, 1)), named by their canonical types
        m = intersection_matrix(blocks([1, 2], [3]), blocks([1], [2, 3]))
        assert m == IntersectionMatrix(((1, 1), (1, 0)))
        m2 = intersection_matrix(blocks([1, 2, 3], [4]), blocks([1], [2, 3, 4]))
        assert m2 == IntersectionMatrix(((2, 1), (1, 0)))
        assert sum(m2.row_sums) == 4

    def test_self_pairing_is_diagonal_sizes(self):
        p = blocks([1, 2], [3], [4, 5, 6])
        m = intersection_matrix(p, p)
        positive = sorted(e for row in m.entries for e in row if e)
        assert positive == [1, 2, 3]
        assert sum(1 for row in m.entries for e in row if e) == len(block_sizes(p))

    @given(partition_pairs())
    @settings(max_examples=100, derandomize=True)
    def test_margins_are_block_sizes(self, data):
        g, a, b = data
        m = intersection_matrix(a, b)
        assert sorted(m.row_sums) == sorted(block_sizes(a))
        assert sorted(m.col_sums) == sorted(block_sizes(b))
        assert sum(m.row_sums) == g

    @given(partition_pairs(), st.randoms(use_true_random=False))
    @settings(max_examples=100, derandomize=True)
    def test_relabeling_invariance(self, data, rng):
        g, a, b = data
        perm = list(range(1, g + 1))
        rng.shuffle(perm)
        assert intersection_matrix(a, b) == intersection_matrix(relabel(a, perm), relabel(b, perm))

    def test_rejects_zero_rows_and_columns(self):
        with pytest.raises(ValueError):
            IntersectionMatrix(((0, 0), (1, 1)))
        with pytest.raises(ValueError):
            IntersectionMatrix(((1, 0), (1, 0)))

    def test_canonical_is_fixed_point(self):
        # the record stores its entries; only ``canonical_entries`` names the type, a fixed point of itself
        m = IntersectionMatrix(((1, 2), (0, 1)))
        assert m.entries == ((1, 2), (0, 1)) and m != IntersectionMatrix(((2, 1), (1, 0)))
        assert canonical_entries(m.entries) == canonical_entries(canonical_entries(m.entries)) == ((2, 1), (1, 0))


class TestCanonicalForm:
    def exhaustive_orbit_min(self, entries):
        # Reference: brute force over all row and column permutations that
        # keep row/column sums non-increasing.
        rows = range(len(entries))
        cols = range(len(entries[0]))
        best = None
        for rp in itertools.permutations(rows):
            arranged = [entries[i] for i in rp]
            rsums = [sum(r) for r in arranged]
            if rsums != sorted(rsums, reverse=True):
                continue
            for cp in itertools.permutations(cols):
                candidate = tuple(tuple(row[j] for j in cp) for row in arranged)
                csums = [sum(c) for c in zip(*candidate)]
                if csums != sorted(csums, reverse=True):
                    continue
                if best is None or candidate < best:
                    best = candidate
        return best

    @pytest.mark.parametrize(
        "entries",
        [
            ((1, 0), (0, 1)),
            ((2, 0), (0, 1)),
            ((1, 1), (1, 0)),
            ((1, 1, 0), (0, 1, 1), (1, 0, 1)),
            ((2, 1, 0), (1, 0, 1)),
            ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
            ((3, 1), (1, 1), (2, 0)),
        ],
    )
    def test_matches_brute_force(self, entries):
        assert canonical_entries(entries) == self.exhaustive_orbit_min(entries)

    @pytest.mark.parametrize("g", range(2, 9))
    def test_matches_row_order_reference_on_every_table(self, g):
        # every table of every margin pair at ground size g, and one seeded
        # row and column shuffle of each, against the enumeration of all
        # row orders; the shuffle has the table's reference form
        rng = random.Random(g)
        margins = [p for p in integer_partitions(g) if len(p) >= 2]
        for row_sums, col_sums in itertools.product(margins, repeat=2):
            for table in _tables(row_sums, col_sums):
                rows = list(table)
                cols = list(range(len(col_sums)))
                rng.shuffle(rows)
                rng.shuffle(cols)
                shuffled = tuple(tuple(row[j] for j in cols) for row in rows)
                expected = canonical_entries_by_orders(table)
                assert canonical_entries(table) == expected
                assert canonical_entries(shuffled) == expected

    def test_permutation_matrix_of_twelve(self):
        # one group of 12 equal rows: trying its 12! row orders would not finish
        identity = tuple(tuple(int(i == j) for j in range(12)) for i in range(12))
        assert canonical_entries(identity) == identity[::-1]

    def test_thousand_random_relabelings_per_ground(self):
        rng = random.Random(20250809)
        for g in range(2, 7):
            parts = enumerate_proper_partitions(g)
            for _ in range(1000):
                a, b = rng.choice(parts), rng.choice(parts)
                base = intersection_matrix(a, b)
                perm = list(range(1, g + 1))
                rng.shuffle(perm)
                assert intersection_matrix(relabel(a, perm), relabel(b, perm)) == base

    @given(st.data())
    @settings(max_examples=150, derandomize=True)
    def test_random_matrices_brute_force_and_permutation_stability(self, data):
        r = data.draw(st.integers(1, 3), label="rows")
        c = data.draw(st.integers(1, 3), label="cols")
        entries = tuple(
            tuple(data.draw(st.integers(0, 3)) for _ in range(c)) for _ in range(r)
        )
        if any(all(e == 0 for e in row) for row in entries):
            return
        if any(all(row[j] == 0 for row in entries) for j in range(c)):
            return
        canon = canonical_entries(entries)
        assert canon == self.exhaustive_orbit_min(entries)
        assert canonical_entries(canon) == canon
        rp = data.draw(st.permutations(range(r)), label="row perm")
        cp = data.draw(st.permutations(range(c)), label="col perm")
        shuffled = tuple(tuple(entries[i][j] for j in cp) for i in rp)
        assert canonical_entries(shuffled) == canon

    @given(st.data())
    @settings(max_examples=150, derandomize=True)
    def test_representative_is_doubly_lexical(self, data):
        # the fact that makes the pruned generator in ``_tables`` complete
        r = data.draw(st.integers(1, 4), label="rows")
        c = data.draw(st.integers(1, 4), label="cols")
        entries = tuple(tuple(data.draw(st.integers(0, 3)) for _ in range(c)) for _ in range(r))
        canon = canonical_entries(entries)
        rows = list(canon)
        cols = list(zip(*canon))
        for seq in (rows, cols):
            for a, b in zip(seq, seq[1:]):
                if sum(a) == sum(b):
                    assert a <= b


class TestMatrixTypes:
    def test_g2(self):
        types = enumerate_matrix_types(2)
        assert types == [IntersectionMatrix(((0, 1), (1, 0)))]

    def test_g4_contains_spec_matrix(self):
        # the counts ((1, 2), (0, 1)) are listed once, as their canonical type
        types = enumerate_matrix_types(4)
        assert IntersectionMatrix(((2, 1), (1, 0))) in types and IntersectionMatrix(((1, 2), (0, 1))) not in types

    @pytest.mark.parametrize("g", range(2, 7))
    def test_matches_image_of_pairs(self, g):
        types = set(enumerate_matrix_types(g))
        parts = enumerate_proper_partitions(g)
        image = {intersection_matrix(a, b) for a in parts for b in parts}
        assert types == image

    def test_matches_image_of_pairs_g7(self):
        # The type of a pair is unchanged when both partitions are relabelled
        # alike, so one first partition per block-size class reaches every
        # type; the unreduced sweep above checks that invariance for g <= 6.
        types = set(enumerate_matrix_types(7))
        firsts = [
            blocks(*(range(end - l + 1, end + 1) for l, end in zip(sizes, itertools.accumulate(sizes))))
            for sizes in integer_partitions(7)
            if len(sizes) > 1
        ]
        parts = enumerate_proper_partitions(7)
        image = {intersection_matrix(a, b) for a in firsts for b in parts}
        assert types == image

    @pytest.mark.parametrize("g,count", [(2, 1), (3, 5), (4, 24), (5, 78), (6, 277), (7, 881), (8, 2974)])
    def test_type_counts(self, g, count):
        assert len(enumerate_matrix_types(g)) == count

    @pytest.mark.parametrize("g", range(2, 7))
    def test_every_type_is_realized(self, g):
        for t in enumerate_matrix_types(g):
            lam, mu = realize(t)
            assert intersection_matrix(lam, mu) == t
            assert any(lam) and any(mu)

    def test_ground_too_small(self):
        with pytest.raises(DimensionCalculusError, match="need g >= 2, got 1"):
            enumerate_matrix_types(1)
