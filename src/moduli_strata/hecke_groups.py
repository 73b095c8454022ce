"""Dimension calculus for the partition-indexed symplectic subgroups.

To a partition of {1, ..., g} with block sizes l_1, ..., l_s corresponds a
product of symplectic groups of total dimension sum l_i(2 l_i + 1).  The
product of two such subgroups has dimension

    dim(lam) + dim(mu) - dim(lam ^ mu)

where ^ is the common refinement: the pairwise intersection of the two
subgroups is block-diagonal on the refinement.  Partitions are block-id
tuples (see ``partitions``).  The dimension has three formulas, one entry
each, and ``verify L5.5`` reads each on its own route: ``product_dim`` is
the definition, on the refinement ``meet`` builds (the two-block route);
``_sweep``, called only by the class sweep (the pair route, C5.6's too),
adds to dim(mu), block by block of lam, what the block adds over mu's
restriction to it, memoized on mu's block ids there; and
``product_dim_from_matrix`` reads the intersection matrix alone: row sums,
column sums and nonzero entries, with the l(2l+1) weight (the matrix types).

``max_product_dim`` takes its value from a memoized best-completion search
over column structures at every ground size, and its witness is always the
two-block matrix ((g-2, 1), (1, 0)), the only maximizer type (see
``gamma_gamma_codim``); up to 5 every canonical intersection-matrix type is
also enumerated.  The class sweep checks the value on (p(g) - 1)(Bell(g) - 1)
pairs, one first partition per block-size class, since relabelling both
partitions leaves it unchanged, and counts the maximizing pairs to certify
the two-block type the only one.  Every cross-check goes through ``agree``.

The translate codimension has the closed form 4(g - largest block); the
completion search, which reads nothing of it, serves ``max_product_dim``,
C5.6 and ``gamma``'s per-class check.  It takes each group of equal row
capacities once and carves only columns holding part of the first row.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache
from operator import add, itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import DimensionCalculusError, agree
from .moduli import sp_dim
from .partitions import (
    IntersectionMatrix,
    Partition,
    block_sizes,
    enumerate_matrix_types,
    enumerate_proper_partitions,
    meet,
    proper_classes,
)


def gamma_dim(sizes: Iterable[int]) -> int:
    """Dimension of the subgroup of a partition with these block sizes: sum of l(2l+1)."""
    return sum(map(sp_dim, sizes))


class _Gains(dict):
    """Memo of what one block of lam adds over mu's block ids there: sp_dim of its size less their weight."""

    def __missing__(self, ids: tuple[int, ...]) -> int:
        gain = self[ids] = sp_dim(len(ids)) - gamma_dim(map(ids.count, set(ids)))
        return gain


def _sweep(lams: Iterable[Partition], mus: Sequence[Partition]) -> Iterator[list[int]]:
    """One row per lam: its product dimension against every mu, in mus order.

    dim(lam) + dim(mu) - dim(lam ^ mu) is dim(mu) plus, for each block of
    lam, its sp_dim less the weight of mu's blocks restricted to it (zero
    for one element).  That gain, memoized on mu's block ids there, depends
    on the block's positions alone, so each distinct block gets its column
    of gains once per sweep, shared by every lam holding it: at g = 8 the 85
    blocks of the class representatives hold 15 distinct larger than one.
    """
    dims = [gamma_dim(block_sizes(mu)) for mu in mus]
    gains = _Gains()
    columns: dict[tuple[int, ...], list[int]] = {}
    for lam in lams:
        row = dims
        for k in range(max(lam) + 1):
            positions = tuple(i for i, b in enumerate(lam) if b == k)
            if len(positions) > 1:
                if positions not in columns:
                    columns[positions] = list(map(gains.__getitem__, map(itemgetter(*positions), mus)))
                row = list(map(add, row, columns[positions]))
        yield row


def product_dim(lam: Partition, mu: Partition) -> int:
    """dim(lam) + dim(mu) - dim(lam ^ mu) on the refinement ``meet`` builds; any labels name the blocks, as there."""
    dim_lam, dim_mu, dim_meet = (gamma_dim(map(p.count, set(p))) for p in (lam, mu, meet(lam, mu)))
    return dim_lam + dim_mu - dim_meet


def product_dim_from_matrix(matrix: IntersectionMatrix) -> int:
    """Same quantity computed from the intersection matrix alone."""
    cells = (e for row in matrix.entries for e in row if e)
    return gamma_dim(matrix.row_sums) + gamma_dim(matrix.col_sums) - gamma_dim(cells)


class MaxProductDim(namedtuple("MaxProductDim", "value witness closed_form")):
    """Maximum product dimension, its witness (the two-block matrix) and the closed form 2g^2 + g - 4."""

    __slots__ = ()

    @property
    def agrees(self) -> bool:
        """Whether the searched maximum matches the closed form."""
        return self.value == self.closed_form


#: Largest ground size for which every canonical matrix type is enumerated: under 3 ms in all, where g = 8
#: alone took 168 ms (2-vCPU host, Python 3.11).  Above it L5.5's pair sweep certifies the only maximizer, up
#: to g = 9; the limit stays above 0 while the benchmark's oracle test traces ``enumerate_matrix_types``.
EXHAUSTIVE_LIMIT = 5


def max_product_dim(g: int) -> MaxProductDim:
    """Maximize the product dimension over all proper partition pairs.

    The value is 2g^2 + g minus the least translate codimension found by
    the memoized completion search.  The codimension of a pair is
    4 #{edges of K(lam) cut by mu} (see ``gamma_gamma_codim``), at least
    4(g - largest block of lam) and so at least 4.  Equality forces
    lam = (g-1, 1), whose K(lam) is a star, and a mu that splits off one
    leaf: the two-block matrix ((g-2, 1), (1, 0)) is the only maximizer
    type, and the witness at every g, its own canonical form.  It must
    attain the search value; up to EXHAUSTIVE_LIMIT it must also be the
    only canonical matrix type at or above it.  Both checks go through ``agree``; above that limit
    ``max_product_dim_by_pairs`` certifies uniqueness for L5.5.
    """
    value = sp_dim(g) - min(map(gamma_gamma_codim_by_search, proper_classes(g)))
    witness = IntersectionMatrix(((g - 2, 1), (1, 0)))
    agree(f"two-block witness at g = {g}", search_optimum=value, witness_attains=product_dim_from_matrix(witness))
    if g <= EXHAUSTIVE_LIMIT:
        values = {m.entries: product_dim_from_matrix(m) for m in enumerate_matrix_types(g)}
        reached = {entries: v for entries, v in values.items() if v >= value}
        agree(f"matrix types at g = {g}", search_optimum={witness.entries: value}, types_at_or_above=reached)
    return MaxProductDim(value, witness, sp_dim(g) - 4)


def _class_sweep(g: int) -> dict[tuple[int, ...], tuple[int, int]]:
    """Each proper class's best product dimension, as consecutive blocks, against all proper mu, and its tie count."""
    classes = proper_classes(g)
    lams = (tuple(i for i, l in enumerate(sizes) for _ in range(l)) for sizes in classes)
    rows = _sweep(lams, enumerate_proper_partitions(g))
    return {sizes: (top := max(row), row.count(top)) for sizes, row in zip(classes, rows)}


def max_product_dim_by_pairs(g: int) -> int:
    """Independent maximizer: the class sweep's gains over proper partition pairs, which also certify the maximizer.

    The product dimension is unchanged when both partitions are relabelled
    by the same permutation, so lam runs over one partition per block-size
    class (consecutive blocks) against every proper mu: (p(g) - 1)(Bell(g) - 1)
    pairs stand for all (Bell(g) - 1)^2.  The same relabelling moves any
    maximizing pair onto a swept one, so a second maximizer type would show
    as another class among the maximizing pairs, or as more than the g - 1
    pairs of class (g - 1, 1) that split one element off lam's large block,
    all of type ((g-2, 1), (1, 0)).  ``agree`` checks those counts; L5.5
    checks that the value is the witness's and the definition's.
    """
    tops = _class_sweep(g)
    value = max(top for top, _ in tops.values())
    at_value = {sizes: count for sizes, (top, count) in tops.items() if top == value}
    agree(f"maximizing pairs at g = {g}", two_block={(g - 1, 1): g - 1}, pair_sweep=at_value)
    return value


# --- best completion against fixed block sizes -------------------------------
#
# For a fixed first partition with block sizes r, the product dimension over
# all second partitions mu depends only on the matrix of overlaps, whose row
# sums are r and whose columns are the blocks of mu.  The best completion of
# a vector of remaining row capacities is independent of the columns already
# placed, so it memoizes cleanly on the sorted capacity profile.


@lru_cache(maxsize=None)
def _takes(cap: int, count: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """(amount, sum of squares, capacities left) of each take from ``count`` rows of ``cap``; zero last."""
    return tuple(
        (sum(taken), sum(v * v for v in taken), tuple(cap - v for v in taken if v < cap))
        for taken in itertools.combinations_with_replacement(range(cap, -1, -1), count)
    )


def _columns(caps: tuple[int, ...]) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The ways to carve one column holding part of the first row out of the profile.

    Yields (column_value, remaining_profile).  Rows of equal capacity are
    interchangeable, so a column is one take per group (``_takes``); its value
    2(s^2 - sum v^2) is sp_dim(s) - sum sp_dim(v), as the amounts v sum to s.
    Every complete fill has a column holding part of the first row, and
    columns are unordered, so taking it first leaves ``_best_fill`` unchanged.
    """
    first, *others = [_takes(cap, len(list(grp))) for cap, grp in itertools.groupby(caps)]
    tails = [(0, 0, ())]  # the other groups' takes, combined once per profile
    for takes in others:
        tails = [(s + v, q + w, left + more) for s, q, left in tails for v, w, more in takes]
    for amount, squares, left in first[:-1]:
        for s, q, more in tails:
            yield 2 * ((amount + s) ** 2 - squares - q), tuple(sorted(left + more, reverse=True))


@lru_cache(maxsize=None)
def _best_fill(caps: tuple[int, ...]) -> int:
    """Best total column value consuming the whole capacity profile."""
    if not caps:
        return 0
    return max(value + _best_fill(rest) for value, rest in _columns(caps))


def _proper_sizes(block_sizes: Sequence[int]) -> tuple[int, ...]:
    """Block sizes of a proper partition, largest first; rejects the rest."""
    sizes = tuple(sorted(block_sizes, reverse=True))
    if any(l < 1 for l in sizes):
        raise ValueError(f"block sizes must be >= 1, got {tuple(block_sizes)}")
    if len(sizes) < 2:
        raise DimensionCalculusError("a proper partition is required")
    return sizes


def gamma_gamma_codim(block_sizes: Sequence[int]) -> int:
    """Codimension of the union of translates of a proper lam subgroup.

    This is 2g^2 + g minus the maximum product dimension against lam over
    proper mu.  It depends only on lam's block sizes and equals
    4(g - largest block), hence is at least 4.  Proof: the linear parts of
    the l(2l+1) weights cancel, so over the intersection matrix codim(lam,
    mu) = 2(g^2 - sum r^2 - sum c^2 + sum e^2) = 4 #{edges of the complete
    multipartite graph K(lam) cut by mu}.  Merging blocks of mu never cuts
    more edges, so the minimum is the edge connectivity of K(lam); a graph
    of diameter <= 2 has edge connectivity equal to its minimum degree
    (Plesnik 1975), here g - largest block.
    """
    sizes = _proper_sizes(block_sizes)
    return 4 * (sum(sizes) - sizes[0])


def gamma_gamma_codim_by_search(block_sizes: Sequence[int]) -> int:
    """Cross-check of ``gamma_gamma_codim`` by the memoized completion search, run once per class."""
    return _search(_proper_sizes(block_sizes))


@lru_cache(maxsize=None)
def _search(sizes: tuple[int, ...]) -> int:
    """The search on validated sizes, largest first: max over proper mu of dim(mu) - dim(lam ^ mu), carving
    first mu's column through the first row; one that leaves no capacity (its sum is g) is the one-block mu."""
    best = max(value + _best_fill(rest) for value, rest in _columns(sizes) if rest)
    return sp_dim(sum(sizes)) - gamma_dim(sizes) - best


def gamma_gamma_codims_by_pairs(g: int) -> dict[tuple[int, ...], int]:
    """Brute-force cross-check of ``gamma_gamma_codim`` for every proper class of ground size g, from one sweep."""
    return {sizes: sp_dim(g) - top for sizes, (top, _) in _class_sweep(g).items()}
