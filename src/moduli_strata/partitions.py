"""Set-partition combinatorics on the ground set {1, ..., g}.

A partition is its block-id tuple: entry i - 1 names the block holding
element i, blocks numbered 0, 1, ... by first appearance (the restricted
growth string), so equality is structural and no other form is stored.
A pair of partitions is summarized by its block-intersection matrix, kept
as given; its type, the class under row and column permutations, is named
by a canonical representative that only the type enumeration builds.  The
representative is built row by row, pruning partial forms that are not
least and merging equivalent states (the prefix pruning and refinement of
McKay & Piperno, "Practical graph isomorphism II", 2014), so the row
orders of a group of equal row sums are never enumerated.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import DimensionCalculusError

#: A partition of {1, ..., g} as its block-id tuple (restricted growth string).
Partition = tuple[int, ...]


def bell_number(n: int) -> int:
    """Number of partitions of an n-element set (Bell triangle recurrence)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


def iter_all_partitions(g: int) -> Iterator[Partition]:
    """Every partition of {1, ..., g}, proper or not, in lexicographic order.

    Each is its restricted growth string: a[0] = 0 and a[i] <= max(a[:i]) + 1.
    """
    if g < 1:
        raise DimensionCalculusError(f"need g >= 1, got {g}")
    a = [0] * g

    def rec(i: int, cur_max: int) -> Iterator[Partition]:
        if i == g:
            yield tuple(a)
            return
        for v in range(cur_max + 2):
            a[i] = v
            yield from rec(i + 1, max(cur_max, v))

    yield from rec(1, 0)


def enumerate_proper_partitions(g: int) -> list[Partition]:
    """All partitions of {1, ..., g} with at least two blocks.

    There are exactly Bell(g) - 1 of them; the single-block partition, the
    all-zero string, is the only one excluded.
    """
    if g < 2:
        raise DimensionCalculusError(f"need g >= 2, got {g}")
    return [p for p in iter_all_partitions(g) if any(p)]


def block_sizes(partition: Partition) -> tuple[int, ...]:
    """Sizes of the blocks of a block-id tuple, in block-id order."""
    return tuple(map(partition.count, range(max(partition) + 1)))


def renumber(labels: Iterable) -> Partition:
    """Block-id tuple of any labels: equal labels share a block, numbered by first appearance."""
    ids: dict = {}
    return tuple(ids.setdefault(label, len(ids)) for label in labels)


def meet(lam: Partition, mu: Partition) -> Partition:
    """Common refinement: blocks are the nonempty pairwise intersections."""
    if len(lam) != len(mu):
        raise DimensionCalculusError(f"ground sizes differ: {len(lam)} vs {len(mu)}")
    if not lam:
        raise DimensionCalculusError("need g >= 1, got 0")
    return renumber(zip(lam, mu))


@lru_cache(maxsize=None)
def canonical_entries(entries: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Canonical representative of a matrix under row and column permutations.

    The representative has row sums non-increasing top to bottom and column
    sums non-increasing left to right; among all arrangements satisfying
    that, the row-major flattening is lexicographically minimal.  This is a
    complete invariant: two matrices agree here iff one is obtained from
    the other by permuting rows and columns.

    Rows are placed one at a time, largest sum first.  Columns are kept in
    cells: runs of equal sum whose entries agree in every placed row.  The
    final form sorts the columns of each sum group lexicographically, so
    once k rows are placed its first k rows are fixed: sorting a candidate
    row inside each cell gives row k + 1, and only candidates whose sorted
    row is least survive; equal candidate rows are tried once.  A state is
    the multiset of rows still to place, its columns in cell order.  Every
    later step reads a state only through that multiset and the cells,
    which all survivors share, so states with equal multisets have the same
    best completion and are merged.
    """
    cols = sorted(zip(*entries), key=lambda c: -sum(c))
    # a column's cell key, kept sorted: minus its sum, then its entries in the placed rows
    keys: list[tuple[int, ...]] = [(-sum(c),) for c in cols]
    states = {tuple(sorted(zip(*cols)))}
    form = []
    for target in sorted(map(sum, entries), reverse=True):
        if len(set(keys)) == len(keys):
            # every column is its own cell, so each state's rows are placed as they are
            form.extend(min(sorted(rest, key=lambda r: (-sum(r), r)) for rest in states))
            break
        best: tuple[int, ...] | None = None
        survivors: set[tuple[tuple[int, ...], ...]] = set()
        for rest in states:
            for i, row in enumerate(rest):
                if sum(row) != target or (i and row == rest[i - 1]):
                    continue
                arranged = sorted(zip(keys, row, range(len(row))))
                placed = tuple(v for _, v, _ in arranged)
                if best is None or placed < best:
                    best, survivors = placed, set()
                if placed == best:
                    perm = [j for _, _, j in arranged]
                    survivors.add(tuple(sorted(tuple(r[j] for j in perm) for r in rest[:i] + rest[i + 1 :])))
        assert best is not None
        form.append(best)
        keys = [k + (v,) for k, v in zip(keys, best)]
        states = survivors
    return tuple(form)


class IntersectionMatrix(namedtuple("IntersectionMatrix", "entries")):
    """Block-intersection profile of a pair of partitions, its entries kept as given.

    Entry (j, k) counts the elements shared by block j of the first
    partition and block k of the second; row sums and column sums recover
    the two block-size multisets.  Equality is entry by entry: a row or
    column permutation is another record of the type ``canonical_entries`` names.
    """

    __slots__ = ()

    def __new__(cls, entries: Iterable[Iterable[int]]) -> IntersectionMatrix:
        entries = tuple(map(tuple, entries))
        if not entries or not entries[0]:
            raise ValueError("matrix must be nonempty")
        width = len(entries[0])
        for row in entries:
            if len(row) != width:
                raise ValueError("ragged matrix")
            if any(e < 0 for e in row):
                raise ValueError("entries must be >= 0")
        if any(all(e == 0 for e in row) for row in entries):
            raise ValueError("zero row")
        if any(all(row[j] == 0 for row in entries) for j in range(width)):
            raise ValueError("zero column")
        return super().__new__(cls, entries)

    @property
    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(r) for r in self.entries)

    @property
    def col_sums(self) -> tuple[int, ...]:
        return tuple(sum(c) for c in zip(*self.entries))


def integer_partitions(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of n into non-increasing positive parts."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in integer_partitions(n - first, first):
            yield (first,) + rest


def proper_classes(g: int) -> list[tuple[int, ...]]:
    """Block sizes of the proper partitions of {1, ..., g}: the partitions of g with two or more parts."""
    if g < 2:
        raise DimensionCalculusError(f"need g >= 2, got {g}")
    return [p for p in integer_partitions(g) if len(p) > 1]


@lru_cache(maxsize=None)
def _compositions(total: int, budgets: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Compositions of `total` with entry j <= budgets[j]."""
    if not budgets:
        return ((),) if total == 0 else ()
    return tuple(
        (v,) + rest
        for v in range(min(total, budgets[0]) + 1)
        for rest in _compositions(total - v, budgets[1:])
    )


def _tables(row_sums: Sequence[int], col_sums: Sequence[int]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Non-negative matrices with the given margins, pruned doubly-lexically.

    Rows inside a run of equal row sums are forced lex non-decreasing top
    to bottom, and columns inside a run of equal column sums lex
    non-decreasing left to right (Lubiw 1987).  The pruning is complete:
    swapping two such rows or columns keeps the margins sorted and would
    lower a representative that broke either constraint, so the lex-minimal
    ``canonical_entries`` representative of every table satisfies both and
    is itself generated.
    """

    def rec(
        i: int, budgets: tuple[int, ...], tied: tuple[int, ...], rows: list[tuple[int, ...]]
    ) -> Iterator[tuple[tuple[int, ...], ...]]:
        if i == len(row_sums):
            if not any(budgets):
                yield tuple(rows)
            return
        floor = rows[-1] if rows and row_sums[i] == row_sums[i - 1] else ()
        for row in _compositions(row_sums[i], budgets):
            if row < floor or any(row[j] > row[j + 1] for j in tied):
                continue
            rows.append(row)
            rest = tuple(b - v for b, v in zip(budgets, row))
            yield from rec(i + 1, rest, tuple(j for j in tied if row[j] == row[j + 1]), rows)
            rows.pop()

    # tied: the j whose columns j, j + 1 have equal sums and equal entries
    # so far; column j must stay lex <= column j + 1
    tied = tuple(j for j in range(len(col_sums) - 1) if col_sums[j] == col_sums[j + 1])
    yield from rec(0, tuple(col_sums), tied, [])


def enumerate_matrix_types(g: int) -> list[IntersectionMatrix]:
    """Every canonical intersection-matrix type realizable on ground size g.

    A type is a canonical class of matrices with total g, at least two rows
    and two columns and no zero row or column; each is realized by at least
    one pair of proper partitions, and every pair of proper partitions
    realizes exactly one type.  Each is listed by its ``canonical_entries``
    representative, which the doubly-lexical ``_tables`` generates.
    """
    seen: set[tuple[tuple[int, ...], ...]] = set()
    margins = proper_classes(g)
    for row_sums in margins:
        for col_sums in margins:
            for table in _tables(row_sums, col_sums):
                seen.add(canonical_entries(table))
    return [IntersectionMatrix(e) for e in sorted(seen, key=lambda e: (len(e), len(e[0]), e))]

