"""Test-side views of block-id tuples.

The library stores a partition of {1, ..., g} only as its block-id tuple
(restricted growth string).  The tests also build partitions from explicit
blocks, relabel the ground set, and compare pairs by their intersection
matrix; those views live here because no command needs them.  So does the
row-order enumeration that ``canonical_entries`` replaced, kept as its
reference.
"""

import itertools
from math import factorial

from moduli_strata.errors import DimensionCalculusError
from moduli_strata.partitions import IntersectionMatrix, canonical_entries, renumber


def blocks(*parts):
    """The block-id tuple of explicit blocks covering {1, ..., g}."""
    labels = [None] * sum(len(b) for b in parts)
    for i, block in enumerate(parts):
        for x in block:
            labels[x - 1] = i
    return renumber(labels)


def blocks_of(partition):
    """The blocks of a block-id tuple as sets of elements."""
    return [{x for x, b in enumerate(partition, start=1) if b == i} for i in range(max(partition) + 1)]


def relabel(partition, perm):
    """Apply a permutation of the ground set; perm[i-1] is the image of i."""
    labels = [0] * len(partition)
    for x, b in enumerate(partition, start=1):
        labels[perm[x - 1] - 1] = b
    return renumber(labels)


def intersection_matrix(lam, mu):
    """Intersection-matrix type of a pair of partitions: its counts, canonicalized by ``canonical_entries``."""
    if len(lam) != len(mu):
        raise DimensionCalculusError(f"ground sizes differ: {len(lam)} vs {len(mu)}")
    counts = [[0] * (max(mu) + 1) for _ in range(max(lam) + 1)]
    for a, b in zip(lam, mu):
        counts[a][b] += 1
    return IntersectionMatrix(canonical_entries(tuple(map(tuple, counts))))


def realize(matrix):
    """A pair of partitions whose intersection matrix is the given type.

    Elements are laid out cell by cell: element x joins block j of the
    first partition and block k of the second when it falls in cell (j, k).
    """
    cells = [(j, k) for j, row in enumerate(matrix.entries) for k, count in enumerate(row) for _ in range(count)]
    return renumber(j for j, _ in cells), renumber(k for _, k in cells)


def _group_indices(sums):
    """Indices grouped by value, groups ordered by descending value."""
    by_value = {}
    for i, s in enumerate(sums):
        by_value.setdefault(s, []).append(i)
    return [by_value[v] for v in sorted(by_value, reverse=True)]


def _group_cost(groups):
    cost = 1
    for grp in groups:
        cost *= factorial(len(grp))
    return cost


def _orders(groups):
    for combo in itertools.product(*(itertools.permutations(grp) for grp in groups)):
        yield tuple(itertools.chain.from_iterable(combo))


def canonical_entries_by_orders(entries):
    """Reference for ``canonical_entries``: try every order of the cheaper side.

    Every arrangement of the rows inside their sum groups is tried, the
    columns then sorted greedily inside theirs (or the other way round when
    the columns have fewer orders), and the least result kept.
    """
    row_groups = _group_indices([sum(r) for r in entries])
    col_groups = _group_indices([sum(c) for c in zip(*entries)])
    best = None
    if _group_cost(row_groups) <= _group_cost(col_groups):
        for row_order in _orders(row_groups):
            cols = list(zip(*(entries[i] for i in row_order)))
            arranged_cols = []
            for grp in col_groups:
                arranged_cols.extend(sorted(cols[j] for j in grp))
            candidate = tuple(zip(*arranged_cols))
            if best is None or candidate < best:
                best = candidate
    else:
        for col_order in _orders(col_groups):
            rows = list(zip(*(tuple(r[j] for r in entries) for j in col_order)))
            arranged_rows = []
            for grp in row_groups:
                arranged_rows.extend(sorted(rows[i] for i in grp))
            candidate = tuple(arranged_rows)
            if best is None or candidate < best:
                best = candidate
    return best
