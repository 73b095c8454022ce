"""Named verification suites: closed forms versus independent enumeration.

Each suite sweeps a parameter box, recomputes a published closed form by
brute-force enumeration, and returns its range, cases and notes, which
``run_check`` wraps in a ``VerificationRun``; the command line shapes the
report.  ``_min_case`` and ``_routes_case`` build every case and derive its
verdict from the values it judges.  Disagreements are data, never
suppressed: they clear the ``agree`` flag and drive the exit code.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .errors import DimensionCalculusError
from .hecke_groups import (
    gamma_dim,
    gamma_gamma_codim,
    gamma_gamma_codim_by_pairs,
    gamma_gamma_codim_by_search,
    max_product_dim,
    max_product_dim_by_pairs,
    product_dim,
)
from .partitions import (
    bell_number,
    block_sizes,
    iter_all_partitions,
    proper_classes,
)
from .strata import (
    NONCM_DISPLAY_NOTE,
    DecompositionShape,
    MinCodim,
    mdec_codim_fixedpart,
    mdec_codim_unitary,
    strata_of_unitary,
)


class CaseRecord(namedtuple("CaseRecord", "input expected computed agree witness note", defaults=(None, ""))):
    """One verified case: the input, both values, and the verdict."""

    __slots__ = ()


class VerificationRun:
    """Outcome of one named suite over its parameter box."""

    __slots__ = ("lemma_id", "parameter_range", "cases", "notes")

    def __init__(self, lemma_id: str, parameter_range: str, cases: list[CaseRecord], notes: list[str]) -> None:
        self.lemma_id = lemma_id
        self.parameter_range = parameter_range
        self.cases = cases
        self.notes = notes

    @property
    def disagreements(self) -> list[CaseRecord]:
        return [c for c in self.cases if not c.agree]


#: What each suite returns: its parameter range, its cases and its notes.
SuiteResult = tuple[str, list[CaseRecord], list[str]]


def _min_case(inputs: dict, result: MinCodim, note: str = "") -> CaseRecord:
    """A stratum-minimum case: the closed form and the enumerated minimum, named by its witness."""
    return CaseRecord(inputs, result.closed_form, result.codim, result.agrees, witness=result.witness.label, note=note)


def _routes_case(inputs: dict, routes: dict[str, int], witness: object = None, note: str = "") -> CaseRecord:
    """Expected is the first route, computed the second; the case agrees when every route gives one value."""
    expected, computed, *_ = routes.values()
    return CaseRecord(inputs, expected, computed, len(set(routes.values())) == 1, witness, note)


def _sorted_tuples(values: range, max_len: int):
    for length in range(1, max_len + 1):
        yield from itertools.combinations_with_replacement(values, length)


def _unitary_box(g_max: int):
    return ((p, q) for p in range(1, g_max + 1) for q in range(1, g_max + 1) if p + q >= 3)


def run_product_min(g_max: int) -> SuiteResult:
    """Minimal codimension in pure products equals 2*g1 - 2, the closed form with no fixed part."""
    cases = [
        _min_case({"varying_dims": list(dims)}, mdec_codim_fixedpart(DecompositionShape((), dims)))
        for dims in _sorted_tuples(range(2, g_max + 1), 4)
    ]
    return f"sorted tuples, entries in [2,{g_max}], length <= 4", cases, []


def run_fixedpart_min(g_max: int) -> SuiteResult:
    """Fixed-part minimum equals its closed form wherever that is asserted.

    Shapes whose fixed part exceeds some varying factor have empty
    absorption strata; there the closed form is not asserted and the case
    is recorded as flagged with the enumeration as the value of record.
    Every shape's minimum is also bounded below by its smallest varying
    dimension; ``mdec_codim_fixedpart`` raises ``Disagreement`` when it is
    not, which ends the run with exit code 2.
    """
    fixed_choices = [()] + list(_sorted_tuples(range(1, g_max + 1), 3))
    varying_choices = list(_sorted_tuples(range(2, g_max + 1), 3))
    cases = []
    for fixed in fixed_choices:
        for varying in varying_choices:
            result = mdec_codim_fixedpart(DecompositionShape(fixed, varying))
            bound_only = result.closed_form is None
            inputs = {"fixed_dims": list(fixed), "varying_dims": list(varying)}
            note = "closed form not asserted (empty absorption strata); bound check only" if bound_only else ""
            cases.append(_min_case(inputs, result, note))
    notes = [f"{sum(c.expected is None for c in cases)} shapes flagged with empty absorption strata"]
    return f"fixed/varying dims <= {g_max}, <= 3 factors each", cases, notes


def run_unitary_min(g_max: int) -> SuiteResult:
    """Unitary minimal codimension versus min(2p, p+q-2, 2q)."""
    cases = []
    for p, q in _unitary_box(g_max):
        result = mdec_codim_unitary(p, q, strata_of_unitary(p, q))
        cases.append(_min_case({"p": p, "q": q}, result, note="; ".join(result.notes)))
    return f"1 <= p, q <= {g_max}, p+q >= 3", cases, [NONCM_DISPLAY_NOTE]


def run_unitary_fixedpart_min(g_max: int) -> SuiteResult:
    """The L3.3 minimum, re-read for each fixed elliptic count r in 0..3.

    No stratum depends on r yet, so each case repeats the L3.3 case at (p, q).
    """
    minima = [(p, q, mdec_codim_unitary(p, q, strata_of_unitary(p, q))) for p, q in _unitary_box(g_max)]
    cases = [_min_case({"elliptic_count": r, "p": p, "q": q}, result) for r in range(0, 4) for p, q, result in minima]
    return f"r in 0..3, 1 <= p, q <= {g_max}, p+q >= 3", cases, [NONCM_DISPLAY_NOTE]


def run_gamma_increment(g_max: int) -> SuiteResult:
    """Inserting one element into a block of size l adds exactly 4l + 3.

    For every partition of every ground size up to g_max and every
    insertion position (including a new singleton block), the subgroup
    dimension grows by 4l + 3.  A ground's case expects Bell(g + 1)
    insertions, one per partition of {1..g+1}, and counts the exact ones.
    """
    cases = []
    for g in range(2, g_max + 1):
        exact = 0
        for part in iter_all_partitions(g):
            sizes = block_sizes(part)
            base = gamma_dim(sizes)
            # element g + 1 joins block idx; idx = len(sizes) opens a singleton
            for idx, l in enumerate(sizes + (0,)):
                exact += gamma_dim(block_sizes(part + (idx,))) - base == 4 * l + 3
        cases.append(_routes_case({"ground": g}, {"insertions": bell_number(g + 1), "exact_increments": exact}))
    return f"all partitions on grounds 2..{g_max}, all insertions", cases, []


#: Largest ground size at which L5.5 also runs the direct pair sweep.
PAIR_SWEEP_LIMIT = 9


def run_max_product(g_max: int) -> SuiteResult:
    """Maximum product dimension equals 2g^2 + g - 4.

    The maximizer takes the completion-search value at every g; up to
    g = 8 the two-block witness must be the only canonical matrix type
    attaining it.  Up to PAIR_SWEEP_LIMIT the value is also recomputed by
    the direct pair sweep, whose note counts the (Bell(g) - 1)^2 pairs it
    covers by relabelling invariance.  At every g ``product_dim`` of
    {1..g-1 | g} versus {1 | 2..g} must attain the maximum.
    """
    cases = []
    for g in range(2, g_max + 1):
        result = max_product_dim(g)
        routes = {"closed_form": result.closed_form, "maximizer": result.value}
        notes = []
        if g <= PAIR_SWEEP_LIMIT:
            routes["pair_sweep"] = max_product_dim_by_pairs(g)
            notes.append(f"pair sweep over {(bell_number(g) - 1) ** 2} pairs gives {routes['pair_sweep']}")
        routes["two_block"] = product_dim((0,) * (g - 1) + (1,), (0,) + (1,) * (g - 1))
        notes.append(f"two-block family attains {routes['two_block']}")
        witness = [list(r) for r in result.witness.entries]
        cases.append(_routes_case({"g": g}, routes, witness, "; ".join(notes)))
    return f"g in 2..{g_max}", cases, []


#: Largest ground size at which C5.6 also runs the direct pair sweep.
PAIR_ROUTE_LIMIT = 5


def run_translate_margin(g_max: int) -> SuiteResult:
    """Translate codimension equals 4(g - largest block), hence is >= 4.

    The closed form is the expected value and the completion search the
    computed one; up to PAIR_ROUTE_LIMIT the direct pair sweep must agree
    too.  The value depends only on the block-size multiset, so each
    multiset class is verified once and covers all its partitions.  A
    disagreeing case names every route in its witness.
    """
    cases = []
    for g in range(2, g_max + 1):
        for sizes in proper_classes(g):
            routes = {
                "closed_form": gamma_gamma_codim(sizes),
                "completion_search": gamma_gamma_codim_by_search(sizes),
            }
            if g <= PAIR_ROUTE_LIMIT:
                routes["pair_sweep"] = gamma_gamma_codim_by_pairs(sizes)
            case = _routes_case({"g": g, "block_sizes": list(sizes)}, routes)
            cases.append(case if case.agree else case._replace(witness={"block_sizes": list(sizes), **routes}))
    notes = [
        f"routes: closed form 4(g - largest block) (expected) vs completion search (computed) for g "
        f"in 2..{g_max}; direct pair sweep also for g in 2..{min(g_max, PAIR_ROUTE_LIMIT)}",
        "class values cover every partition with the same block sizes",
    ]
    return f"g in 2..{g_max}, all proper partition classes", cases, notes


class CheckSpec(namedtuple("CheckSpec", "runner default_g_max")):
    """A suite's runner, called with --g-max, and its default box."""

    __slots__ = ()


#: Every suite's box is empty below this --g-max (no dimension or ground
#: size 2 is left to check) and non-empty from it on.
MIN_G_MAX = 2

CHECKS: dict[str, CheckSpec] = {
    "L3.1": CheckSpec(run_product_min, 6),
    "L3.2": CheckSpec(run_fixedpart_min, 6),
    "L3.3": CheckSpec(run_unitary_min, 8),
    "L3.4": CheckSpec(run_unitary_fixedpart_min, 8),
    "C5.3-increment": CheckSpec(run_gamma_increment, 6),
    "L5.5": CheckSpec(run_max_product, 8),
    "C5.6": CheckSpec(run_translate_margin, 7),
}


def run_check(check_id: str, g_max: int | None = None) -> VerificationRun:
    """Run one named suite, named by its ``CHECKS`` key; unknown ids raise KeyError.

    A box that holds no case raises DimensionCalculusError: a run that checks
    nothing must not report that everything agrees.
    """
    spec = CHECKS[check_id]
    parameter_range, cases, notes = spec.runner(g_max if g_max is not None else spec.default_g_max)
    if not cases:
        raise DimensionCalculusError(
            f"{check_id} checks no case at --g-max {g_max}; the smallest box is --g-max {MIN_G_MAX}"
        )
    return VerificationRun(check_id, parameter_range, cases, notes)
