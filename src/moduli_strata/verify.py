"""Named verification suites: closed forms versus independent enumeration.

Each suite sweeps a parameter box, recomputes a published closed form by
brute-force enumeration, and returns every case in a ``VerificationRun``;
the command line shapes the report.  Disagreements are data, never
suppressed: they flip the ``agree`` flag and drive the exit code.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .errors import GroundTooSmall
from .hecke_groups import (
    gamma_dim,
    gamma_gamma_codim,
    gamma_gamma_codim_by_pairs,
    gamma_gamma_codim_by_search,
    max_product_dim,
    max_product_dim_by_pairs,
    two_block_witness_value,
)
from .moduli import sp_dim
from .partitions import (
    bell_number,
    block_sizes,
    integer_partitions,
    iter_all_partitions,
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

    def __init__(self, lemma_id: str, parameter_range: str) -> None:
        self.lemma_id = lemma_id
        self.parameter_range = parameter_range
        self.cases: list[CaseRecord] = []
        self.notes: list[str] = []

    @property
    def disagreements(self) -> list[CaseRecord]:
        return [c for c in self.cases if not c.agree]


def _min_case(inputs: dict, result: MinCodim, expected: int | None, agree: bool, note: str = "") -> CaseRecord:
    """A stratum-minimum case: the enumerated minimum, named by its witness."""
    return CaseRecord(inputs, expected, result.codim, agree, witness=result.witness.label, note=note)


def _routes_agree(routes: dict[str, int]) -> bool:
    """A case agrees when every route gives the same value."""
    return len(set(routes.values())) == 1


def _sorted_tuples(values: range, max_len: int):
    for length in range(1, max_len + 1):
        yield from itertools.combinations_with_replacement(values, length)


def _unitary_box(g_max: int):
    return ((p, q) for p in range(1, g_max + 1) for q in range(1, g_max + 1) if p + q >= 3)


def run_product_min(g_max: int) -> VerificationRun:
    """Minimal codimension in pure products equals 2*g1 - 2."""
    run = VerificationRun("L3.1", f"sorted tuples, entries in [2,{g_max}], length <= 4")
    for dims in _sorted_tuples(range(2, g_max + 1), 4):
        result = mdec_codim_fixedpart(DecompositionShape((), dims))
        expected = 2 * dims[0] - 2
        run.cases.append(_min_case({"varying_dims": list(dims)}, result, expected, result.codim == expected))
    return run


def run_fixedpart_min(g_max: int) -> VerificationRun:
    """Fixed-part minimum equals its closed form wherever that is asserted.

    Shapes whose fixed part exceeds some varying factor have empty
    absorption strata; there the closed form is not asserted and the case
    is recorded as flagged with the enumeration as the value of record.
    Every shape's minimum is also bounded below by its smallest varying
    dimension; ``mdec_codim_fixedpart`` raises ``Disagreement`` when it is
    not, which ends the run with exit code 2.
    """
    run = VerificationRun("L3.2", f"fixed/varying dims <= {g_max}, <= 3 factors each")
    fixed_choices = [()] + list(_sorted_tuples(range(1, g_max + 1), 3))
    varying_choices = list(_sorted_tuples(range(2, g_max + 1), 3))
    for fixed in fixed_choices:
        for varying in varying_choices:
            result = mdec_codim_fixedpart(DecompositionShape(fixed, varying))
            bound_only = result.closed_form is None
            inputs = {"fixed_dims": list(fixed), "varying_dims": list(varying)}
            note = "closed form not asserted (empty absorption strata); bound check only" if bound_only else ""
            run.cases.append(_min_case(inputs, result, result.closed_form, result.agrees, note))
    flagged = sum(c.expected is None for c in run.cases)
    run.notes.append(f"{flagged} shapes flagged with empty absorption strata")
    return run


def run_unitary_min(g_max: int) -> VerificationRun:
    """Unitary minimal codimension versus min(2p, p+q-2, 2q)."""
    run = VerificationRun("L3.3", f"1 <= p, q <= {g_max}, p+q >= 3")
    run.notes.append(NONCM_DISPLAY_NOTE)
    for p, q in _unitary_box(g_max):
        result = mdec_codim_unitary(p, q, strata_of_unitary(p, q))
        run.cases.append(
            _min_case({"p": p, "q": q}, result, result.closed_form, result.agrees, note="; ".join(result.notes))
        )
    return run


def run_unitary_fixedpart_min(g_max: int) -> VerificationRun:
    """The L3.3 minimum, re-read for each fixed elliptic count r in 0..3.

    No stratum depends on r yet, so each case repeats the L3.3 case at (p, q).
    """
    run = VerificationRun("L3.4", f"r in 0..3, 1 <= p, q <= {g_max}, p+q >= 3")
    run.notes.append(NONCM_DISPLAY_NOTE)
    for r in range(0, 4):
        for p, q in _unitary_box(g_max):
            result = mdec_codim_unitary(p, q, strata_of_unitary(p, q))
            run.cases.append(
                _min_case({"elliptic_count": r, "p": p, "q": q}, result, result.closed_form, result.agrees)
            )
    return run


def run_gamma_increment(g_max: int) -> VerificationRun:
    """Inserting one element into a block of size l adds exactly 4l + 3.

    For every partition of every ground size up to g_max and every
    insertion position (including a new singleton block), the subgroup
    dimension grows by 4l + 3.
    """
    run = VerificationRun("C5.3-increment", f"all partitions on grounds 2..{g_max}, all insertions")
    for g in range(2, g_max + 1):
        checks = 0
        failures = 0
        for part in iter_all_partitions(g):
            sizes = block_sizes(part)
            base = gamma_dim(sizes)
            # element g + 1 joins block idx; idx = len(sizes) opens a singleton
            for idx, l in enumerate(sizes + (0,)):
                checks += 1
                if gamma_dim(block_sizes(part + (idx,))) - base != 4 * l + 3:
                    failures += 1
        run.cases.append(
            CaseRecord({"ground": g}, checks, checks - failures, failures == 0)
        )
    return run


#: Largest ground size at which L5.5 also runs the direct pair sweep.
PAIR_SWEEP_LIMIT = 9


def run_max_product(g_max: int) -> VerificationRun:
    """Maximum product dimension equals 2g^2 + g - 4.

    Canonical matrix types are exhausted up to g = 8 and the completion
    search runs above it; up to PAIR_SWEEP_LIMIT the value is also
    recomputed by the direct pair sweep, whose note counts the
    (Bell(g) - 1)^2 pairs it covers by relabelling invariance, and the
    two-block witness family is checked to attain the maximum.
    """
    run = VerificationRun("L5.5", f"g in 2..{g_max}")
    for g in range(2, g_max + 1):
        result = max_product_dim(g)
        routes = {"closed_form": sp_dim(g) - 4, "maximizer": result.value}
        notes = []
        if g <= PAIR_SWEEP_LIMIT:
            routes["pair_sweep"] = max_product_dim_by_pairs(g)[0]
            notes.append(f"pair sweep over {(bell_number(g) - 1) ** 2} pairs gives {routes['pair_sweep']}")
        routes["two_block"] = two_block_witness_value(g)
        notes.append(f"two-block family attains {routes['two_block']}")
        run.cases.append(
            CaseRecord(
                {"g": g},
                routes["closed_form"],
                result.value,
                _routes_agree(routes),
                witness=[list(r) for r in result.witness.entries],
                note="; ".join(notes),
            )
        )
    return run


#: Largest ground size at which C5.6 also runs the direct pair sweep.
PAIR_ROUTE_LIMIT = 5


def run_translate_margin(g_max: int) -> VerificationRun:
    """Translate codimension equals 4(g - largest block), hence is >= 4.

    The closed form is the expected value and the completion search the
    computed one; up to PAIR_ROUTE_LIMIT the direct pair sweep must agree
    too.  The value depends only on the block-size multiset, so each
    multiset class is verified once and covers all its partitions.
    """
    run = VerificationRun("C5.6", f"g in 2..{g_max}, all proper partition classes")
    for g in range(2, g_max + 1):
        for sizes in integer_partitions(g):
            if len(sizes) < 2:
                continue
            routes = {
                "closed_form": gamma_gamma_codim(sizes),
                "completion_search": gamma_gamma_codim_by_search(sizes),
            }
            if g <= PAIR_ROUTE_LIMIT:
                routes["pair_sweep"] = gamma_gamma_codim_by_pairs(sizes)
            agree = _routes_agree(routes)
            run.cases.append(
                CaseRecord(
                    {"g": g, "block_sizes": list(sizes)},
                    routes["closed_form"],
                    routes["completion_search"],
                    agree,
                    witness=None if agree else {"block_sizes": list(sizes), **routes},
                )
            )
    run.notes.append(
        f"routes: closed form 4(g - largest block) (expected) vs completion search (computed) for g "
        f"in 2..{g_max}; direct pair sweep also for g in 2..{min(g_max, PAIR_ROUTE_LIMIT)}"
    )
    run.notes.append("class values cover every partition with the same block sizes")
    return run


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
    """Run one named suite; unknown ids raise KeyError.

    A box that holds no case raises GroundTooSmall: a run that checks
    nothing must not report that everything agrees.
    """
    spec = CHECKS[check_id]
    run = spec.runner(g_max if g_max is not None else spec.default_g_max)
    if not run.cases:
        raise GroundTooSmall(
            f"verify {check_id} checks no case at --g-max {g_max}; the smallest box is --g-max {MIN_G_MAX}"
        )
    return run
