"""The package's records: immutable named tuples and the verification run.

Records are ``collections.namedtuple`` subclasses, so importing the CLI
does not load ``dataclasses``; these tests pin what a record type change
could move without any output changing: validation messages, immutability,
reprs quoted in disagreement messages, canonical orders and hashing.
``VerificationRun`` is a slotted class that ``run_check`` builds once, and
a verdict such as ``MinCodim.agrees`` is derived from the values it judges,
as are the planner's budgets and feasibility.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import moduli_strata
from moduli_strata import (
    BoundaryCodim,
    CaseRecord,
    DecompositionShape,
    MinCodim,
    DimensionCalculusError,
    GroupExpr,
    IntersectionMatrix,
    KodairaReport,
    PlanReport,
    SpAtom,
    Stratum,
    SUFormAtom,
    SymplecticFamily,
    UnitaryFamily,
    VerificationRun,
    bell_number,
    enumerate_matrix_types,
    enumerate_proper_partitions,
    kodaira_budget,
    max_product_dim,
    mdec_codim_fixedpart,
    mdec_codim_unitary,
    max_product_dim_by_pairs,
    plan_family,
    run_check,
    strata_of_unitary,
    unitary_boundary_codim,
)
from moduli_strata.hecke_groups import MaxProductDim
from moduli_strata.moduli import quarter_exact, siegel_dim, unitary_dim
from moduli_strata.partitions import canonical_entries, proper_classes
from moduli_strata.verify import CHECKS, MIN_G_MAX


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter: pytest itself has already imported both
    src = str(Path(moduli_strata.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import json, sys; import moduli_strata.cli; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    loaded = set(json.loads(out.stdout))
    assert "moduli_strata.cli" in loaded
    assert not {"dataclasses", "inspect"} & loaded


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: SpAtom(0), DimensionCalculusError, "Sp atom rank must be >= 1, got 0"),
        (lambda: SUFormAtom(0, 2), DimensionCalculusError, "unitary parameters must be >= 1, got (0, 2)"),
        (lambda: SUFormAtom(2, 0), DimensionCalculusError, "unitary parameters must be >= 1, got (2, 0)"),
        (lambda: UnitaryFamily(-1, 2, 2), DimensionCalculusError, "elliptic factor count -1 < 0"),
        (lambda: UnitaryFamily(0, 0, 4), DimensionCalculusError, "unitary parameters must be >= 1, got (0, 4)"),
        (lambda: UnitaryFamily(0, 1, 2), DimensionCalculusError, "p+q=3 < 4"),
        (lambda: DecompositionShape((), ()), DimensionCalculusError, "at least one varying factor is required"),
        (lambda: DecompositionShape((1,), (3, 1)), DimensionCalculusError, "varying dimensions must be >= 2, got (3, 1)"),
        (lambda: DecompositionShape((0, 2), (2,)), DimensionCalculusError, "fixed dimensions must be >= 1, got (0, 2)"),
        # an iterator is checked as the tuple it becomes, in the order given
        (lambda: SymplecticFamily((), iter(())), DimensionCalculusError, "at least one varying factor is required"),
        (lambda: SymplecticFamily((), iter([3, 1])), DimensionCalculusError, "varying dimensions must be >= 2, got (3, 1)"),
        (
            lambda: Stratum("b_diag", (1, 1), 3, 4),
            ValueError,
            "stratum dimension exceeds ambient: Stratum(kind='b_diag', params=(1, 1), ambient_dim=3, stratum_dim=4)",
        ),
        (lambda: IntersectionMatrix(()), ValueError, "matrix must be nonempty"),
        (lambda: IntersectionMatrix(((),)), ValueError, "matrix must be nonempty"),
        (lambda: IntersectionMatrix(((1, 0), (1,))), ValueError, "ragged matrix"),
        (lambda: IntersectionMatrix(((1, -1), (1, 1))), ValueError, "entries must be >= 0"),
        (lambda: IntersectionMatrix(((1, 1), (0, 0))), ValueError, "zero row"),
        (lambda: IntersectionMatrix(((1, 0), (1, 0))), ValueError, "zero column"),
        (lambda: GroupExpr(()), ValueError, "a group expression needs at least one atom"),
        (lambda: GroupExpr(iter(())), ValueError, "a group expression needs at least one atom"),
        (lambda: siegel_dim(-1), ValueError, "dimension must be >= 0, got -1"),
        (lambda: unitary_dim(-1, 0), ValueError, "parameters must be >= 0, got (-1, 0)"),
        (lambda: bell_number(-1), ValueError, "n must be >= 0"),
        (lambda: quarter_exact(2), ArithmeticError, "expected a multiple of 4, got 2"),
        (lambda: run_check("nope"), KeyError, "'nope'"),
        (
            lambda: mdec_codim_unitary(2, 2, ()),
            DimensionCalculusError,
            "at least one stratum is required for the unitary minimum at (2, 2)",
        ),
    ],
)
def test_validation_keeps_its_exception_and_message(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("p, q", [(0, 2), (2, 0)])
@pytest.mark.parametrize(
    "entry",
    [SUFormAtom, lambda p, q: UnitaryFamily(0, p, q), strata_of_unitary, unitary_boundary_codim],
    ids=["SUFormAtom", "UnitaryFamily", "strata_of_unitary", "unitary_boundary_codim"],
)
def test_unitary_rule_has_one_message(entry, p, q):
    # every entry point reads SUFormAtom's check
    with pytest.raises(DimensionCalculusError) as info:
        entry(p, q)
    assert type(info.value) is DimensionCalculusError
    assert str(info.value) == f"unitary parameters must be >= 1, got ({p}, {q})"


@pytest.mark.parametrize("g", (-1, 0, 1))
@pytest.mark.parametrize(
    "entry",
    [
        max_product_dim,
        max_product_dim_by_pairs,
        enumerate_matrix_types,
        enumerate_proper_partitions,
        proper_classes,
    ],
    ids=lambda f: f.__name__,
)
def test_ground_rule_has_one_message(entry, g):
    with pytest.raises(DimensionCalculusError) as info:
        entry(g)
    assert type(info.value) is DimensionCalculusError
    assert str(info.value) == f"need g >= 2, got {g}"


def _every_record():
    plan = plan_family(DecompositionShape((1,), (3,)))
    return [
        BoundaryCodim(3, True),
        SpAtom(2),
        SUFormAtom(2, 1),
        GroupExpr((SpAtom(2),)),
        IntersectionMatrix(((1, 1), (1, 0))),
        max_product_dim(4),
        Stratum("c", (0, 1), 6, 3),
        DecompositionShape((1,), (3,)),
        plan.mdec,
        UnitaryFamily(1, 2, 2),
        plan,
        kodaira_budget(4),
        CHECKS["L3.1"],
        CaseRecord({"g": 2}, 6, 6, True),
    ]


@pytest.mark.parametrize("record", _every_record(), ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_reprs_keep_the_field_format_quoted_in_disagreements():
    assert repr(DecompositionShape((3, 1), (4, 2))) == "DecompositionShape(fixed_dims=(1, 3), varying_dims=(2, 4))"
    assert repr(UnitaryFamily(1, 2, 3)) == "UnitaryFamily(elliptic_count=1, p=2, q=3)"
    assert f"{UnitaryFamily(1, 2, 3)}" == repr(UnitaryFamily(1, 2, 3))


def test_group_expr_orders_mixed_atoms_canonically():
    expr = GroupExpr([SUFormAtom(2, 1), SpAtom(3), SUFormAtom(1, 2), SpAtom(1)])
    assert expr.atoms == (SpAtom(1), SpAtom(3), SUFormAtom(1, 2), SUFormAtom(2, 1))
    assert [type(a) for a in expr.atoms] == [SpAtom, SpAtom, SUFormAtom, SUFormAtom]
    assert expr == GroupExpr((SpAtom(3), SUFormAtom(2, 1), SpAtom(1), SUFormAtom(1, 2)))
    assert expr.label == "Sp(2) x Sp(6) x SU(1,2) x SU(2,1)"


def test_row_permuted_matrices_are_one_key():
    # the key is the type, ``canonical_entries``; the records keep their entries and compare them entry by entry
    a = IntersectionMatrix(((2, 0, 1), (0, 1, 1)))
    b = IntersectionMatrix(((0, 1, 1), (2, 0, 1)))
    assert len({canonical_entries(a.entries), canonical_entries(b.entries)}) == 1
    assert canonical_entries(a.entries) == ((1, 2, 0), (1, 0, 1))
    assert a != b and len({a, b}) == 2


@pytest.mark.parametrize(
    "from_iterator, from_tuples",
    [
        (lambda: SymplecticFamily((d for d in [1]), (d for d in [3, 4])), lambda: SymplecticFamily((1,), (3, 4))),
        (lambda: IntersectionMatrix(r for r in [[1, 0], [0, 1]]), lambda: IntersectionMatrix(((1, 0), (0, 1)))),
    ],
    ids=["SymplecticFamily", "IntersectionMatrix"],
)
def test_an_iterator_input_equals_the_tuple_input(from_iterator, from_tuples):
    # each constructor stores the tuple its input becomes, so a one-pass iterator is read once
    assert from_iterator() == from_tuples()


def test_run_check_returns_a_run_whose_cases_are_a_list():
    # the benchmark tracer sizes a tuple by its length and a run by its cases
    run = run_check("L3.1", MIN_G_MAX)
    assert isinstance(run, VerificationRun) and not isinstance(run, tuple)
    assert isinstance(run.cases, list) and isinstance(run.notes, list)


@pytest.mark.parametrize("check_id", sorted(CHECKS))
def test_case_inputs_hold_only_ints_and_tuples(check_id):
    # immutable inputs, so a case is safe to share; the report writes each tuple as a JSON array
    def kinds(value):
        return {tuple}.union(*map(kinds, value)) if type(value) is tuple else {type(value)}

    for case in run_check(check_id, 3).cases:
        assert set().union(*map(kinds, case.input.values())) <= {int, tuple}, case.input


@pytest.mark.parametrize("check_id", sorted(CHECKS))
def test_every_run_is_named_by_its_checks_key(check_id):
    assert run_check(check_id, MIN_G_MAX).lemma_id == check_id


@pytest.mark.parametrize(
    "minimum",
    [mdec_codim_fixedpart(DecompositionShape((1,), (3, 3))), mdec_codim_unitary(2, 3, strata_of_unitary(2, 3))],
    ids=["fixedpart", "unitary"],
)
def test_min_codim_derives_its_verdict(minimum):
    assert "agrees" not in MinCodim._fields
    assert minimum.closed_form is not None and minimum.agrees is True
    assert minimum._replace(codim=minimum.codim + 1).agrees is False
    assert minimum._replace(closed_form=None, codim=minimum.codim + 1).agrees is True


def test_max_product_dim_derives_its_verdict():
    maximum = max_product_dim(5)
    assert "agrees" not in MaxProductDim._fields
    assert maximum.agrees is True
    assert maximum._replace(value=maximum.value - 1).agrees is False


def test_planner_records_store_only_what_was_computed():
    assert PlanReport._fields == ("spec", "mdec", "boundary", "monodromy", "hecke_margin", "notes")
    assert KodairaReport._fields == ("plan", "torelli_codim", "notes")


def test_plan_budget_follows_its_minima():
    r = plan_family(DecompositionShape((1,), (3,)))
    assert (r.budget, r.d_max, r.feasible) == (3, 2, True)
    lowered = r._replace(boundary=BoundaryCodim(1, True))
    assert (lowered.budget, lowered.d_max, lowered.feasible) == (1, 0, False)


def test_kodaira_budget_follows_its_torelli_codim():
    k = kodaira_budget(4)
    assert (k.fiber_genus, k.post_torelli_budget, k.feasible) == (4, 2, True)
    raised = k._replace(torelli_codim=4)
    assert raised.post_torelli_budget == -1 and raised.feasible is False
