"""The package's records: immutable named tuples and one mutable report builder.

Records are ``collections.namedtuple`` subclasses, so importing the CLI
does not load ``dataclasses``; these tests pin what a record type change
could move without any output changing: validation messages, immutability,
reprs quoted in disagreement messages, canonical orders and hashing.
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
    GroupExpr,
    IntersectionMatrix,
    InvalidShape,
    RankTooSmall,
    SpAtom,
    SpecInvalid,
    Stratum,
    SUFormAtom,
    UnitaryBoundViolated,
    UnitaryFamily,
    VaryingDimTooSmall,
    VerificationRun,
    kodaira_budget,
    max_product_dim,
    plan_family,
)
from moduli_strata.verify import CHECKS


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
        (lambda: SpAtom(0), RankTooSmall, "Sp atom rank must be >= 1, got 0"),
        (lambda: SUFormAtom(0, 2), UnitaryBoundViolated, "SU-form parameters must be >= 1, got (0, 2)"),
        (lambda: SUFormAtom(2, 0), UnitaryBoundViolated, "SU-form parameters must be >= 1, got (2, 0)"),
        (lambda: UnitaryFamily(-1, 2, 2), SpecInvalid, "elliptic factor count -1 < 0"),
        (lambda: UnitaryFamily(0, 0, 4), SpecInvalid, "unitary parameters (0,4) must be >= 1"),
        (lambda: UnitaryFamily(0, 1, 2), SpecInvalid, "p+q=3 < 4"),
        (lambda: DecompositionShape((), ()), VaryingDimTooSmall, "at least one varying factor is required"),
        (lambda: DecompositionShape((1,), (3, 1)), VaryingDimTooSmall, "varying dimensions must be >= 2, got (3, 1)"),
        (lambda: DecompositionShape((0, 2), (2,)), InvalidShape, "fixed dimensions must be >= 1, got (0, 2)"),
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
    ],
)
def test_validation_keeps_its_exception_and_message(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


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
    expr = GroupExpr.of([SUFormAtom(2, 1), SpAtom(3), SUFormAtom(1, 2), SpAtom(1)])
    assert expr.atoms == (SpAtom(1), SpAtom(3), SUFormAtom(1, 2), SUFormAtom(2, 1))
    assert [type(a) for a in expr.atoms] == [SpAtom, SpAtom, SUFormAtom, SUFormAtom]
    assert expr == GroupExpr((SpAtom(3), SUFormAtom(2, 1), SpAtom(1), SUFormAtom(1, 2)))
    assert expr.label == "Sp(2) x Sp(6) x SU(1,2) x SU(2,1)"


def test_row_permuted_matrices_are_one_key():
    a = IntersectionMatrix(((2, 0, 1), (0, 1, 1)))
    b = IntersectionMatrix(((0, 1, 1), (2, 0, 1)))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_verification_runs_share_no_lists():
    first, second = VerificationRun("L3.1", "a"), VerificationRun("L3.2", "b")
    first.cases.append("case")
    first.notes.append("note")
    assert second.cases == [] and second.notes == []
    assert first.cases is not second.cases and first.notes is not second.notes
