"""The package's export list: every name resolves, once.

The benchmark tracer (``perfbench/trace_worker.py``) looks up every entry
of ``__all__``, so a stale entry breaks traced runs.  The report shapes
live in ``cli`` alone, so no library module keeps one.
"""

import moduli_strata
from moduli_strata import errors, hecke_groups, moduli, partitions, planner, strata, verify

LIBRARY = (moduli_strata, errors, moduli, hecke_groups, partitions, strata, planner, verify)

#: Removed when their formulas got a single home, or when partitions became
#: block-id tuples, or when nothing read them, or when every broken rule
#: became one exception named by its message; they must not come back.
DELETED = ("Siegel", "UnitarySpace", "ModuliSpace", "boundary_codim", "sp_total_dim", "strata_of_product",
           "mdec_codim_product", "SetPartition", "partition_from_rgs", "realize_matrix", "intersection_matrix",
           "mdec_codim_unitary_fixedpart", "spec_to_dict", "atom_to_dict",
           "GroundTooSmall", "GroundMismatch", "NotProper", "SpecInvalid", "InvalidShape", "RankTooSmall",
           "VaryingDimTooSmall", "TargetTooLarge", "UnitaryBoundViolated", "UnrealizableTarget", "GenusTooSmall")


def test_no_duplicates():
    assert len(moduli_strata.__all__) == len(set(moduli_strata.__all__))


def test_every_entry_resolves():
    missing = [name for name in moduli_strata.__all__ if not hasattr(moduli_strata, name)]
    assert missing == []


def test_deleted_names_are_gone():
    assert not set(DELETED) & set(moduli_strata.__all__)
    for module in LIBRARY:
        assert not [name for name in DELETED if hasattr(module, name)]


def test_one_exception_per_exit_code():
    # a broken rule exits 1, two routes that differ exit 2; the message, not a subclass, names the rule
    defined = {
        value for module in LIBRARY for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, BaseException) and value.__module__.startswith("moduli_strata")
    }
    assert defined == {errors.DimensionCalculusError, errors.Disagreement}
    assert errors.Disagreement.__bases__ == (errors.DimensionCalculusError,)


def test_no_library_record_shapes_its_report():
    classes = {value for module in LIBRARY for value in vars(module).values() if isinstance(value, type)}
    assert sorted(c.__name__ for c in classes if "to_dict" in vars(c)) == []
