"""The package's export list: every name resolves, once.

The benchmark tracer (``perfbench/trace_worker.py``) looks up every entry
of ``__all__``, so a stale entry breaks traced runs.
"""

import moduli_strata
from moduli_strata import hecke_groups, moduli, partitions, strata

#: Removed when their formulas got a single home, or when partitions became
#: block-id tuples, or when nothing read them; they must not come back.
DELETED = ("Siegel", "UnitarySpace", "ModuliSpace", "boundary_codim", "sp_total_dim", "strata_of_product",
           "mdec_codim_product", "SetPartition", "partition_from_rgs", "realize_matrix", "intersection_matrix",
           "mdec_codim_unitary_fixedpart")


def test_no_duplicates():
    assert len(moduli_strata.__all__) == len(set(moduli_strata.__all__))


def test_every_entry_resolves():
    missing = [name for name in moduli_strata.__all__ if not hasattr(moduli_strata, name)]
    assert missing == []


def test_deleted_names_are_gone():
    assert not set(DELETED) & set(moduli_strata.__all__)
    for module in (moduli_strata, moduli, hecke_groups, partitions, strata):
        assert not [name for name in DELETED if hasattr(module, name)]
