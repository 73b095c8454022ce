"""The package's export list: every name resolves, once.

The benchmark tracer (``perfbench/trace_worker.py``) looks up every entry
of ``__all__``, so a stale entry breaks traced runs.  The report shapes
live in ``cli`` alone, so no library module keeps one, an equality of
routes is enforced by ``errors.agree`` alone, so ``Disagreement`` is
built only there and in the fixed-part bound, every verification case
is built by one of two builders in ``verify``, only ``cli.run`` reads
the clock, no record stores a verdict or budget beside the values it is
derived from, no record has a second constructor, the completion search
has one entry and reads no closed form, each formula for the pair
dimension has one entry (the definition ``product_dim`` reads ``meet``'s
refinement, and one class sweep per ground size is the only reader of the
block gains), only the matrix-type enumeration canonicalizes a matrix, and
no library module imports a name it never reads.
"""

import ast
from pathlib import Path

import pytest

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
           "VaryingDimTooSmall", "TargetTooLarge", "UnitaryBoundViolated", "UnrealizableTarget", "GenusTooSmall",
           "_check_two_paths", "_best_against", "two_block_witness_value")


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


def test_no_record_stores_a_derived_value():
    derived = {"agrees", "feasible", "budget", "d_max", "post_torelli_budget"}
    classes = {value for module in LIBRARY for value in vars(module).values() if isinstance(value, type)}
    records = {c for c in classes if hasattr(c, "_fields")}
    assert records and not [(r.__name__, f) for r in records for f in r._fields if f in derived]


def test_no_record_has_a_second_constructor():
    # ``__new__`` turns the input into the stored tuple; a classmethod beside it would convert a second time
    classes = {value for module in LIBRARY for value in vars(module).values() if isinstance(value, type)}
    records = {c for c in classes if hasattr(c, "_fields")} | {verify.VerificationRun}
    assert records and not [(r.__name__, n) for r in records for n, v in vars(r).items() if isinstance(v, classmethod)]


def test_no_library_record_shapes_its_report():
    classes = {value for module in LIBRARY for value in vars(module).values() if isinstance(value, type)}
    assert sorted(c.__name__ for c in classes if "to_dict" in vars(c)) == []


def test_agree_returns_the_common_value_or_names_every_route():
    assert errors.agree("same", a=3, b=3, c=3) == 3
    with pytest.raises(errors.Disagreement) as info:
        errors.agree("what", a=1, b=2)
    assert info.value.values == {"a": 1, "b": 2} and str(info.value) == "what: a 1, b 2"
    with pytest.raises(errors.Disagreement, match="^what: a 1, b 1, c 2$"):
        errors.agree("what", a=1, b=1, c=2)


#: Where ``Disagreement`` is built: ``agree``, and the one check that is no
#: equality of routes, the fixed-part bound in ``mdec_codim_fixedpart``.
DISAGREEMENT_SITES = [("errors.py", "agree"), ("strata.py", "mdec_codim_fixedpart")]


#: Where the clock is read: ``run`` starts and stops the one timer of every
#: subcommand's handler for ``--timing``.
TIMER_SITES = [("cli.py", "run")] * 2


#: Where ``CaseRecord`` is built: the two builders that derive each verdict.
CASE_SITES = [("verify.py", "_min_case"), ("verify.py", "_routes_case")]


def _call_sites(callee: str) -> list[tuple[str, str | None]]:
    """(module file, top-level definition) of every call to ``callee`` in the package."""
    sites = []
    for path in sorted(Path(moduli_strata.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                if isinstance(node, ast.Call) and getattr(func, "id", getattr(func, "attr", None)) == callee:
                    sites.append((path.name, getattr(top, "name", None)))
    return sorted(sites)


def test_routes_are_compared_only_through_agree():
    assert _call_sites("Disagreement") == DISAGREEMENT_SITES


def test_one_timer_serves_every_subcommand():
    assert _call_sites("perf_counter") == TIMER_SITES


def test_cases_are_built_only_by_the_two_builders():
    assert _call_sites("CaseRecord") == CASE_SITES


#: The completion search: ``gamma_gamma_codim_by_search`` is its one entry,
#: memoized by ``_search`` on the validated sizes, and ``_best_fill``
#: recurses on what ``_columns`` leaves.
SEARCH = [("hecke_groups.py", "_best_fill"), ("hecke_groups.py", "_search")]


def test_completion_search_has_one_entry_and_reads_no_closed_form():
    assert _call_sites("_search") == [("hecke_groups.py", "gamma_gamma_codim_by_search")]
    assert _call_sites("_columns") == SEARCH
    assert _call_sites("_best_fill") == SEARCH
    # an independent route: no part of the search reads 4(g - largest block)
    search = {"_columns", "_best_fill", "_search", "gamma_gamma_codim_by_search"}
    assert not [site for site in _call_sites("gamma_gamma_codim") if site[1] in search]


#: The class sweep: one per ground size, read by the pair sweep of L5.5 and by the pair route of C5.6.
CLASS_SWEEP = [("hecke_groups.py", "gamma_gamma_codims_by_pairs"), ("hecke_groups.py", "max_product_dim_by_pairs")]


def test_block_gains_have_one_entry():
    assert _call_sites("_sweep") == [("hecke_groups.py", "_class_sweep")]
    assert _call_sites("_class_sweep") == CLASS_SWEEP


def test_product_dim_is_the_definition():
    # it reads the refinement ``meet`` builds and none of the block gains, so L5.5's two-block route is its own
    reads = {callee: ("hecke_groups.py", "product_dim") in _call_sites(callee) for callee in ("meet", "_sweep")}
    assert reads == {"meet": True, "_sweep": False}


def test_only_the_type_enumeration_canonicalizes():
    # ``IntersectionMatrix`` keeps its entries as given; a matrix type is named where types are enumerated
    assert _call_sites("canonical_entries") == [("partitions.py", "enumerate_matrix_types")]


def _unread_imports(path: Path) -> list[str]:
    """Names ``path`` imports, ``from __future__`` aside, that it never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_no_module_imports_a_name_it_never_reads():
    # ``__init__`` imports only to re-export; every other module must read what it imports
    modules = [p for p in sorted(Path(moduli_strata.__file__).parent.glob("*.py")) if p.name != "__init__.py"]
    unread = {p.name: _unread_imports(p) for p in modules}
    assert unread and not any(unread.values()), unread
