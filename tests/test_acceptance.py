"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines.

Criteria 4 and 7 assert the closed form min(2p, p+q-2, 2q) for the unitary
repeated-factor codimension.  The stratum enumeration refutes that value at
(p, q) = (2, 2) and (3, 3): the stratum of squares of plain abelian
k-folds (unitary_noncm with k = p = q) has codimension k(k-1)/2, which is
1 and 3 there.  Those two tests are therefore strict expected failures,
and companion tests pin the enumeration's actual values so the behavior
stays locked.  See "Two expected failures" in README.md.
"""

import itertools
import random
import time

import pytest

from moduli_strata.cli import run as cli_run
from moduli_strata.hecke_groups import gamma_gamma_codim
from moduli_strata.moduli import GroupExpr, SpAtom
from moduli_strata.partitions import (
    bell_number,
    block_sizes,
    enumerate_proper_partitions,
    meet,
)
from moduli_strata.planner import (
    SymplecticFamily,
    UnitaryFamily,
    kodaira_budget,
    plan_family,
    realize_group,
)
from moduli_strata.strata import DecompositionShape, mdec_codim_fixedpart
from moduli_strata.verify import run_check
from partition_helpers import intersection_matrix, relabel

MAX_PRODUCT_EXPECTED = {2: 6, 3: 17, 4: 32, 5: 51, 6: 74, 7: 101, 8: 132, 9: 167}


def report(number, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {verdict}{suffix}")


def test_c01_max_product_dimension():
    start = time.perf_counter()
    outcome = run_check("L5.5", 9)
    elapsed = time.perf_counter() - start
    values = {c.input["g"]: c.computed for c in outcome.cases}
    ok = (
        values == MAX_PRODUCT_EXPECTED
        and not outcome.disagreements
        and all(c.witness for c in outcome.cases)
        and elapsed < 60.0
    )
    report(1, "max product dimension 2g^2+g-4, g=2..9", ok, f"{elapsed:.1f}s")
    assert values == MAX_PRODUCT_EXPECTED
    assert not outcome.disagreements  # includes pair-sweep agreement for g <= 9
    assert all("pair sweep over" in c.note for c in outcome.cases)
    assert elapsed < 60.0


def test_c02_product_minimum():
    start = time.perf_counter()
    outcome = run_check("L3.1", 6)
    elapsed = time.perf_counter() - start
    ok = not outcome.disagreements and len(outcome.cases) == 125 and elapsed < 5.0
    report(2, "product minimum = 2*g1-2 over the [2,6]^<=4 box", ok, f"{len(outcome.cases)} cases")
    assert not outcome.disagreements
    assert len(outcome.cases) == 125
    assert elapsed < 5.0


def test_c03_fixedpart_minimum():
    anchor = mdec_codim_fixedpart(DecompositionShape((1,), (3,)))
    outcome = run_check("L3.2", 6)
    flagged = [c for c in outcome.cases if c.note]
    ok = anchor.codim == 3 and not outcome.disagreements and flagged
    report(3, "fixed-part minimum matches closed form, exceptions flagged", ok,
           f"{len(outcome.cases)} cases, {len(flagged)} flagged")
    assert anchor.codim == 3
    assert not outcome.disagreements  # zero silent divergences
    assert flagged  # out-of-regime shapes are flagged, not dropped


UNITARY_XFAIL_REASON = (
    "the closed form min(2p, p+q-2, 2q) overstates the minimum at (2,2) and "
    "(3,3): the square-of-a-k-fold stratum has codimension k(k-1)/2 there; "
    "see notes/decisions.md"
)


@pytest.mark.xfail(strict=True, reason=UNITARY_XFAIL_REASON)
def test_c04_unitary_minimum_closed_form():
    start = time.perf_counter()
    outcome = run_check("L3.3", 8)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert any("half-weight closed form" in n for n in outcome.notes)
    bad = [(c.input["p"], c.input["q"], c.expected, c.computed) for c in outcome.disagreements]
    report(4, "unitary minimum equals min(2p, p+q-2, 2q) everywhere", not bad, f"divergent: {bad}")
    assert not bad


def test_c04_unitary_minimum_actual_behavior():
    start = time.perf_counter()
    outcome = run_check("L3.3", 8)
    elapsed = time.perf_counter() - start
    bad = {(c.input["p"], c.input["q"]): (c.computed, c.expected) for c in outcome.disagreements}
    ok = (
        bad == {(2, 2): (1, 2), (3, 3): (3, 4)}
        and len(outcome.cases) == 63
        and any("half-weight closed form" in n for n in outcome.notes)
        and elapsed < 1.0
    )
    report(4, "unitary minimum: divergences exactly {(2,2),(3,3)}, noted not hidden", ok,
           f"{len(outcome.cases)} cases, {elapsed*1000:.0f}ms")
    assert bad == {(2, 2): (1, 2), (3, 3): (3, 4)}
    assert len(outcome.cases) == 63
    assert any("half-weight closed form" in n for n in outcome.notes)
    assert elapsed < 1.0
    # the fixed elliptic part never changes the value, divergent or not
    fixedpart = run_check("L3.4", 8)
    per_r = {}
    for c in fixedpart.cases:
        per_r.setdefault((c.input["p"], c.input["q"]), set()).add(c.computed)
    assert all(len(vals) == 1 for vals in per_r.values())


def test_c05_translate_margin():
    worst = {}
    for g in range(2, 8):
        codims = [gamma_gamma_codim(block_sizes(lam)) for lam in enumerate_proper_partitions(g)]
        worst[g] = min(codims)
    ok = all(v >= 4 for v in worst.values()) and worst[2] == 4
    report(5, "translate codimension >= 4 for every proper partition, g=2..7", ok,
           f"minima {worst}")
    assert all(v >= 4 for v in worst.values())
    assert worst[2] == 4  # equality attained


def test_c06_symplectic_planner():
    a = plan_family(SymplecticFamily((1,), (2,)))
    b = plan_family(SymplecticFamily((1,), (3,)))
    c = plan_family(SymplecticFamily((), (2, 2)))
    ok = (
        (a.d_max, a.monodromy.label, a.monodromy_dim) == (1, "Sp(4)", 10)
        and (b.d_max, b.monodromy.label, b.monodromy_dim) == (2, "Sp(6)", 21)
        and (c.d_max, c.monodromy_dim) == (1, 20)
    )
    report(6, "symplectic planner budgets and monodromy", ok)
    assert (a.d_max, a.monodromy.label, a.monodromy_dim) == (1, "Sp(4)", 10)
    assert (b.d_max, b.monodromy.label, b.monodromy_dim) == (2, "Sp(6)", 21)
    assert (c.d_max, c.monodromy_dim) == (1, 20)


@pytest.mark.xfail(strict=True, reason=UNITARY_XFAIL_REASON)
def test_c07_unitary_planner_closed_form():
    a = plan_family(UnitaryFamily(1, 2, 2))
    b = plan_family(UnitaryFamily(1, 3, 3))
    ok = (a.d_max, a.monodromy.label, a.monodromy_dim) == (1, "SU(2,2)", 15) and b.d_max == 3
    report(7, "unitary planner reaches the closed-form budgets", ok,
           f"computed d_max: (2,2)->{a.d_max}, (3,3)->{b.d_max}")
    assert (a.d_max, a.monodromy.label, a.monodromy_dim) == (1, "SU(2,2)", 15)
    assert b.d_max == 3


def test_c07_unitary_planner_actual_behavior():
    a = plan_family(UnitaryFamily(1, 2, 2))
    b = plan_family(UnitaryFamily(1, 3, 3))
    c = plan_family(UnitaryFamily(1, 2, 3))
    ok = (
        (a.monodromy.label, a.monodromy_dim, a.d_max, a.feasible) == ("SU(2,2)", 15, 0, False)
        and (b.monodromy_dim, b.d_max) == (35, 2)
        and (c.d_max, c.monodromy_dim) == (2, 24)
        and not a.mdec.agrees
        and any("below the closed-form bound" in n for n in a.notes)
    )
    report(7, "unitary planner: enumeration-backed budgets, divergence noted", ok,
           f"(2,2)->d_max {a.d_max}, (3,3)->d_max {b.d_max}, (2,3)->d_max {c.d_max}")
    assert (a.monodromy.label, a.monodromy_dim) == ("SU(2,2)", 15)
    assert (a.d_max, a.feasible) == (0, False)
    assert not a.mdec.agrees and any("below the closed-form bound" in n for n in a.notes)
    assert (b.monodromy_dim, b.d_max) == (35, 2)
    assert (c.d_max, c.monodromy_dim) == (2, 24)  # off-diagonal case is clean


def test_c08_kodaira_budgets():
    k3, k4 = kodaira_budget(3), kodaira_budget(4)
    higher = {g: kodaira_budget(g).feasible for g in range(5, 11)}
    chain4 = (k4.plan.mdec.codim, k4.torelli_codim, k4.post_torelli_budget, k4.plan.boundary.codim)
    ok = (
        k3.feasible and k3.plan.monodromy.label == "Sp(4)" and k3.post_torelli_budget == 2
        and k4.feasible and k4.plan.monodromy.label == "Sp(6)" and k4.post_torelli_budget == 2
        and chain4 == (3, 1, 2, 3)
        and not any(higher.values())
    )
    report(8, "curve-family budgets: genus 3,4 feasible, 5..10 not", ok, f"genus-4 chain {chain4}")
    assert k3.feasible and k3.plan.monodromy.label == "Sp(4)" and k3.post_torelli_budget == 2
    assert k4.feasible and k4.plan.monodromy.label == "Sp(6)" and k4.post_torelli_budget == 2
    assert chain4 == (3, 1, 2, 3)
    assert not any(higher.values())


def test_c09_realization_round_trip():
    count = 0
    for n_atoms in (1, 2, 3):
        for ranks in itertools.combinations_with_replacement(range(2, 6), n_atoms):
            target = GroupExpr(SpAtom(r) for r in ranks)
            for g_prime in range(sum(ranks), 16):
                outcome = plan_family(realize_group(target, g_prime))
                assert outcome.monodromy == target, (ranks, g_prime)
                assert outcome.d_max == min(ranks) - 1, (ranks, g_prime)
                count += 1
    report(9, "realize -> plan round-trips the monodromy group", True, f"{count} round trips")


def test_c10_partition_lattice_properties():
    bell_ok = all(
        len(enumerate_proper_partitions(g)) == bell_number(g) - 1 for g in range(2, 9)
    )

    laws_ok = True
    parts4 = enumerate_proper_partitions(4)
    for a in parts4:
        for b in parts4:
            m = meet(a, b)
            laws_ok &= m == meet(b, a)
            laws_ok &= meet(a, a) == a
            mat = intersection_matrix(a, b)
            laws_ok &= sorted(mat.row_sums) == sorted(block_sizes(a))
            laws_ok &= sorted(mat.col_sums) == sorted(block_sizes(b))
            laws_ok &= sum(mat.row_sums) == 4
    rng = random.Random(1906)
    triples = [(rng.choice(parts4), rng.choice(parts4), rng.choice(parts4)) for _ in range(300)]
    laws_ok &= all(meet(meet(a, b), c) == meet(a, meet(b, c)) for a, b, c in triples)

    relabel_ok = True
    for g in range(2, 7):
        parts = enumerate_proper_partitions(g)
        for _ in range(1000):
            a, b = rng.choice(parts), rng.choice(parts)
            perm = list(range(1, g + 1))
            rng.shuffle(perm)
            relabel_ok &= intersection_matrix(relabel(a, perm), relabel(b, perm)) == intersection_matrix(a, b)

    ok = bell_ok and laws_ok and relabel_ok
    report(10, "partition lattice: meet laws, margins, Bell counts, relabeling", ok)
    assert bell_ok and laws_ok and relabel_ok


def test_c11_insertion_increment():
    outcome = run_check("C5.3-increment", 6)
    total = sum(c.expected for c in outcome.cases)
    ok = not outcome.disagreements
    report(11, "subgroup dimension grows by 4l+3 per insertion, grounds 2..6", ok,
           f"{total} insertions")
    assert not outcome.disagreements


GOLDEN = [
    (["plan", "--fixed", "1", "--varying", "3", "--json"], 0),
    (["plan", "--varying", "2,2", "--json"], 0),
    (["plan", "--unitary", "2,3", "--elliptic", "1", "--json"], 0),
    (["plan", "--varying", "1,3"], 1),
    (["plan", "--unitary", "1,2", "--elliptic", "1"], 1),
    (["strata", "--varying", "2,3", "--json"], 0),
    (["strata", "--unitary", "3,1", "--json"], 0),
    (["gamma", "--g", "4", "--json"], 0),
    (["verify", "L5.5", "--g-max", "5", "--json"], 0),
    (["verify", "L3.3", "--g-max", "4", "--json"], 2),
    (["kodaira", "--genus", "5", "--require-feasible", "--json"], 3),
    (["no-such-command"], 1),
]


def test_c12_cli_determinism_and_exit_codes(capsys):
    ok = True
    details = []
    for argv, expected in GOLDEN:
        first_code = cli_run(argv)
        first = capsys.readouterr()
        second_code = cli_run(argv)
        second = capsys.readouterr()
        if first_code != expected or second_code != expected:
            ok = False
            details.append(f"{' '.join(argv)} -> {first_code}, want {expected}")
        if (first.out, first.err) != (second.out, second.err):
            ok = False
            details.append(f"nondeterministic output: {' '.join(argv)}")
    with capsys.disabled():
        report(12, "CLI byte determinism and exit codes over 12 golden calls", ok,
               "; ".join(details))
    assert ok, details
