"""Command-line behavior: determinism, schema, exit codes."""

import argparse
import ast
import contextlib
import errno
import io
import json
import os
import re
import signal
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moduli_strata import cli, hecke_groups, moduli, planner, strata, verify
from moduli_strata.cli import build_parser, run
from moduli_strata.errors import DimensionCalculusError
from moduli_strata.moduli import BoundaryCodim, GroupExpr, SpAtom
from stdout_digest import LISTING, digest, names_its_input, recorded

#: Requests whose output earlier refactors pinned; each must stay a line of
#: the golden listing and reproduce it.  The digests live only in the listing.
GOLDEN = (
    "plan --fixed 1 --varying 3 --json", "plan --varying 2,2 --json",
    "plan --unitary 2,3 --elliptic 1 --json", "plan --varying 1,3", "plan --unitary 1,2 --elliptic 1",
    "strata --varying 2,3 --json", "strata --unitary 3,1 --json", "gamma --g 4 --json",
    "verify L5.5 --g-max 5 --json", "verify L3.3 --g-max 4 --json",
    "kodaira --genus 5 --require-feasible --json", "no-such-command",
)
#: One cheap call per subcommand, each timed by ``run`` alone.
TIMED = (
    ["plan", "--varying", "2,3"], ["strata", "--varying", "2,3"], ["gamma", "--g", "4"],
    ["verify", "L3.1", "--g-max", "3"], ["kodaira", "--genus", "4"], ["realize", "--varying", "2,3", "--g", "7"],
)
#: calls that reach the fixed-part minimum
MEMOIZED_ROUTE = (
    "verify L3.2 --g-max 4 --json", "strata --fixed 1,4 --varying 3,5 --json",
    "strata --fixed 1,4 --varying 3,5 --witness-all --json",
)
#: calls that reach the pair sweep, the insertion check or the g > 8 witness
PARTITION_ROUTE = (
    "gamma --g 10 --json", "gamma --g 10 --witness-all --json", "verify C5.3-increment --g-max 7 --json",
    "verify C5.6 --g-max 6 --json", "verify L5.5 --g-max 7 --json", "gamma --g 8 --json",
    "gamma --g 8 --witness-all --json", "verify L5.5 --g-max 8 --json",
)
#: the unitary plan notes, the L3.4 cases, the --witness-all maximizers and the excluded-pair note
TRIMMED_SURFACE = (
    "plan --unitary 2,2 --elliptic 1", "plan --unitary 2,3 --elliptic 0 --json", "verify L3.4 --g-max 4 --json",
    "gamma --g 4 --witness-all --json", "gamma --g 9 --witness-all --json",
    "strata --fixed 3,5 --varying 2,4 --json",
)
#: plan's exit 3, which still prints the report, and the verify text digest
REPORT_PATH = (
    "plan --unitary 2,2 --elliptic 1 --require-feasible", "plan --unitary 2,2 --elliptic 1 --require-feasible --json",
    "verify L3.3 --g-max 4", "verify L5.5 --g-max 4",
)
LISTED = {tuple(sorted(argv.split(" "))): line.split(" ")[:3] for argv, line in recorded(LISTING.read_text()).items()}


def listed_outcome(argv: str) -> list[str]:
    """Exit code and digests listed for the request, whatever the order of its flags there."""
    key = tuple(sorted(argv.split(" ")))
    assert key in LISTED, f"{argv!r} is missing from tests/golden_stdout.txt"
    return LISTED[key]


def golden_outcome(argv: str) -> list[str]:
    return digest(argv).split(" ")[:3]


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_child(argv: list[str], **options) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter that imports this checkout's package and writes no bytecode."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
           "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "moduli_strata.cli", *argv]
    return subprocess.run(command, env=env, stderr=subprocess.PIPE, text=True, **options)


class TestExitCodes:
    @pytest.mark.parametrize("argv", GOLDEN, ids=str)
    def test_golden_set(self, capsys, argv):
        code, _, _ = invoke(capsys, argv.split(" "))
        assert str(code) == listed_outcome(argv)[0]

    @pytest.mark.parametrize("argv", GOLDEN, ids=str)
    def test_golden_bytes(self, argv):
        assert golden_outcome(argv) == listed_outcome(argv)

    @pytest.mark.parametrize("argv", MEMOIZED_ROUTE, ids=str)
    def test_memoized_route_bytes(self, argv):
        assert golden_outcome(argv) == listed_outcome(argv)

    @pytest.mark.parametrize("argv", PARTITION_ROUTE, ids=str)
    def test_partition_route_bytes(self, argv):
        assert golden_outcome(argv) == listed_outcome(argv)

    @pytest.mark.parametrize("argv", TRIMMED_SURFACE, ids=str)
    def test_trimmed_surface_bytes(self, argv):
        assert golden_outcome(argv) == listed_outcome(argv)

    @pytest.mark.parametrize("argv", REPORT_PATH, ids=str)
    def test_report_path_bytes(self, argv):
        assert golden_outcome(argv) == listed_outcome(argv)

    def test_require_feasible_passes_when_feasible(self, capsys):
        code, _, _ = invoke(capsys, ["kodaira", "--genus", "4", "--require-feasible"])
        assert code == 0

    def test_translate_margin_disagreement_path(self, capsys, monkeypatch):
        closed = verify.gamma_gamma_codim

        def off_by_four(sizes):
            return closed(sizes) + (4 if tuple(sizes) == (3, 1) else 0)

        monkeypatch.setattr(verify, "gamma_gamma_codim", off_by_four)
        bad = verify.run_check("C5.6", 5).disagreements
        assert [(c.input["block_sizes"], c.expected, c.computed) for c in bad] == [([3, 1], 8, 4)]
        assert bad[0].witness == {
            "block_sizes": [3, 1], "closed_form": 8, "completion_search": 4, "pair_sweep": 4,
        }
        code, out, err = invoke(capsys, ["verify", "C5.6", "--g-max", "5", "--json"])
        assert code == 2 and "Traceback" not in err
        assert json.loads(out)["result"]["summary"]["disagreements"] == 1

    def test_gamma_translate_codim_disagreement_exits_2(self, capsys, monkeypatch):
        # the closed form one too high for one class; the search value it meets was memoized by max_product_dim
        closed = cli.gamma_gamma_codim
        monkeypatch.setattr(cli, "gamma_gamma_codim", lambda sizes: closed(sizes) + (sizes == (3, 2, 1)))
        code, out, err = invoke(capsys, ["gamma", "--g", "6", "--json"])
        assert code == 2 and out == "" and "Traceback" not in err
        assert err == "moduli-strata: disagreement: translate codimension of (3, 2, 1): closed_form 13, search 12\n"

    def test_gamma_max_product_disagreement_exits_2(self, capsys, monkeypatch):
        # a searched maximum one below the closed form is reported, not raised
        real = cli.max_product_dim

        def shifted(g):
            maximum = real(g)
            return maximum._replace(value=maximum.value - 1)

        monkeypatch.setattr(cli, "max_product_dim", shifted)
        code, out, err = invoke(capsys, ["gamma", "--g", "5", "--json"])
        assert code == 2 and err == ""
        result = json.loads(out)["result"]
        assert result["agrees"] is False
        assert (result["max_product_dim"], result["closed_form"]) == (50, 51)

    @pytest.mark.parametrize(
        "name,lower,argv,fragment",
        [
            ("siegel_dim", (2,), "plan --varying 3",
             "Siegel boundary codimension at g = 3: closed_form 3, dimension_drop 2"),
            ("unitary_dim", (1, 2), "plan --unitary 2,3",
             "unitary boundary codimension at (2, 3): closed_form 4, dimension_drop 3"),
        ],
        ids=["siegel", "unitary"],
    )
    def test_boundary_codim_disagreement_exits_2(self, capsys, monkeypatch, name, lower, argv, fragment):
        # one more dimension on the boundary's lower space leaves a drop one too small
        real = getattr(moduli, name)
        monkeypatch.setattr(moduli, name, lambda *args: real(*args) + (args == lower))
        code, out, err = invoke(capsys, argv.split(" ") + ["--json"])
        assert code == 2 and out == "" and "Traceback" not in err
        assert err == f"moduli-strata: disagreement: {fragment}\n"

    def test_two_path_disagreement_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(strata, "siegel_dim", lambda g: g * (g + 1) // 2 + 1)
        code, out, err = invoke(capsys, ["strata", "--varying", "2,3", "--json"])
        assert code == 2 and out == "" and "Traceback" not in err
        assert err.startswith("moduli-strata: disagreement: ") and err.count("\n") == 1
        assert "closed 4, raw 3" in err

    def test_noncm_two_path_disagreement_exits_2(self, capsys, monkeypatch):
        # of the unitary strata only unitary_noncm reads siegel_dim; k = 1 at (2, 3) has codimension 3
        monkeypatch.setattr(strata, "siegel_dim", lambda g: g * (g + 1) // 2 + 1)
        code, out, err = invoke(capsys, ["strata", "--unitary", "2,3", "--json"])
        assert code == 2 and out == "" and "Traceback" not in err
        assert err.startswith("moduli-strata: disagreement: ") and err.count("\n") == 1
        assert "unitary_noncm(1) at (2, 3): closed 3, raw 2" in err

    @pytest.mark.parametrize(
        "name,shift,argv,fragment",
        [
            # a lone varying factor of dimension 2 has the one stratum b_diag(1, 1)
            ("siegel_dim", 1, "strata --varying 2", "b_diag of dimension 2 at d = 1: closed 2, raw 1"),
            # of these strata only c(1, 1), which absorbs a whole factor, reads siegel_dim(0)
            ("siegel_dim", 0, "strata --fixed 3 --varying 3", "c of dimensions 3, 3: closed 6, raw 5"),
            # the unitary_cm strata are enumerated before the unitary_noncm ones
            ("unitary_dim", 1, "strata --unitary 2,3", "unitary_cm(0, 2) at (2, 3): closed 4, raw 3"),
        ],
        ids=["b_diag", "c", "unitary_cm"],
    )
    def test_every_two_path_check_exits_2(self, capsys, monkeypatch, name, shift, argv, fragment):
        # shift 1 adds one to every value; shift 0 adds one to siegel_dim(0) alone
        real = getattr(strata, name)
        monkeypatch.setattr(strata, name, lambda *args: real(*args) + (shift or args == (0,)))
        strata._absorb_codim.cache_clear()  # a memoized c codimension would skip its check
        code, out, err = invoke(capsys, argv.split(" ") + ["--json"])
        assert code == 2 and out == "" and "Traceback" not in err
        assert err == f"moduli-strata: disagreement: codimension paths disagree for {fragment}\n"

    def test_budget_disagreement_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(planner, "siegel_boundary_codim", lambda g: BoundaryCodim(1, exact=True))
        code, out, err = invoke(capsys, ["plan", "--varying", "3", "--json"])
        assert code == 2 and out == "" and "Traceback" not in err
        assert "d_max 0, min_varying_minus_one 2" in err

    def test_kodaira_runs_the_budget_check(self, capsys, monkeypatch):
        monkeypatch.setattr(planner, "siegel_boundary_codim", lambda g: BoundaryCodim(1, exact=True))
        code, out, err = invoke(capsys, ["kodaira", "--genus", "4", "--json"])
        assert code == 2 and out == "" and "Traceback" not in err
        assert err.startswith("moduli-strata: disagreement: ") and err.count("\n") == 1

    def test_failed_realize_round_trip_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(planner, "derived_mt", lambda spec: GroupExpr([SpAtom(1)]))
        code, out, err = invoke(capsys, ["realize", "--varying", "2,3", "--g", "6", "--json"])
        assert code == 2 and err == ""
        result = json.loads(out)["result"]
        assert result["round_trip_ok"] is False and result["monodromy"] == "Sp(2)"

    def test_product_minimum_mismatch_is_reported(self, capsys, monkeypatch):
        closed = strata.fixedpart_closed_form
        monkeypatch.setattr(strata, "fixedpart_closed_form", lambda shape: closed(shape) + 1)
        result = strata.mdec_codim_fixedpart(strata.DecompositionShape((), (3, 3)))
        assert (result.codim, result.closed_form, result.agrees) == (4, 5, False)
        code, out, _ = invoke(capsys, ["strata", "--varying", "3,3", "--json"])
        assert code == 2 and json.loads(out)["result"]["agrees"] is False

    def test_product_minimum_disagreement_is_recorded(self, capsys, monkeypatch):
        _shift_minimum(monkeypatch, "mdec_codim_fixedpart", lambda shape: shape.varying_dims == (3, 3))
        bad = _failed_cases(capsys, "L3.1 --g-max 3")
        assert [(c["input"]["varying_dims"], c["expected"], c["computed"]) for c in bad] == [([3, 3], 4, 5)]

    def test_fixedpart_minimum_disagreement_is_recorded(self, capsys, monkeypatch):
        # every fixed part up to 3 fits under a varying (3, 3), so each of the 20 asserts its closed form
        _shift_minimum(monkeypatch, "mdec_codim_fixedpart", lambda shape: shape.varying_dims == (3, 3))
        bad = _failed_cases(capsys, "L3.2 --g-max 3")
        assert len(bad) == 20 and all(c["input"]["varying_dims"] == [3, 3] for c in bad)
        assert sorted(c["computed"] - c["expected"] for c in bad) == [1] * 20

    def test_unitary_minimum_disagreement_is_recorded(self, capsys, monkeypatch):
        _shift_minimum(monkeypatch, "mdec_codim_unitary", lambda p, q, strata: (p, q) == (2, 3))
        bad = _failed_cases(capsys, "L3.3 --g-max 3")
        assert [(c["input"]["p"], c["input"]["q"]) for c in bad] == [(2, 2), (2, 3), (3, 3)]

    def test_fixedpart_below_bound_exits_2(self, capsys, monkeypatch):
        # the memoized b_diag minimum reports a codimension-1 stratum
        monkeypatch.setattr(strata, "_diag_min", lambda gi: (1, 1))
        code, out, err = invoke(capsys, ["verify", "L3.2", "--g-max", "2", "--json"])
        assert code == 2 and out == "" and "Traceback" not in err
        assert err.startswith("moduli-strata: disagreement: fixed-part minimum below its bound")
        assert "minimum 1, bound 2" in err

    def test_memoized_minimum_mismatch_exits_2(self, capsys, monkeypatch):
        memoized = strata._diag_min

        def shifted(gi):
            codim, d = memoized(gi)
            return (codim - 1, d) if gi == 3 else (codim, d)

        # b_diag(1, 1) drops from 4 to 3 and wins the tie with c(1, 1) by kind
        monkeypatch.setattr(strata, "_diag_min", shifted)
        code, out, err = invoke(capsys, ["strata", "--fixed", "1", "--varying", "3,4", "--json"])
        assert code == 2 and out == "" and "Traceback" not in err
        assert err.startswith("moduli-strata: disagreement: memoized and enumerated minima differ")
        assert err.count("\n") == 1
        assert "memoized b_diag(1, 1) of codimension 3, enumerated c(1, 1) of codimension 3" in err

    def test_pair_sweep_route_disagreement(self, capsys, monkeypatch):
        sweep = verify.max_product_dim_by_pairs
        monkeypatch.setattr(verify, "max_product_dim_by_pairs", lambda g: sweep(g) + (g == 4))
        assert _failed_max_product_cases(capsys) == [4]

    def test_two_block_route_disagreement(self, capsys, monkeypatch):
        # the two-block route is the only reader of ``product_dim`` in L5.5; its pair has ground size g
        attained = verify.product_dim
        monkeypatch.setattr(verify, "product_dim", lambda lam, mu: attained(lam, mu) + (len(lam) == 3))
        assert _failed_max_product_cases(capsys) == [3]

    def test_two_block_witness_certificate(self, capsys, monkeypatch):
        # one less search codimension lifts the search maximum above what
        # the two-block witness attains, so the certificate must fail
        search = hecke_groups.gamma_gamma_codim_by_search
        monkeypatch.setattr(hecke_groups, "gamma_gamma_codim_by_search", lambda sizes: search(sizes) - 1)
        code, out, err = invoke(capsys, ["gamma", "--g", "9", "--json"])
        assert code == 2 and out == "" and "Traceback" not in err
        assert err.startswith("moduli-strata: disagreement: ") and err.count("\n") == 1

    def test_gamma_increment_disagreement_path(self, capsys, monkeypatch):
        # one too many whenever a block of size 3 is present, so every insertion that makes or grows one fails
        closed = verify.gamma_dim
        monkeypatch.setattr(verify, "gamma_dim", lambda sizes: closed(sizes) + (3 in sizes))
        code, out, err = invoke(capsys, ["verify", "C5.3-increment", "--g-max", "3", "--json"])
        assert code == 2 and "Traceback" not in err
        result = json.loads(out)["result"]
        assert result["summary"] == {"cases": 2, "disagreements": 2}
        assert all(not c["agree"] and c["computed"] < c["expected"] for c in result["cases"])

    def test_gamma_increment_expects_every_partition_of_the_next_ground(self, capsys, monkeypatch):
        # a sweep that skips the one-block partition at g = 4 misses its two insertions, which Bell(5) still counts
        every = verify.iter_all_partitions
        monkeypatch.setattr(verify, "iter_all_partitions", lambda g: (p for p in every(g) if g != 4 or max(p) > 0))
        bad = _failed_cases(capsys, "C5.3-increment --g-max 5")
        assert [(c["input"]["ground"], c["expected"], c["computed"]) for c in bad] == [(4, 52, 50)]

    def test_verify_disagreement_path(self, capsys):
        code, out, _ = invoke(capsys, ["verify", "L3.3", "--json"])
        assert code == 2
        payload = json.loads(out)
        bad = [c for c in payload["result"]["cases"] if not c["agree"]]
        assert [(c["input"]["p"], c["input"]["q"]) for c in bad] == [(2, 2), (3, 3)]


def _shift_minimum(monkeypatch, name: str, where) -> None:
    """Raise by one the minimum that ``verify.<name>`` returns for the arguments ``where`` accepts."""
    computed = getattr(verify, name)

    def shifted(*args):
        r = computed(*args)
        return r._replace(codim=r.codim + 1) if where(*args) else r

    monkeypatch.setattr(verify, name, shifted)


def _failed_cases(capsys, request: str) -> list[dict]:
    """The disagreeing cases of ``verify <request> --json``, which must exit 2."""
    code, out, err = invoke(capsys, ["verify", *request.split(" "), "--json"])
    assert code == 2 and "Traceback" not in err
    result = json.loads(out)["result"]
    bad = [c for c in result["cases"] if not c["agree"]]
    assert result["summary"]["disagreements"] == len(bad)
    return bad


def _failed_max_product_cases(capsys) -> list[int]:
    """The g of each disagreeing case of ``verify L5.5 --g-max 5``, which must exit 2."""
    return [c["input"]["g"] for c in _failed_cases(capsys, "L5.5 --g-max 5")]


def test_each_subcommand_names_its_handler():
    # the handler is bound where its subcommand is declared; no second table maps names to handlers
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert {name: p.get_default("handler") for name, p in commands.items()} == {
        name: getattr(cli, f"_cmd_{name}") for name in ("plan", "strata", "gamma", "verify", "kodaira", "realize")
    }
    assert not hasattr(cli, "_COMMANDS")


def test_strata_unitary_enumerates_once(capsys, monkeypatch):
    calls = []
    enumerate_strata = strata.strata_of_unitary

    def counted(p, q):
        calls.append((p, q))
        return enumerate_strata(p, q)

    # the CLI holds its own reference, so both names are counted
    monkeypatch.setattr(strata, "strata_of_unitary", counted)
    monkeypatch.setattr(cli, "strata_of_unitary", counted)
    assert invoke(capsys, ["strata", "--unitary", "3,2", "--json"])[0] == 0
    assert calls == [(3, 2)]


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["plan", "--fixed", "1", "--varying", "3", "--json"],
            ["strata", "--varying", "2,3", "--json"],
            ["gamma", "--g", "5", "--json"],
            ["verify", "L3.1", "--g-max", "4", "--json"],
            ["kodaira", "--genus", "4", "--json"],
            ["realize", "--varying", "2,3", "--g", "7", "--json"],
            ["plan", "--fixed", "1", "--varying", "3"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_byte_identical_reruns(self, capsys, argv):
        first = invoke(capsys, argv)
        second = invoke(capsys, argv)
        assert first == second

    @pytest.mark.parametrize("argv", TIMED, ids=lambda argv: argv[0])
    @pytest.mark.parametrize("form", [["--json"], []], ids=["json", "text"])
    def test_no_timing_fields_without_flag(self, capsys, argv, form):
        _, out, _ = invoke(capsys, argv + form)
        assert "elapsed" not in out and "timing" not in out

    def test_timing_flag_adds_elapsed(self, capsys):
        # the time is the envelope's, not the verify summary's
        _, out, _ = invoke(capsys, ["verify", "L3.1", "--g-max", "3", "--json", "--timing"])
        payload = json.loads(out)
        assert list(payload["timing"]) == ["elapsed_us"]
        assert list(payload["result"]["summary"]) == ["cases", "disagreements"]

    def test_timing_flag_in_text_summary(self, capsys):
        _, out, _ = invoke(capsys, ["verify", "L3.1", "--g-max", "3", "--timing"])
        lines = out.splitlines()
        at = lines.index("  summary:")
        assert [line.split(":")[0] for line in lines[at + 1:at + 4]] == [
            "    cases", "    disagreements", "  disagreements",
        ]
        assert lines[-2] == "timing:" and lines[-1].startswith("  elapsed_us: ")


def _check_timing(timing) -> None:
    assert list(timing) == ["elapsed_us"]
    assert type(timing["elapsed_us"]) is int and timing["elapsed_us"] >= 0


class TestTiming:
    """``--timing`` adds one ``timing`` block to the envelope on every subcommand, and nothing else."""

    @pytest.mark.parametrize("argv", TIMED, ids=lambda argv: argv[0])
    def test_json_gains_only_the_timing_block(self, capsys, argv):
        code, plain, _ = invoke(capsys, argv + ["--json"])
        timed_code, out, err = invoke(capsys, argv + ["--json", "--timing"])
        timed = json.loads(out)
        _check_timing(timed.pop("timing"))
        assert (timed_code, err) == (code, "") and timed == json.loads(plain)

    @pytest.mark.parametrize("argv", TIMED, ids=lambda argv: argv[0])
    def test_text_report_ends_with_the_timing_block(self, capsys, argv):
        code, plain, _ = invoke(capsys, argv)
        timed_code, out, _ = invoke(capsys, argv + ["--timing"])
        elapsed = int(out.rsplit("  elapsed_us: ", 1)[-1])
        assert timed_code == code and out == f"{plain}timing:\n  elapsed_us: {elapsed}\n" and elapsed >= 0

    @pytest.mark.parametrize("argv", TIMED, ids=lambda argv: argv[0])
    def test_out_file_holds_the_timing_block(self, capsys, argv, tmp_path):
        target = tmp_path / "report.json"
        _, quiet, _ = invoke(capsys, argv + ["--json", "--timing", "--out", str(target)])
        assert quiet == ""
        _check_timing(json.loads(target.read_text())["timing"])

    def test_no_handler_reads_the_flag(self):
        tree = ast.parse(Path(cli.__file__).read_text())
        readers = {top.name for top in tree.body for node in ast.walk(top)
                   if isinstance(node, ast.Attribute) and node.attr == "timing"}
        assert readers == {"run"}


class TestJsonSchema:
    @pytest.mark.parametrize(
        "argv",
        [
            ["plan", "--varying", "2,3", "--json"],
            ["strata", "--unitary", "2,3", "--json"],
            ["gamma", "--g", "4", "--json"],
            ["verify", "C5.6", "--g-max", "4", "--json"],
            ["kodaira", "--genus", "3", "--json"],
            ["realize", "--unitary", "2,2", "--g", "6", "--json"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_top_level_shape(self, capsys, argv):
        _, out, _ = invoke(capsys, argv)
        payload = json.loads(out)
        assert set(payload) == {"tool", "version", "command", "input", "result", "notes"}
        assert payload["tool"] == "moduli-strata"
        assert payload["command"] == argv[0]
        assert isinstance(payload["input"], dict)
        assert isinstance(payload["result"], dict)
        assert isinstance(payload["notes"], list)

    def test_numbers_are_integers(self, capsys):
        _, out, _ = invoke(capsys, ["plan", "--fixed", "1,2", "--varying", "3,4", "--json"])

        def walk(node):
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)
            else:
                assert node is None or isinstance(node, (str, int, bool))

        walk(json.loads(out))

    def test_plan_result_fields(self, capsys):
        _, out, _ = invoke(capsys, ["plan", "--fixed", "1", "--varying", "3", "--json"])
        result = json.loads(out)["result"]
        for key in (
            "total_g", "ambient_dim", "mdec_codim", "mdec_witness", "boundary_codim",
            "boundary_exact", "budget", "d_max", "monodromy", "monodromy_dim",
            "hecke_margin", "feasible",
        ):
            assert key in result
        assert result["monodromy"] == "Sp(6)"
        assert result["d_max"] == 2


class TestReportShapes:
    """Stratum, spec and atom reports list the record's fields in field order, then the CLI's own keys."""

    def test_stratum_report_follows_the_record(self):
        stratum = strata.strata_of_unitary(2, 3)[0]
        assert list(cli._stratum_dict(stratum)) == [*strata.Stratum._fields, "codim"]

    @pytest.mark.parametrize(
        "spec,added",
        [(planner.SymplecticFamily((1,), (3,)), ["level"]), (planner.UnitaryFamily(1, 2, 2), ["field_label", "level"])],
        ids=["symplectic", "unitary"],
    )
    def test_spec_report_follows_the_record(self, spec, added):
        assert list(cli._spec_dict(spec)) == ["flavor", *type(spec)._fields, *added]

    @pytest.mark.parametrize("atom", [SpAtom(3), moduli.SUFormAtom(2, 3)], ids=["sp", "su_form"])
    def test_atom_report_follows_the_record(self, atom):
        assert list(cli._atom_dict(atom)) == ["kind", *type(atom)._fields, "dim"]

    @pytest.mark.parametrize("notes", [(), ("a note",)], ids=["no_notes", "notes"])
    def test_tuples_render_like_the_equal_lists(self, notes):
        def payload(value, notes):
            return {"tool": "t", "version": "0", "command": "c", "input": value, "result": value, "notes": notes}

        as_tuples = {"sizes": (3, 1), "rows": ((2, 1), (1, 0)), "empty": (), "nested": [{"dims": (2,)}]}
        as_lists = {"sizes": [3, 1], "rows": [[2, 1], [1, 0]], "empty": [], "nested": [{"dims": [2]}]}
        assert cli._render_text(payload(as_tuples, notes)) == cli._render_text(payload(as_lists, list(notes)))


#: The six value types a report holds, with the strings and ints ``json.dumps`` escapes or widens.
_REPORT_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.sampled_from([-(2**200), 2**200, 10**50 + 1])
    | st.text() | st.sampled_from(['"', "\\", "\n", "\x01", "\x7f", "é", "\u2028", "\U0001f600", 'a"b\\c\nd'])
)
_REPORT_VALUES = st.recursive(
    _REPORT_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=25,
)
_Point = namedtuple("Point", "x y")


class TestJsonWriter:
    """The report writer gives the bytes of ``json.dumps(indent=2, sort_keys=True)`` on the six report types."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_REPORT_VALUES)
    def test_matches_the_stdlib_encoder(self, value):
        expected = json.dumps(value, indent=2, sort_keys=True)
        assert "".join(cli._json_chunks(value)) == cli._json_text(value, "\n") == expected

    @pytest.mark.parametrize("value", [{}, [], (), {"a": {}, "b": [], "c": ()}, [[[]], ((),)], {"cases": []}],
                             ids=repr)
    def test_empty_containers(self, value):
        assert "".join(cli._json_chunks(value)) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("bad", [1.5, 0.0, _Point(1, 2), {1, 2}, set()], ids=repr)
    @pytest.mark.parametrize("where", [lambda v: v, lambda v: {"result": {"cases": [{"input": v}]}}, lambda v: [(v,)]],
                             ids=["top", "in_dict", "in_list"])
    def test_other_types_raise(self, bad, where):
        with pytest.raises(TypeError, match="a report holds no "):
            "".join(cli._json_chunks(where(bad)))


class TestOutputTargets:
    def test_out_writes_file_and_keeps_stdout_quiet(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = invoke(
            capsys, ["plan", "--varying", "2,2", "--json", "--out", str(target)]
        )
        assert code == 0 and out == ""
        payload = json.loads(target.read_text())
        assert payload["result"]["d_max"] == 1

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        argv = ["verify", "L3.2", "--g-max", "3", "--json"]
        target = tmp_path / "report.json"
        _, out, _ = invoke(capsys, argv)
        code, quiet, _ = invoke(capsys, argv + ["--out", str(target)])
        assert code == 0 and quiet == ""
        assert target.read_bytes() == out.encode()

    @pytest.mark.parametrize("argv", ["plan --fixed 1 --varying 3", "verify L3.2 --g-max 3 --json"])
    def test_closed_stdout_is_one_usage_line(self, capsys, monkeypatch, argv):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = run(argv.split())
        assert code == 1
        assert capsys.readouterr().err == f"moduli-strata: error: cannot write stdout: {os.strerror(errno.EPIPE)}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    def test_full_stdout_is_one_usage_line(self):
        with open("/dev/full", "w") as full:
            done = invoke_child("plan --fixed 1 --varying 3".split(), stdout=full)
        assert done.returncode == 1 and "Traceback" not in done.stderr
        assert done.stderr == f"moduli-strata: error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"

    def test_witness_all_lists_maximizers(self, capsys):
        _, out, _ = invoke(capsys, ["gamma", "--g", "3", "--json", "--witness-all"])
        payload = json.loads(out)
        maxi = payload["result"]["maximizers"]
        assert payload["result"]["witness"] in maxi

    def test_strata_witness_all(self, capsys):
        _, out, _ = invoke(capsys, ["strata", "--varying", "2,2", "--json", "--witness-all"])
        payload = json.loads(out)
        mins = payload["result"]["minimizers"]
        assert all(s["codim"] == payload["result"]["min_codim"] for s in mins)

    def test_usage_error_message_on_stderr(self, capsys):
        code, out, err = invoke(capsys, ["plan"])
        assert code == 1 and out == "" and "error" in err

    @pytest.mark.parametrize(
        "argv,needle",
        [
            (["realize", "--varying", "0", "--g", "3"], "rank must be >= 1"),
            (["realize", "--unitary", "0,3", "--g", "5"], "realize: unitary parameters must be >= 1, got (0, 3)"),
            (["realize", "--unitary", "1,2", "--g", "3"], "p+q=3 < 4"),
            (["plan", "--unitary", "2,3", "--fixed", "1"], "--fixed applies only with --varying"),
            (["strata", "--unitary", "2,2", "--fixed", "1"], "--fixed applies only with --varying"),
            (["plan", "--varying", "2", "--unitary", "2,2"], "not allowed with"),
            (["realize", "--g", "5"], "one of the arguments --varying --unitary is required"),
            (["plan", "--varying", "3", "--witness-all"], "unrecognized arguments: --witness-all"),
            (["verify", "L3.1", "--witness-all"], "unrecognized arguments: --witness-all"),
            (["gamma", "--g", "1"], "gamma: need g >= 2, got 1"),
            (["gamma", "--g", "0"], "gamma: need g >= 2, got 0"),
            (["gamma", "--g", "-3"], "gamma: need g >= 2, got -3"),
            (["kodaira", "--genus", "4", "--witness-all"], "unrecognized arguments: --witness-all"),
            (["realize", "--varying", "2", "--g", "3", "--witness-all"], "unrecognized arguments: --witness-all"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else "",
    )
    def test_rejected_inputs_are_usage_errors(self, capsys, argv, needle):
        code, out, err = invoke(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("moduli-strata: error: ") and needle in err

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x"
        code, out, err = invoke(capsys, ["plan", "--varying", "3", "--out", str(target)])
        assert code == 1 and out == "" and not target.exists()
        assert err.startswith(f"moduli-strata: error: argument --out: cannot write {target}")

    def test_unwritable_out_fails_before_the_work(self, capsys, monkeypatch, tmp_path):
        def not_reached(*args):
            raise AssertionError("the suite ran before --out was checked")

        # the CLI holds its own reference, so both names are patched
        monkeypatch.setattr(verify, "run_check", not_reached)
        monkeypatch.setattr(cli, "run_check", not_reached)
        target = tmp_path / "missing" / "x"
        code, out, err = invoke(capsys, ["verify", "L3.2", "--g-max", "8", "--json", "--out", str(target)])
        assert code == 1 and out == "" and not target.exists()
        assert err == f"moduli-strata: error: argument --out: cannot write {target}: No such file or directory\n"

    def test_empty_out_is_usage_error(self, capsys):
        # an empty FILE is a path given, not an absent flag, so the report never reaches stdout
        code, out, err = invoke(capsys, ["plan", "--varying", "2,2", "--json", "--out", ""])
        assert code == 1 and out == ""
        assert err == "moduli-strata: error: argument --out: cannot write : No such file or directory\n"

    def test_write_failing_part_way_removes_a_created_out(self, tmp_path):
        resource = pytest.importorskip("resource")

        def small_files():  # in the child only: a write past 4096 bytes fails with EFBIG
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            resource.setrlimit(resource.RLIMIT_FSIZE, (4096, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))

        target = tmp_path / "created"  # the 58 kB report outgrows the limit part-way
        argv = ["verify", "L3.2", "--g-max", "3", "--json", "--out", str(target)]
        done = invoke_child(argv, stdout=subprocess.PIPE, preexec_fn=small_files)
        assert done.returncode == 1 and done.stdout == "" and "Traceback" not in done.stderr
        assert done.stderr == f"moduli-strata: error: argument --out: cannot write {target}: {os.strerror(errno.EFBIG)}\n"
        assert not target.exists()

    @pytest.mark.parametrize("argv,exit_code", [("plan --varying 1", 1), ("strata --varying 2,3", 2)], ids=str)
    def test_failed_command_leaves_out_as_it_found_it(self, capsys, monkeypatch, tmp_path, argv, exit_code):
        monkeypatch.setattr(strata, "siegel_dim", lambda g: g * (g + 1) // 2 + 1)  # the strata paths disagree
        created, found = tmp_path / "created", tmp_path / "found"
        found.write_text("an earlier report\n")
        before = found.stat().st_mtime_ns
        for target in (created, found):
            code, out, _ = invoke(capsys, argv.split(" ") + ["--json", "--out", str(target)])
            assert code == exit_code and out == ""
        assert not created.exists()
        assert found.read_text() == "an earlier report\n" and found.stat().st_mtime_ns == before

    @pytest.mark.parametrize("lemma,g_max", [("L5.5", 1), ("L3.1", -3), ("C5.6", 1), ("C5.3-increment", 0)])
    def test_empty_verify_box_is_usage_error(self, capsys, lemma, g_max):
        code, out, err = invoke(capsys, ["verify", lemma, "--g-max", str(g_max)])
        assert code == 1 and out == ""
        assert f"checks no case at --g-max {g_max}; the smallest box is --g-max 2" in err

    @pytest.mark.parametrize("lemma", sorted(verify.CHECKS))
    def test_min_g_max_is_every_suites_smallest_box(self, lemma):
        smallest = verify.MIN_G_MAX
        message = f"{lemma} checks no case at --g-max {smallest - 1}; the smallest box is --g-max {smallest}"
        with pytest.raises(DimensionCalculusError, match=re.escape(message)):
            verify.run_check(lemma, smallest - 1)
        assert verify.run_check(lemma, verify.MIN_G_MAX).cases

    def test_elliptic_needs_unitary(self, capsys):
        for elliptic in ("-2", "0"):  # 0 is falsy, yet given
            code, out, err = invoke(capsys, ["plan", "--varying", "3", "--elliptic", elliptic])
            assert code == 1 and out == ""
            assert err.startswith("moduli-strata: error: ") and "--elliptic" in err


class TestInputLimits:
    @pytest.mark.parametrize(
        "argv,needle",
        [
            (["plan", "--varying", "1000000000"], "argument --varying: dimensions add up to 1000000000"),
            (["plan", "--unitary", "2,2", "--elliptic", "1000000000000"], "argument --elliptic: 1000000000000"),
            (["plan", "--unitary", "2,2", "--elliptic", str(10**20)], f"argument --elliptic: {10**20}"),
            (["realize", "--varying", "2", "--g", "1000000000000"], "argument --g: 1000000000000"),
            (["verify", "L3.2", "--g-max", "100000"], "argument --g-max: 100000"),
            (["gamma", "--g", "1200"], "argument --g: 1200"),
            (["kodaira", "--genus", "1000000000"], "argument --genus: 1000000000"),
            (["strata", "--fixed", "100,101", "--varying", "3"], "argument --fixed: dimensions add up to 201"),
            (["strata", "--unitary", "100,101"], "argument --unitary: dimensions add up to 201"),
            (["gamma", "--g", "21"], "argument --g: 21 is above the limit 20"),
            (["verify", "L5.5", "--g-max", "10"], "argument --g-max: 10 is above the limit 9"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else "",
    )
    def test_above_limit_is_usage_error(self, capsys, argv, needle):
        code, out, err = invoke(capsys, argv)
        assert code == 1 and out == "" and "Traceback" not in err
        assert err.startswith("moduli-strata: error: ") and err.count("\n") == 1 and needle in err

    @pytest.mark.parametrize("argv", [["gamma", "--g", "20"], ["verify", "L3.2", "--g-max", "9"]], ids=" ".join)
    def test_limit_itself_is_accepted(self, argv):
        build_parser().parse_args(argv)  # parsed only: each run takes seconds

    @pytest.mark.parametrize(
        "argv",
        [
            ["plan", "--fixed", "200", "--varying", "2," * 99 + "2"],
            ["plan", "--unitary", "100,100", "--elliptic", "200"],
            ["strata", "--unitary", "100,100"],
            ["kodaira", "--genus", "200"],
            ["realize", "--varying", "2", "--g", "200"],
        ],
        ids=lambda argv: " ".join(argv)[:40],
    )
    def test_largest_cheap_requests_run(self, capsys, argv):
        assert invoke(capsys, argv)[0] == 0


class TestTranslateMargin:
    def test_large_spec_margin(self, capsys):
        # g = 28 with largest block 7: the closed form gives 4 * (28 - 7)
        code, out, _ = invoke(capsys, ["plan", "--fixed", "1,2,3,4", "--varying", "5,6,7", "--json"])
        assert code == 0
        assert json.loads(out)["result"]["hecke_margin"] == 84


#: far beyond every input limit, either sign; values between the small
#: ranges and the limits are left out because they take seconds each
_HUGE = st.integers(10**3, 10**20) | st.integers(-10**20, -10**3)
_DIMS = st.lists(st.integers(0, 5) | _HUGE, max_size=3).map(lambda xs: ",".join(map(str, xs)))
_INT = (st.integers(-1, 6) | _HUGE).map(str)
_VALUES = {
    "--fixed": _DIMS, "--varying": _DIMS, "--unitary": _DIMS, "--elliptic": _INT, "--g": _INT,
    "--genus": _INT, "--g-max": (st.integers(-2, 4) | _HUGE).map(str),
    "--out": st.sampled_from([os.devnull, "/nonexistent-dir/report"]),
    "--json": None, "--timing": None, "--witness-all": None, "--require-feasible": None,
}
_FLAVOR = ["--varying", "--unitary"]
#: (flags every call gets, one of which flags, optional flags) per subcommand;
#: verify always gets a small box because the default boxes take seconds
_GRAMMAR = {
    "plan": ([], _FLAVOR, ["--fixed", "--elliptic", "--require-feasible"]),
    "strata": ([], _FLAVOR, ["--fixed", "--witness-all"]),
    "gamma": (["--g"], [], ["--witness-all"]),
    "verify": (["--g-max"], [], []),
    "kodaira": (["--genus"], [], ["--require-feasible"]),
    "realize": (["--g"], _FLAVOR, []),
}


@st.composite
def argvs(draw):
    """A well-formed call, now and then with one more flag of any subcommand."""
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    required, one_of, optional = _GRAMMAR[command]
    argv = [command] + ([draw(st.sampled_from(sorted(verify.CHECKS)))] if command == "verify" else [])
    flags = required + ([draw(st.sampled_from(one_of))] if one_of else [])
    flags += draw(st.lists(st.sampled_from(optional + ["--json", "--timing", "--out"]), unique=True))
    flags += draw(st.lists(st.sampled_from(sorted(set(_VALUES) - {"--g-max"})), max_size=1))
    for flag in flags:
        argv.append(flag)
        if _VALUES[flag] is not None:
            argv.append(draw(_VALUES[flag]))
    return argv


class TestArgvFuzz:
    @settings(max_examples=200, deadline=None)
    @given(argvs())
    def test_exit_code_and_no_traceback(self, argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code == 1:
            assert names_its_input(err.getvalue()), err.getvalue()
