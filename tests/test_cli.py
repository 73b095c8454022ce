"""Command-line behavior: determinism, schema, exit codes."""

import contextlib
import hashlib
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moduli_strata import hecke_groups, planner, strata, verify
from moduli_strata.cli import build_parser, run
from moduli_strata.errors import GroundTooSmall
from moduli_strata.moduli import BoundaryCodim

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

#: sha256 of the exact stdout of each GOLDEN call, recorded from the
#: release before the spec types were merged; refactors must keep them.
GOLDEN_STDOUT_SHA256 = {
    "plan --fixed 1 --varying 3 --json": "9a60581ecd58217216636e9392a50a5db54e59445f0115a2971cc00379d89507",
    "plan --varying 2,2 --json": "ec21e2f498fca5b93c44390be4e941102bebe34092ac206bc99ed215b368fc65",
    "plan --unitary 2,3 --elliptic 1 --json": "776f4aee28ce033bffd3ca732a48a2f0f71e800ebaef3c76db9e866e5676f60e",
    "plan --varying 1,3": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "plan --unitary 1,2 --elliptic 1": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "strata --varying 2,3 --json": "7b7b456f38e5b1c6d4cd4c06072ca87c41da72499a716f3fce7928d1e112cefe",
    "strata --unitary 3,1 --json": "2243174d7928d5c96abafecd21f13e93de24166058546d80204aaeab138c7d3b",
    "gamma --g 4 --json": "df437adf07d9cc0eaca25c988d4b148b5911ce386b5546a93f061381f5385ba2",
    "verify L5.5 --g-max 5 --json": "de75f506573eb02c9005d7241db0e87b5f90b55de8e6e7abe36a7dd56d70ab55",
    "verify L3.3 --g-max 4 --json": "743c82c34692d0ac3de7f0eb91e0f6137a267e3584fd2b198c42fa2c375eed67",
    "kodaira --genus 5 --require-feasible --json": "a63087533a4761af801b0d1948c16032dde18bb3903367fcf97be982da25d784",
    "no-such-command": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}

#: sha256 of the exact stdout of calls that reach the fixed-part minimum,
#: recorded while it was still taken over the full stratum enumeration.
MEMOIZED_ROUTE_STDOUT_SHA256 = {
    "verify L3.2 --g-max 4 --json": "861957d4db84ceb07a28c31a49051671d7857f2abc7e8b7eb8c6f3bbb570e16b",
    "strata --fixed 1,4 --varying 3,5 --json": "0a455621fcce8dd1e29a504b2f8f92d5ae36ee3d5671fe765579af61e6a33a91",
    "strata --fixed 1,4 --varying 3,5 --witness-all --json":
        "a101bc377f03469908a1810364d38cfe66da3d1486b694890caad12831be3492",
}

#: sha256 of the exact stdout of calls that reach the pair sweep, the
#: insertion check or the g > 8 witness, recorded while partitions were
#: still a validated block class and the witness was reconstructed from
#: the completion search.
PARTITION_ROUTE_STDOUT_SHA256 = {
    "gamma --g 10 --json": "2f435e0286804e2554774114e025d1b0e6e6d34d124248cc0638dde58c57ca20",
    "gamma --g 10 --witness-all --json": "d3949e899e0a928b82181095af7143cb8cf12ffc020cae1eb674771b431a8c13",
    "verify C5.3-increment --g-max 7 --json": "7cd9fc5df8d73b5574cf839503bc8d23cb2cb32e6a6d37aa27f959dbb109abd2",
    "verify C5.6 --g-max 6 --json": "68ba09ee00a3b0751924c725bd53ae3bd4adc5d7b0c133968636bbbf1097f6d5",
    "verify L5.5 --g-max 7 --json": "908982022f7af1c5d7cacf7fe08e326e1cb3ab4215cb0c750533614734b4a2d5",
    # recorded while canonical forms still tried every row order
    "gamma --g 8 --json": "18364ffb8c489fc05cb82c0d7b5b8f40169da643e166241dd827a7b16d81b301",
    "gamma --g 8 --witness-all --json": "beacb2e109fa2f9496ea2bb4e22690e0865fe76a698633d7992518802c5fd2fa",
    "verify L5.5 --g-max 8 --json": "5e8dbe80264a37f527e26dad1b681a9711810565dbcec6ad22d2e810d5f1da7d",
}

#: Exit code and sha256 of the exact stdout of calls whose code paths lost
#: a pass-through or a duplicated rule, recorded before the cut: the order
#: of the unitary plan notes, the L3.4 cases, the --witness-all maximizers
#: below and above the exhaustive limit, and the excluded-pair note.
TRIMMED_SURFACE_STDOUT_SHA256 = {
    "plan --unitary 2,2 --elliptic 1": (0, "a143a731c8be60e842d94310366331d1f1f899874d1290fe24c09e76ebbdd7cc"),
    "plan --unitary 2,3 --elliptic 0 --json": (0, "478cef052a6173de10e998fa513dea79f8b4f8105a2138eb90f619b13ca8c7ae"),
    "verify L3.4 --g-max 4 --json": (2, "630594ce3082244321bccb058bf785566b1621f850f8be9129b8e457af9620c1"),
    "gamma --g 4 --witness-all --json": (0, "45091f67470c528eca8bdb97bd2d42f96175c3c21060e15075fb111e7458bc16"),
    "gamma --g 9 --witness-all --json": (0, "37854a82c15d16979d04881fbf1eb9484c076d191f39f36492c60c6229978fd3"),
    "strata --fixed 3,5 --varying 2,4 --json": (0, "88e91c4441bf08e16227c1b0ae6c189c863a2537ab599b94a10f919854351aa3"),
}

#: Exit code and sha256 of the exact stdout of report paths that lost their
#: second emit call or their library-side shape, recorded before the cut:
#: plan's exit 3 (the report is still printed) and the verify text digest.
REPORT_PATH_STDOUT_SHA256 = {
    "plan --unitary 2,2 --elliptic 1 --require-feasible":
        (3, "a143a731c8be60e842d94310366331d1f1f899874d1290fe24c09e76ebbdd7cc"),
    "plan --unitary 2,2 --elliptic 1 --require-feasible --json":
        (3, "6807c83990a2886c9b3100054c8c4b09c34d54e3973cbfa7b684e3b56aac8895"),
    "verify L3.3 --g-max 4": (2, "84a0e754ffea25d232bcee2fb5d1f71766da62c9418ad273f7615abaa3ad0a32"),
    "verify L5.5 --g-max 4": (0, "77ed206a5ac69324f554ebd4ed6d20b66d9938d87044d288c7997757d87915e4"),
}


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    @pytest.mark.parametrize("argv,expected", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
    def test_golden_set(self, capsys, argv, expected):
        code, _, _ = invoke(capsys, argv)
        assert code == expected

    @pytest.mark.parametrize("argv,expected", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
    def test_golden_bytes(self, capsys, argv, expected):
        code, out, _ = invoke(capsys, argv)
        assert code == expected
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT_SHA256[" ".join(argv)]

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

    def test_two_path_disagreement_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(strata, "siegel_dim", lambda g: g * (g + 1) // 2 + 1)
        code, out, err = invoke(capsys, ["strata", "--varying", "2,3", "--json"])
        assert code == 2 and out == "" and "Traceback" not in err
        assert err.startswith("moduli-strata: disagreement: ") and err.count("\n") == 1
        assert "closed 4, raw 3" in err

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

    def test_product_minimum_mismatch_is_reported(self, capsys, monkeypatch):
        closed = strata.fixedpart_closed_form
        monkeypatch.setattr(strata, "fixedpart_closed_form", lambda shape: closed(shape) + 1)
        result = strata.mdec_codim_fixedpart(strata.DecompositionShape((), (3, 3)))
        assert (result.codim, result.closed_form, result.agrees) == (4, 5, False)
        code, out, _ = invoke(capsys, ["strata", "--varying", "3,3", "--json"])
        assert code == 2 and json.loads(out)["result"]["agrees"] is False

    def test_product_minimum_disagreement_is_recorded(self, capsys, monkeypatch):
        computed = verify.mdec_codim_fixedpart

        def off_by_one(shape):
            r = computed(shape)
            return strata.MinCodim(r.codim + (shape.varying_dims == (3, 3)), r.witness, r.closed_form, r.agrees)

        monkeypatch.setattr(verify, "mdec_codim_fixedpart", off_by_one)
        code, out, err = invoke(capsys, ["verify", "L3.1", "--g-max", "3", "--json"])
        assert code == 2 and "Traceback" not in err
        bad = [c for c in json.loads(out)["result"]["cases"] if not c["agree"]]
        assert [(c["input"]["varying_dims"], c["expected"], c["computed"]) for c in bad] == [([3, 3], 4, 5)]

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

    @pytest.mark.parametrize("argv", MEMOIZED_ROUTE_STDOUT_SHA256, ids=str)
    def test_memoized_route_bytes(self, capsys, argv):
        code, out, _ = invoke(capsys, argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == MEMOIZED_ROUTE_STDOUT_SHA256[argv]

    @pytest.mark.parametrize("argv", PARTITION_ROUTE_STDOUT_SHA256, ids=str)
    def test_partition_route_bytes(self, capsys, argv):
        code, out, _ = invoke(capsys, argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PARTITION_ROUTE_STDOUT_SHA256[argv]

    @pytest.mark.parametrize("argv", TRIMMED_SURFACE_STDOUT_SHA256, ids=str)
    def test_trimmed_surface_bytes(self, capsys, argv):
        code, out, _ = invoke(capsys, argv.split())
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == TRIMMED_SURFACE_STDOUT_SHA256[argv]

    @pytest.mark.parametrize("argv", REPORT_PATH_STDOUT_SHA256, ids=str)
    def test_report_path_bytes(self, capsys, argv):
        code, out, _ = invoke(capsys, argv.split())
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == REPORT_PATH_STDOUT_SHA256[argv]

    def test_pair_sweep_route_disagreement(self, capsys, monkeypatch):
        sweep = verify.max_product_dim_by_pairs

        def one_too_high_at_4(g):
            value, witness = sweep(g)
            return value + (g == 4), witness

        monkeypatch.setattr(verify, "max_product_dim_by_pairs", one_too_high_at_4)
        assert _failed_max_product_cases(capsys) == [4]

    def test_two_block_route_disagreement(self, capsys, monkeypatch):
        attained = verify.two_block_witness_value
        monkeypatch.setattr(verify, "two_block_witness_value", lambda g: attained(g) + (g == 3))
        assert _failed_max_product_cases(capsys) == [3]

    def test_two_block_witness_certificate(self, capsys, monkeypatch):
        # one less search codimension lifts the search maximum above what
        # the two-block witness attains, so the certificate must fail
        search = hecke_groups.gamma_gamma_codim_by_search
        monkeypatch.setattr(hecke_groups, "gamma_gamma_codim_by_search", lambda sizes: search(sizes) - 1)
        code, out, err = invoke(capsys, ["gamma", "--g", "9", "--json"])
        assert code == 2 and out == "" and "Traceback" not in err
        assert err.startswith("moduli-strata: disagreement: ") and err.count("\n") == 1

    def test_verify_disagreement_path(self, capsys):
        code, out, _ = invoke(capsys, ["verify", "L3.3", "--json"])
        assert code == 2
        payload = json.loads(out)
        bad = [c for c in payload["result"]["cases"] if not c["agree"]]
        assert [(c["input"]["p"], c["input"]["q"]) for c in bad] == [(2, 2), (3, 3)]


def _failed_max_product_cases(capsys) -> list[int]:
    """The g of each disagreeing case of ``verify L5.5 --g-max 5``, which must exit 2."""
    code, out, err = invoke(capsys, ["verify", "L5.5", "--g-max", "5", "--json"])
    assert code == 2 and "Traceback" not in err
    result = json.loads(out)["result"]
    bad = [c["input"]["g"] for c in result["cases"] if not c["agree"]]
    assert result["summary"]["disagreements"] == len(bad)
    return bad


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

    def test_no_timing_fields_without_flag(self, capsys):
        _, out, _ = invoke(capsys, ["verify", "L3.1", "--g-max", "3", "--json"])
        assert "elapsed" not in out

    def test_timing_flag_adds_elapsed(self, capsys):
        _, out, _ = invoke(capsys, ["verify", "L3.1", "--g-max", "3", "--json", "--timing"])
        payload = json.loads(out)
        assert "elapsed_ms" in payload["result"]["summary"]

    def test_timing_flag_in_text_summary(self, capsys):
        _, out, _ = invoke(capsys, ["verify", "L3.1", "--g-max", "3", "--timing"])
        lines = out.splitlines()
        at = lines.index("  summary:")
        assert [line.split(":")[0] for line in lines[at + 1:at + 5]] == [
            "    cases", "    disagreements", "    elapsed_ms", "  disagreements",
        ]


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
            (["realize", "--unitary", "0,3", "--g", "5"], "parameters must be >= 1"),
            (["realize", "--unitary", "1,2", "--g", "3"], "p+q=3 < 4"),
            (["plan", "--unitary", "2,3", "--fixed", "1"], "--fixed applies only with --varying"),
            (["strata", "--unitary", "2,2", "--fixed", "1"], "--fixed applies only with --varying"),
            (["plan", "--varying", "2", "--unitary", "2,2"], "not allowed with"),
            (["realize", "--g", "5"], "one of the arguments --varying --unitary is required"),
            (["plan", "--varying", "3", "--witness-all"], "unrecognized arguments: --witness-all"),
            (["verify", "L3.1", "--witness-all"], "unrecognized arguments: --witness-all"),
            (["gamma", "--g", "1"], "gamma needs --g >= 2"),
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
        assert err.startswith(f"moduli-strata: error: cannot write {target}")

    @pytest.mark.parametrize("lemma,g_max", [("L5.5", 1), ("L3.1", -3), ("C5.6", 1), ("C5.3-increment", 0)])
    def test_empty_verify_box_is_usage_error(self, capsys, lemma, g_max):
        code, out, err = invoke(capsys, ["verify", lemma, "--g-max", str(g_max)])
        assert code == 1 and out == ""
        assert f"checks no case at --g-max {g_max}; the smallest box is --g-max 2" in err

    @pytest.mark.parametrize("lemma", sorted(verify.CHECKS))
    def test_min_g_max_is_every_suites_smallest_box(self, lemma):
        with pytest.raises(GroundTooSmall):
            verify.run_check(lemma, verify.MIN_G_MAX - 1)
        assert verify.run_check(lemma, verify.MIN_G_MAX).cases

    def test_elliptic_needs_unitary(self, capsys):
        code, out, err = invoke(capsys, ["plan", "--varying", "3", "--elliptic", "-2"])
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
