"""Command-line behavior: determinism, schema, exit codes."""

import json

import pytest

from moduli_strata import verify
from moduli_strata.cli import run

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


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    @pytest.mark.parametrize("argv,expected", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
    def test_golden_set(self, capsys, argv, expected):
        code, _, _ = invoke(capsys, argv)
        assert code == expected

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

    def test_verify_disagreement_path(self, capsys):
        code, out, _ = invoke(capsys, ["verify", "L3.3", "--json"])
        assert code == 2
        payload = json.loads(out)
        bad = [c for c in payload["result"]["cases"] if not c["agree"]]
        assert [(c["input"]["p"], c["input"]["q"]) for c in bad] == [(2, 2), (3, 3)]


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

    def test_elliptic_needs_unitary(self, capsys):
        code, out, err = invoke(capsys, ["plan", "--varying", "3", "--elliptic", "-2"])
        assert code == 1 and out == ""
        assert err.startswith("moduli-strata: error: ") and "--elliptic" in err


class TestTranslateMargin:
    def test_large_spec_margin(self, capsys):
        # g = 28 with largest block 7: the closed form gives 4 * (28 - 7)
        code, out, _ = invoke(capsys, ["plan", "--fixed", "1,2,3,4", "--varying", "5,6,7", "--json"])
        assert code == 0
        assert json.loads(out)["result"]["hecke_margin"] == 84
