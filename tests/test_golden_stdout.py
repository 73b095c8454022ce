"""Byte identity of the CLI: every request of ``golden_stdout.txt`` gives its recorded output."""

import ast
from pathlib import Path

from moduli_strata import planner, verify
from stdout_digest import LISTING, SUBCOMMANDS, changed, header, names_its_input, outcome, recorded

ROOT = Path(__file__).resolve().parents[1]


def hollow(text: str) -> list[str]:
    """What a listing fails to hold: its own request count, an exit code, a subcommand or a suite."""
    listing = recorded(text)
    gaps = [] if header(len(listing))[1] in text.splitlines() else ["request count"]
    gaps += sorted({"0", "1", "2", "3"} - {line.split(" ")[0] for line in listing.values()})
    gaps += sorted(SUBCOMMANDS - {argv.split(" ")[0] for argv in listing})
    gaps += sorted(set(verify.CHECKS) - {argv.split(" ")[1] for argv in listing if argv.startswith("verify ")})
    return gaps


def test_every_listed_request_gives_its_recorded_output():
    differ = changed(recorded(LISTING.read_text()))
    assert not differ, (
        f"{len(differ)} requests differ from tests/golden_stdout.txt (if intended, regenerate it as "
        "tests/stdout_digest.py says):\n" + "\n".join(differ)
    )


def test_listing_is_not_hollow():
    text = LISTING.read_text()
    assert hollow(text) == []
    assert hollow("".join(text.splitlines(keepends=True)[:-1])) == ["request count"]
    assert hollow("") == ["request count", "0", "1", "2", "3", *sorted(SUBCOMMANDS), *sorted(verify.CHECKS)]


def test_every_listed_usage_error_names_its_input():
    usage_errors = [argv for argv, line in recorded(LISTING.read_text()).items() if line.startswith("1 ")]
    unnamed = [f"{argv}: {err!r}" for argv in usage_errors if not names_its_input(err := outcome(argv)[2])]
    assert unnamed == []


def test_guard_names_exactly_the_changed_requests(monkeypatch):
    torelli = planner.torelli_codim
    monkeypatch.setattr(planner, "torelli_codim", lambda g: torelli(g) + (g == 4))
    kodaira = {argv: line for argv, line in recorded(LISTING.read_text()).items() if argv.startswith("kodaira ")}
    expected = [argv for argv in kodaira if argv.split(" ")[2] == "4"]
    assert len(expected) == 4
    assert changed(kodaira) == expected


def test_tests_import_nothing_from_perfbench():
    # the benchmark's workloads may be re-tiered at will; the golden listing must not follow them
    benchmark = {"perfbench"} | {p.stem for p in (ROOT / "perfbench").glob("*.py")}
    offenders = []
    for path in sorted((ROOT / "tests").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {root}" for root in roots if root in benchmark]
    assert offenders == []
