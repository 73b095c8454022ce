"""Exit code, stdout sha256 and stderr sha256 of every request in the golden listing.

``tests/golden_stdout.txt`` is the single home of the CLI's golden outputs:
one line per request, ``<exit> <stdout sha256> <stderr sha256> <argv...>``,
below a header of ``#`` comments.  This script reruns every request it
lists, in this process through ``moduli_strata.cli.run``, and prints the
recomputed listing; ``tests/test_golden_stdout.py`` compares the two with
the same functions.  To accept an intended output change, write the output
to a new file, move it over the listing and review the diff::

    PYTHONPATH=src python tests/stdout_digest.py > golden.new
    mv golden.new tests/golden_stdout.txt

A direct ``> tests/golden_stdout.txt`` empties the listing before the
script reads it, so the script then stops with an error instead of
printing an empty listing.
"""

import contextlib
import hashlib
import io
import platform
import sys
from pathlib import Path

from moduli_strata.cli import run

LISTING = Path(__file__).with_name("golden_stdout.txt")
SUBCOMMANDS = {"plan", "strata", "gamma", "verify", "kodaira", "realize"}


def recorded(text: str) -> dict[str, str]:
    """Each listed line, keyed by its request (the argv joined by spaces)."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return {line.split(" ", 3)[3]: line for line in lines}


def outcome(argv: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one request."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv.split(" "))
    return code, out.getvalue(), err.getvalue()


def digest(argv: str) -> str:
    """The listing line of one request."""
    code, *streams = outcome(argv)
    digests = (hashlib.sha256(s.encode()).hexdigest() for s in streams)
    return " ".join([str(code), *digests, argv])


def names_its_input(err: str) -> bool:
    """Whether stderr is one usage-error line naming an argument, a flag or the subcommand."""
    prefix = "moduli-strata: error: "
    if not (err.startswith(prefix) and err.endswith("\n") and err.count("\n") == 1):
        return False
    message = err[len(prefix):]
    return message.startswith("argument ") or "--" in message or message.split(": ")[0] in SUBCOMMANDS


def changed(listing: dict[str, str]) -> list[str]:
    """Every request whose recomputed line differs from its listed line."""
    return [argv for argv, line in listing.items() if digest(argv) != line]


def header(count: int) -> list[str]:
    """The listing's comment lines; the second, its request count, exposes a truncated file."""
    return [
        "# <exit> <stdout sha256> <stderr sha256> <argv>, written by tests/stdout_digest.py",
        f"# {count} requests",
        f"# Python {platform.python_version()}; another minor version may word argparse's usage errors differently",
    ]


def main() -> None:
    listing = recorded(LISTING.read_text())
    if not listing:
        sys.exit(f"no requests in {LISTING}; restore it from git before regenerating")
    print(*header(len(listing)), sep="\n")
    for argv in listing:
        print(digest(argv))


if __name__ == "__main__":
    main()
