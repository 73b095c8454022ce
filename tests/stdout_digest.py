"""Exit code, stdout sha256 and stderr sha256 of a fixed set of CLI requests.

Run ``PYTHONPATH=src python tests/stdout_digest.py`` on the parent commit
and on a change that must keep the output byte-identical, then ``diff``
the two listings.  Requests: every workload request of
``perfbench/workloads.py`` at seeds 1-3 (golden calls included), each
verify suite at its default box and --g-max 2..8 in JSON and 2..7 in text,
gamma at g = 2..12 with and without --witness-all and at g = 1..9 in text,
plan, strata and realize on the unitary grid p, q <= 5, r <= 2 in text and
JSON, plan with --require-feasible on p, q <= 4, r <= 1 (the only route to
plan's exit 3), kodaira at genus 3..11 with and without --require-feasible,
realize on three symplectic targets at g' = 2..13, and plan and strata on
fixed/varying shapes.  Each runs in this process through
``moduli_strata.cli.run``.
"""

import contextlib
import hashlib
import io
import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402
from moduli_strata.cli import run  # noqa: E402
from moduli_strata.verify import CHECKS  # noqa: E402

SHAPES = ["1:3", ":2,2", "1,2:3,4", "3,5:2,4", "1,4:3,5", "2:2", "5:2", "1,1,1:2,3", "2,3:3", "4:3,3,5",
          ":6", "1:2,2,2", "2,2:4", "6:3,7", "1,6:5", "3:2,3,4", "1,2,3:4,5,6", "7:7", "2,5:3,6", "1,8:2,9"]


def requests() -> list[tuple[str, ...]]:
    out = [r.argv for name in workloads.WORKLOADS for seed in (1, 2, 3) for r in workloads.requests_for(name, seed)]
    for lemma in sorted(CHECKS):
        out += [("verify", lemma, "--json")] + [("verify", lemma, "--g-max", str(g), "--json") for g in range(2, 9)]
        out += [("verify", lemma)] + [("verify", lemma, "--g-max", str(g)) for g in range(2, 8)]
    out += [("gamma", "--g", str(g), "--json") + extra for g in range(2, 13) for extra in ((), ("--witness-all",))]
    for p in range(1, 6):
        for q in range(1, 6):
            for fmt in ((), ("--json",)):
                out.append(("strata", "--unitary", f"{p},{q}") + fmt)
                for r in range(3):
                    out.append(("plan", "--unitary", f"{p},{q}", "--elliptic", str(r)) + fmt)
                    out.append(("realize", "--unitary", f"{p},{q}", "--g", str(p + q + r)) + fmt)
    out += [("gamma", "--g", str(g)) for g in range(1, 10)]
    for g in range(3, 12):
        out += [("kodaira", "--genus", str(g)) + extra
                for extra in ((), ("--require-feasible",), ("--json", "--require-feasible"))]
    for p, q, r in itertools.product(range(1, 5), range(1, 5), range(2)):
        out += [("plan", "--unitary", f"{p},{q}", "--elliptic", str(r), "--require-feasible") + fmt
                for fmt in ((), ("--json",))]
    for target, g, fmt in itertools.product(("2", "2,3", "3,3,4"), range(2, 14), ((), ("--json",))):
        out.append(("realize", "--varying", target, "--g", str(g)) + fmt)
    for shape in SHAPES:
        fixed, varying = shape.split(":")
        spec = (("--fixed", fixed) if fixed else ()) + ("--varying", varying)
        out += [(cmd,) + spec + fmt for cmd in ("plan", "strata") for fmt in ((), ("--json",))]
    return list(dict.fromkeys(out))


def main() -> None:
    for argv in requests():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(list(argv))
        digests = (hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err))
        print(code, *digests, " ".join(argv))


if __name__ == "__main__":
    main()
