"""Response oracle: checks one CLI response with the benchmark's own arithmetic.

Nothing here imports ``moduli_strata``.  Every expected value is derived
from the request's argv by closed forms stated in the paper (or, for the
two unitary exceptions, by the values the paper's stratum count gives), so
a wrong answer from the program cannot also make the oracle wrong.

The checks are semantic, not byte digests: report fields the program may
legitimately add or reorder do not count as failures.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from math import comb

TOOL = "moduli-strata"

#: Unitary (p, q) where the enumerated repeated-factor minimum undercuts
#: min(2p, p+q-2, 2q): squares of k-folds give codimension k(k-1)/2.
UNITARY_EXCEPTIONS = {(2, 2): 1, (3, 3): 3}


@dataclass(frozen=True)
class Request:
    """One CLI invocation together with what a correct response looks like.

    ``kind`` selects the check; ``params`` carries the parsed inputs the
    check needs, so the oracle never re-parses argv.
    """

    argv: tuple[str, ...]
    kind: str
    expect_exit: int
    params: dict = field(default_factory=dict, compare=False, hash=False)


class Mismatch(Exception):
    """A response that the oracle rejects."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def siegel_dim(g: int) -> int:
    return g * (g + 1) // 2


def sp_weight(l: int) -> int:
    return l * (2 * l + 1)


def proper_partitions(n: int) -> list[tuple[int, ...]]:
    """Integer partitions of n with at least two parts, non-increasing."""

    def rec(rest: int, cap: int) -> list[tuple[int, ...]]:
        if rest == 0:
            return [()]
        return [(first,) + tail for first in range(min(rest, cap), 0, -1) for tail in rec(rest - first, first)]

    return [p for p in rec(n, n) if len(p) >= 2]


def unitary_mdec(p: int, q: int) -> int:
    return UNITARY_EXCEPTIONS.get((p, q), min(2 * p, p + q - 2, 2 * q))


def _multisets(values: int, max_len: int) -> int:
    """Number of sorted tuples of length 1..max_len over `values` symbols."""
    return sum(comb(values + k - 1, k) for k in range(1, max_len + 1))


def verify_case_count(lemma: str, g: int) -> int:
    """Size of each suite's parameter box at --g-max g."""
    if lemma == "L3.1":
        return _multisets(g - 1, 4)
    if lemma == "L3.2":
        return (1 + _multisets(g, 3)) * _multisets(g - 1, 3)
    if lemma == "L3.3":
        return g * g - 1
    if lemma == "L3.4":
        return 4 * (g * g - 1)
    if lemma in ("C5.3-increment", "L5.5"):
        return g - 1
    if lemma == "C5.6":
        return sum(len(proper_partitions(n)) for n in range(2, g + 1))
    raise ValueError(f"unknown suite {lemma}")


# --- per-command checks ---------------------------------------------------


def _check_plan(result: dict, params: dict) -> None:
    if params["flavor"] == "symplectic":
        fixed, varying = params["fixed"], params["varying"]
        _require(result["total_g"] == sum(fixed) + sum(varying), "plan: total_g")
        _require(result["d_max"] == min(varying) - 1, "plan: d_max != min(varying) - 1")
        _require(result["ambient_dim"] == sum(siegel_dim(v) for v in varying), "plan: ambient_dim")
        _require(result["monodromy_dim"] == sum(sp_weight(v) for v in varying), "plan: monodromy_dim")
        single = len(fixed) + len(varying) < 2
    else:
        p, q, r = params["p"], params["q"], params["elliptic"]
        _require(result["total_g"] == p + q + r, "plan: total_g")
        _require(result["ambient_dim"] == p * q, "plan: ambient_dim")
        _require(result["monodromy_dim"] == (p + q) ** 2 - 1, "plan: monodromy_dim")
        _require(result["d_max"] == min(unitary_mdec(p, q), p + q - 1) - 1, "plan: unitary d_max")
        single = r == 0
    margin = result["hecke_margin"]
    if single:
        _require(margin is None, "plan: single factor has a margin")
    else:
        _require(isinstance(margin, int) and margin >= 4, "plan: hecke_margin < 4")
    _require(result["feasible"] == (result["d_max"] >= 1), "plan: feasible flag")


def _check_plan_text(text: str, params: dict) -> None:
    head = text.split("\n", 1)[0]
    _require(head.startswith(TOOL + " ") and head.endswith(":: plan"), "plan text: header")
    found = re.findall(r"^  d_max: (-?\d+)$", text, re.MULTILINE)
    _require(len(found) == 1, "plan text: no d_max line")
    _require(int(found[0]) == min(params["varying"]) - 1, "plan text: d_max != min(varying) - 1")


def _check_strata(result: dict, params: dict) -> None:
    strata = result["strata"]
    _require(len(strata) > 0 and result["count"] == len(strata), "strata: count")
    for s in strata:
        _require(s["codim"] == s["ambient_dim"] - s["stratum_dim"], "strata: codim != ambient - dim")
    _require(result["min_codim"] == min(s["codim"] for s in strata), "strata: min_codim is not the minimum")
    if params["flavor"] == "unitary":
        p, q = params["p"], params["q"]
        _require(result["ambient_dim"] == p * q, "strata: unitary ambient_dim")
        _require(result["min_codim"] == unitary_mdec(p, q), "strata: unitary min_codim")
        _require(result["agrees"] == ((p, q) not in UNITARY_EXCEPTIONS), "strata: agrees flag")
    else:
        varying = params["varying"]
        _require(result["ambient_dim"] == sum(siegel_dim(v) for v in varying), "strata: ambient_dim")
        if not params["fixed"]:
            _require(result["min_codim"] == 2 * min(varying) - 2, "strata: min_codim != 2*g1 - 2")
        _require(result["min_codim"] >= min(varying), "strata: min_codim below smallest varying dim")


def _check_gamma(result: dict, params: dict) -> None:
    g = params["g"]
    _require(result["ground_size"] == g, "gamma: ground_size")
    _require(result["ambient_group_dim"] == 2 * g * g + g, "gamma: ambient_group_dim")
    _require(result["max_product_dim"] == 2 * g * g + g - 4, "gamma: max_product_dim != 2g^2+g-4")
    _require(result["agrees"] is True, "gamma: agrees flag")
    _require(sum(map(sum, result["witness"])) == g, "gamma: witness total")
    classes = result["partition_classes"]
    sizes = sorted(tuple(c["block_sizes"]) for c in classes)
    _require(sizes == sorted(proper_partitions(g)), "gamma: not one class per proper partition")
    for c in classes:
        _require(c["gamma_dim"] == sum(sp_weight(l) for l in c["block_sizes"]), "gamma: class gamma_dim")
        _require(c["translate_codim"] >= 4, "gamma: translate_codim < 4")


def _check_verify(result: dict, params: dict) -> None:
    lemma, g = params["lemma"], params["g_max"]
    cases = result["cases"]
    _require(result["lemma_id"] == lemma, "verify: lemma_id")
    _require(len(cases) > 0 and result["summary"]["cases"] == len(cases), "verify: zero or miscounted cases")
    _require(len(cases) == verify_case_count(lemma, g), "verify: case count differs from the box size")
    bad = [c["input"] for c in cases if not c["agree"]]
    _require(result["summary"]["disagreements"] == len(bad), "verify: disagreement count")
    if lemma in ("L3.3", "L3.4"):
        expected = sorted(pq for pq in UNITARY_EXCEPTIONS if max(pq) <= g)
        _require(sorted({(c["p"], c["q"]) for c in bad}) == expected, "verify: unexpected unitary disagreements")
        if lemma == "L3.4":
            _require(len(bad) == 4 * len(expected), "verify: L3.4 disagreements not at every r")
    else:
        _require(not bad, "verify: unexpected disagreement")
    if lemma == "L5.5":
        for c in cases:
            n = c["input"]["g"]
            _require(c["computed"] == 2 * n * n + n - 4, "verify: L5.5 value != 2g^2+g-4")
    if lemma == "C5.6":
        _require(all(c["computed"] >= 4 for c in cases), "verify: C5.6 codimension < 4")


def _check_kodaira(result: dict, params: dict) -> None:
    genus = params["genus"]
    _require(result["fiber_genus"] == genus, "kodaira: fiber_genus")
    _require(result["feasible"] == (genus in (3, 4)), "kodaira: feasible iff genus in {3, 4}")


def _check_realize(result: dict, params: dict) -> None:
    _require(result["round_trip_ok"] is True, "realize: round trip failed")
    g = params["g"]
    _require(result["total_g"] == g, "realize: total_g")
    spec = result["spec"]
    if params["flavor"] == "symplectic":
        ranks = params["ranks"]
        _require(result["d_max"] == min(ranks) - 1, "realize: d_max != min(ranks) - 1")
        _require(sorted(spec["varying_dims"]) == sorted(ranks), "realize: varying dims")
        _require(spec["fixed_dims"] == [1] * (g - sum(ranks)), "realize: elliptic padding")
    else:
        p, q = params["p"], params["q"]
        _require((spec["p"], spec["q"]) == (p, q), "realize: unitary parameters")
        _require(spec["elliptic_count"] == g - p - q, "realize: elliptic padding")


_JSON_CHECKS = {
    "plan": _check_plan,
    "strata": _check_strata,
    "gamma": _check_gamma,
    "verify": _check_verify,
    "kodaira": _check_kodaira,
    "realize": _check_realize,
}


def check(request: Request, exit_code: int, stdout: str, stderr: str) -> str | None:
    """None when the response is correct, else the reason it is rejected."""
    try:
        _require("Traceback" not in stderr, "traceback on stderr")
        _require(exit_code == request.expect_exit, f"exit code {exit_code}, expected {request.expect_exit}")
        if request.kind == "usage_error":
            _require(stdout == "", "usage error wrote to stdout")
            _require(stderr.startswith(f"{TOOL}: error: "), "usage error message missing")
            return None
        if request.kind == "plan_text":
            _check_plan_text(stdout, request.params)
            return None
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError as exc:
            raise Mismatch(f"invalid JSON: {exc}") from None
        _require(isinstance(payload, dict) and payload.get("tool") == TOOL, "JSON: not a report")
        _require(payload.get("command") == request.kind, "JSON: wrong command")
        _JSON_CHECKS[request.kind](payload["result"], request.params)
    except Mismatch as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
    return None
