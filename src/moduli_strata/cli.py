"""Command-line front end.

Subcommands: ``plan``, ``strata``, ``gamma``, ``verify``, ``kodaira``,
``realize``.  Reports go to standard output (or ``--out FILE``) in a
deterministic human-readable form, or as JSON with ``--json``.  Exit codes:
0 success / all cases agree, 1 usage or input error, 2 a verification
disagreement was found, 3 an infeasible plan was requested together with
``--require-feasible``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from typing import Sequence

from . import __version__
from .errors import DimensionCalculusError, Disagreement
from .hecke_groups import gamma_dim, gamma_gamma_codim, max_product_dim
from .moduli import GroupExpr, SpAtom, SUFormAtom, sp_dim
from .partitions import integer_partitions
from .planner import (
    SymplecticFamily,
    UnitaryFamily,
    kodaira_budget,
    plan_family,
    realize_group,
)
from .strata import (
    DecompositionShape,
    mdec_codim_fixedpart,
    mdec_codim_unitary,
    strata_of_shape,
    strata_of_unitary,
)
from .verify import CHECKS, run_check

TOOL_NAME = "moduli-strata"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISAGREEMENT = 2
EXIT_INFEASIBLE = 3

#: Input limits (README, "Input limits"): each keeps the slowest accepted
#: request within about 10 s and 128 MB.
MAX_DIM = 200
MAX_GAMMA_G = 20
MAX_G_MAX = 9


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that raises instead of exiting with code 2."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _dims(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(x) for x in text.split(",") if x != "")
    except ValueError as exc:
        raise UsageError(f"expected a comma-separated list of integers, got {text!r}") from exc
    if not values:
        raise UsageError(f"empty dimension list: {text!r}")
    total = sum(v for v in values if v > 0)
    if total > MAX_DIM:
        raise argparse.ArgumentTypeError(f"dimensions add up to {total}, above the limit {MAX_DIM}")
    return values


def _at_most(limit: int):
    def parse(text: str) -> int:
        value = int(text)
        if value > limit:
            raise argparse.ArgumentTypeError(f"{value} is above the limit {limit}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _pq(text: str) -> tuple[int, int]:
    values = _dims(text)
    if len(values) != 2:
        raise UsageError(f"--unitary expects p,q, got {text!r}")
    return values[0], values[1]


def build_parser() -> _Parser:
    parser = _Parser(prog=TOOL_NAME, description="dimension calculus for complete families")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--out", metavar="FILE", help="write the report to FILE instead of stdout")
        p.add_argument("--timing", action="store_true", help="include elapsed milliseconds")

    def flavor(p: argparse.ArgumentParser, varying_help: str, unitary_help: str) -> None:
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--varying", type=_dims, help=varying_help)
        group.add_argument("--unitary", type=_pq, help=unitary_help)

    def witness_all(p: argparse.ArgumentParser) -> None:
        p.add_argument("--witness-all", action="store_true", help="list every tied witness")

    p = sub.add_parser("plan", help="dimension budget and monodromy for a family spec")
    p.add_argument("--fixed", type=_dims, default=(), help="fixed factor dimensions a,b,... (symplectic)")
    flavor(p, "varying factor dimensions a,b,...", "unitary parameters p,q")
    p.add_argument("--elliptic", type=_at_most(MAX_DIM), help="fixed elliptic factor count (unitary)")
    p.add_argument("--require-feasible", action="store_true")
    common(p)

    p = sub.add_parser("strata", help="enumerate repeated-factor strata")
    p.add_argument("--fixed", type=_dims, default=(), help="fixed factor dimensions a,b,... (symplectic)")
    flavor(p, "varying factor dimensions a,b,...", "unitary parameters p,q")
    common(p)
    witness_all(p)

    p = sub.add_parser("gamma", help="subgroup dimension calculus on a ground set")
    p.add_argument("--g", type=_at_most(MAX_GAMMA_G), required=True, help="ground set size")
    common(p)
    witness_all(p)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("lemma_id", choices=sorted(CHECKS), help="suite to run")
    p.add_argument("--g-max", type=_at_most(MAX_G_MAX), default=None, help="override the parameter box")
    common(p)

    p = sub.add_parser("kodaira", help="complete-curve-family budget at a fiber genus")
    p.add_argument("--genus", type=_at_most(MAX_DIM), required=True)
    p.add_argument("--require-feasible", action="store_true")
    common(p)

    p = sub.add_parser("realize", help="family spec realizing a target monodromy group")
    flavor(p, "symplectic target ranks a,b,...", "unitary target parameters p,q")
    p.add_argument("--g", type=_at_most(MAX_DIM), required=True, help="total dimension g'")
    common(p)

    return parser


def _emit(payload: dict, args: argparse.Namespace) -> None:
    # JSON goes out in blocks of encoder chunks: ``json.dumps`` joins these
    # same chunks, so the bytes match while a multi-megabyte report is never
    # held whole.  Blocks, not single chunks, keep an unbuffered stdout
    # (``python -u``) from making one system call per chunk.
    if args.json:
        chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload)
        blocks = itertools.chain(iter(lambda: "".join(itertools.islice(chunks, 8192)), ""), ("\n",))
    else:
        blocks = (_render_text(payload),)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.writelines(blocks)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc.strerror}") from exc
    else:
        sys.stdout.writelines(blocks)


def _render_lines(value: dict | list, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for key in value:
            inner = value[key]
            if isinstance(inner, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_lines(inner, indent + 1))
            else:
                lines.append(f"{pad}{key}: {inner}")
    else:
        for inner in value:
            if isinstance(inner, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_lines(inner, indent + 1))
            else:
                lines.append(f"{pad}- {inner}")
    return lines


def _render_text(payload: dict) -> str:
    head = f"{payload['tool']} {payload['version']} :: {payload['command']}"
    body = {"input": payload["input"], "result": payload["result"]}
    if payload["notes"]:
        body["notes"] = payload["notes"]
    return "\n".join([head, *_render_lines(body)]) + "\n"


# Each record's report shape lives here alone; text output keeps the key order.


def _stratum_dict(stratum) -> dict:
    return {
        "kind": stratum.kind,
        "params": list(stratum.params),
        "ambient_dim": stratum.ambient_dim,
        "stratum_dim": stratum.stratum_dim,
        "codim": stratum.codim,
    }


def _spec_dict(spec) -> dict:
    # "level" and "field_label" stay in the report format as constants: no
    # number depends on the level structure or on the name of the field.
    if isinstance(spec, SymplecticFamily):
        return {
            "flavor": "symplectic",
            "fixed_dims": list(spec.fixed_dims),
            "varying_dims": list(spec.varying_dims),
            "level": 3,
        }
    return {
        "flavor": "unitary",
        "elliptic_count": spec.elliptic_count,
        "p": spec.p,
        "q": spec.q,
        "field_label": "L",
        "level": 3,
    }


def _atom_dict(atom) -> dict:
    if isinstance(atom, SpAtom):
        return {"kind": "sp", "rank": atom.rank, "dim": atom.dim}
    return {"kind": "su_form", "p": atom.p, "q": atom.q, "dim": atom.dim}


def _plan_dict(report) -> dict:
    return {
        "spec": _spec_dict(report.spec),
        "total_g": report.total_g,
        "ambient_dim": report.ambient_dim,
        "mdec_codim": report.mdec.codim,
        "mdec_witness": _stratum_dict(report.mdec.witness),
        "mdec_closed_form": report.mdec.closed_form,
        "mdec_agrees": report.mdec.agrees,
        "boundary_codim": report.boundary.codim,
        "boundary_exact": report.boundary.exact,
        "budget": report.budget,
        "d_max": report.d_max,
        "monodromy": report.monodromy.label,
        "monodromy_atoms": [_atom_dict(a) for a in report.monodromy.atoms],
        "monodromy_dim": report.monodromy_dim,
        "hecke_margin": report.hecke_margin,
        "feasible": report.feasible,
    }


def _kodaira_dict(report) -> dict:
    return {
        "fiber_genus": report.fiber_genus,
        "spec": _spec_dict(report.spec),
        "mdec_codim": report.mdec.codim,
        "mdec_witness": _stratum_dict(report.mdec.witness),
        "boundary_codim": report.boundary.codim,
        "boundary_exact": report.boundary.exact,
        "torelli_codim": report.torelli_codim,
        "post_torelli_budget": report.post_torelli_budget,
        "feasible": report.feasible,
        "monodromy": report.monodromy.label,
        "monodromy_dim": report.monodromy.dim,
    }


def _case_dict(case) -> dict:
    inputs, expected, computed, agree, witness, note = case
    out = {"input": inputs, "expected": expected, "computed": computed, "agree": agree}
    if witness is not None:
        out["witness"] = witness
    if note:
        out["note"] = note
    return out


def _fixed_needs_varying(args: argparse.Namespace) -> None:
    if args.fixed and args.unitary is not None:
        raise UsageError("--fixed applies only with --varying")


def _build_spec(args: argparse.Namespace):
    _fixed_needs_varying(args)
    if args.unitary is not None:
        p, q = args.unitary
        return UnitaryFamily(elliptic_count=args.elliptic or 0, p=p, q=q)
    if args.elliptic is not None:
        raise UsageError("--elliptic applies only with --unitary")
    return SymplecticFamily(fixed_dims=args.fixed, varying_dims=args.varying)


#: What each handler returns: input echo, result, notes and exit code.
CommandReport = tuple[dict, dict, list[str], int]


def _feasibility_code(args: argparse.Namespace, report) -> int:
    return EXIT_INFEASIBLE if args.require_feasible and not report.feasible else EXIT_OK


def _cmd_plan(args: argparse.Namespace) -> CommandReport:
    spec = _build_spec(args)
    report = plan_family(spec)
    return _spec_dict(spec), _plan_dict(report), list(report.notes), _feasibility_code(args, report)


def _cmd_strata(args: argparse.Namespace) -> CommandReport:
    _fixed_needs_varying(args)
    if args.unitary is not None:
        p, q = args.unitary
        strata = strata_of_unitary(p, q)
        minimum = mdec_codim_unitary(p, q, strata)
        inputs = {"flavor": "unitary", "p": p, "q": q}
    else:
        shape = DecompositionShape(args.fixed, args.varying)
        strata = strata_of_shape(shape)
        minimum = mdec_codim_fixedpart(shape)
        # the memoized minimum must pick the first stratum of the full enumeration
        if strata[0] != minimum.witness:
            raise Disagreement(
                f"memoized and enumerated minima differ for {shape}",
                memoized=f"{minimum.witness.label} of codimension {minimum.codim}",
                enumerated=f"{strata[0].label} of codimension {strata[0].codim}",
            )
        # --fixed is echoed in the order given
        inputs = {"flavor": "symplectic", "fixed_dims": list(args.fixed), "varying_dims": list(shape.varying_dims)}
    result = {
        "ambient_dim": strata[0].ambient_dim,
        "count": len(strata),
        "strata": [_stratum_dict(s) for s in strata],
        "min_codim": minimum.codim,
        "witness": _stratum_dict(minimum.witness),
        "closed_form": minimum.closed_form,
        "agrees": minimum.agrees,
    }
    if args.witness_all:
        result["minimizers"] = [_stratum_dict(s) for s in strata if s.codim == minimum.codim]
    return inputs, result, list(minimum.notes), EXIT_OK if minimum.agrees else EXIT_DISAGREEMENT


def _cmd_gamma(args: argparse.Namespace) -> CommandReport:
    g = args.g
    if g < 2:
        raise UsageError("gamma needs --g >= 2")
    maximum = max_product_dim(g)
    classes = [
        {
            "block_sizes": list(sizes),
            "gamma_dim": gamma_dim(sizes),
            "translate_codim": gamma_gamma_codim(sizes),
        }
        for sizes in integer_partitions(g)
        if len(sizes) >= 2
    ]
    result = {
        "ground_size": g,
        "ambient_group_dim": sp_dim(g),
        "max_product_dim": maximum.value,
        "closed_form": sp_dim(g) - 4,
        "agrees": maximum.value == sp_dim(g) - 4,
        "witness": [list(r) for r in maximum.witness.entries],
        "partition_classes": classes,
    }
    if args.witness_all:
        result["maximizers"] = [[list(r) for r in m.entries] for m in maximum.all_witnesses]
    notes = ["translate codimensions depend only on the block-size multiset"]
    return {"g": g}, result, notes, EXIT_OK if result["agrees"] else EXIT_DISAGREEMENT


def _cmd_verify(args: argparse.Namespace) -> CommandReport:
    start = time.perf_counter()
    run = run_check(args.lemma_id, args.g_max)
    disagreements = run.disagreements
    summary = {"cases": len(run.cases), "disagreements": len(disagreements)}
    if args.timing:
        summary["elapsed_ms"] = int((time.perf_counter() - start) * 1000)
    result = {"lemma_id": run.lemma_id, "parameter_range": run.parameter_range, "summary": summary}
    # JSON lists every case; the human digest lists every disagreement, verbatim
    if args.json:
        result["cases"] = [_case_dict(c) for c in run.cases]
    else:
        result["disagreements"] = [_case_dict(c) for c in disagreements]
    inputs = {"lemma_id": args.lemma_id, "g_max": args.g_max}
    return inputs, result, run.notes, EXIT_DISAGREEMENT if disagreements else EXIT_OK


def _cmd_kodaira(args: argparse.Namespace) -> CommandReport:
    report = kodaira_budget(args.genus)
    return {"genus": args.genus}, _kodaira_dict(report), list(report.notes), _feasibility_code(args, report)


def _cmd_realize(args: argparse.Namespace) -> CommandReport:
    if args.unitary is not None:
        flavor, target = "unitary", GroupExpr.of([SUFormAtom(*args.unitary)])
    else:
        flavor, target = "symplectic", GroupExpr.of(SpAtom(r) for r in args.varying)
    inputs = {"target": target.label, "flavor": flavor, "g_prime": args.g}
    spec = realize_group(target, args.g)
    report = plan_family(spec)
    result = {
        "spec": _spec_dict(spec),
        "monodromy": report.monodromy.label,
        "round_trip_ok": report.monodromy == target,
        "d_max": report.d_max,
        "total_g": report.total_g,
    }
    return inputs, result, list(report.notes), EXIT_OK if result["round_trip_ok"] else EXIT_DISAGREEMENT


_COMMANDS = {
    "plan": _cmd_plan,
    "strata": _cmd_strata,
    "gamma": _cmd_gamma,
    "verify": _cmd_verify,
    "kodaira": _cmd_kodaira,
    "realize": _cmd_realize,
}


def run(argv: Sequence[str]) -> int:
    """Parse argv, run the subcommand, emit its report once and return the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
        inputs, result, notes, code = _COMMANDS[args.command](args)
        payload = {
            "tool": TOOL_NAME,
            "version": __version__,
            "command": args.command,
            "input": inputs,
            "result": result,
            "notes": notes,
        }
        _emit(payload, args)
        return code
    except Disagreement as exc:
        sys.stderr.write(f"{TOOL_NAME}: disagreement: {exc}\n")
        return EXIT_DISAGREEMENT
    except (UsageError, DimensionCalculusError) as exc:
        sys.stderr.write(f"{TOOL_NAME}: error: {exc}\n")
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
