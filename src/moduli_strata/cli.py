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
import os
import sys
import time
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, Iterator, Sequence

from . import __version__
from .errors import DimensionCalculusError, Disagreement, agree
from .hecke_groups import gamma_dim, gamma_gamma_codim, gamma_gamma_codim_by_search, max_product_dim
from .moduli import GroupExpr, SpAtom, SUFormAtom, sp_dim
from .partitions import proper_classes
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
        raise argparse.ArgumentTypeError(f"expected a comma-separated list of integers, got {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError(f"empty dimension list: {text!r}")
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
        raise argparse.ArgumentTypeError(f"expected p,q, got {text!r}")
    return values[0], values[1]


def build_parser() -> _Parser:
    parser = _Parser(prog=TOOL_NAME, description="dimension calculus for complete families")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--out", metavar="FILE", help="write the report to FILE instead of stdout")
        p.add_argument("--timing", action="store_true", help="include elapsed microseconds")

    def flavor(p: argparse.ArgumentParser, varying_help: str, unitary_help: str) -> None:
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--varying", type=_dims, help=varying_help)
        group.add_argument("--unitary", type=_pq, help=unitary_help)

    def witness_all(p: argparse.ArgumentParser) -> None:
        p.add_argument("--witness-all", action="store_true", help="list every tied witness")

    p = sub.add_parser("plan", help="dimension budget and monodromy for a family spec")
    p.set_defaults(handler=_cmd_plan)
    p.add_argument("--fixed", type=_dims, default=(), help="fixed factor dimensions a,b,... (symplectic)")
    flavor(p, "varying factor dimensions a,b,...", "unitary parameters p,q")
    p.add_argument("--elliptic", type=_at_most(MAX_DIM), help="fixed elliptic factor count (unitary)")
    p.add_argument("--require-feasible", action="store_true")
    common(p)

    p = sub.add_parser("strata", help="enumerate repeated-factor strata")
    p.set_defaults(handler=_cmd_strata)
    p.add_argument("--fixed", type=_dims, default=(), help="fixed factor dimensions a,b,... (symplectic)")
    flavor(p, "varying factor dimensions a,b,...", "unitary parameters p,q")
    common(p)
    witness_all(p)

    p = sub.add_parser("gamma", help="subgroup dimension calculus on a ground set")
    p.set_defaults(handler=_cmd_gamma)
    p.add_argument("--g", type=_at_most(MAX_GAMMA_G), required=True, help="ground set size")
    common(p)
    witness_all(p)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("lemma_id", choices=sorted(CHECKS), help="suite to run")
    p.add_argument("--g-max", type=_at_most(MAX_G_MAX), default=None, help="override the parameter box")
    common(p)

    p = sub.add_parser("kodaira", help="complete-curve-family budget at a fiber genus")
    p.set_defaults(handler=_cmd_kodaira)
    p.add_argument("--genus", type=_at_most(MAX_DIM), required=True)
    p.add_argument("--require-feasible", action="store_true")
    common(p)

    p = sub.add_parser("realize", help="family spec realizing a target monodromy group")
    p.set_defaults(handler=_cmd_realize)
    flavor(p, "symplectic target ranks a,b,...", "unitary target parameters p,q")
    p.add_argument("--g", type=_at_most(MAX_DIM), required=True, help="total dimension g'")
    common(p)

    return parser


def _reject_inapplicable(parser: _Parser, args: argparse.Namespace) -> None:
    # subcommands without these flags leave them unset; "--elliptic 0" counts as given
    if getattr(args, "fixed", ()) and getattr(args, "unitary", None) is not None:
        parser.error("--fixed applies only with --varying")
    if getattr(args, "elliptic", None) is not None and getattr(args, "varying", None) is not None:
        parser.error("--elliptic applies only with --unitary")


def _write_out(path: str, blocks: Iterable[str], mode: str = "w") -> None:
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.writelines(blocks)
    except OSError as exc:
        raise UsageError(f"argument --out: cannot write {path}: {exc.strerror}") from exc


#: How ``json.dumps`` writes each scalar a report holds.
_SCALARS = {str: _quote, int: int.__repr__, bool: {True: "true", False: "false"}.get,
            type(None): lambda _: "null"}


def _json_text(value, nl: str) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for a value indented at ``nl``; each container joins once."""
    kind, inner = type(value), nl + "  "
    # a scalar item is written in place, without a call of its own
    if kind is dict and value:
        items = [f"{_quote(k)}: {_SCALARS[type(v)](v) if type(v) in _SCALARS else _json_text(v, inner)}"
                 for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if (kind is list or kind is tuple) and value:
        items = [_SCALARS[type(v)](v) if type(v) in _SCALARS else _json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if kind is dict or kind is list or kind is tuple:
        return "{}" if kind is dict else "[]"
    if kind not in _SCALARS:  # a float, a named tuple or a set never reaches a report
        raise TypeError(f"a report holds no {kind.__name__}: {value!r}")
    return _SCALARS[kind](value)


def _json_chunks(value, nl: str = "\n") -> Iterator[str]:
    """The pieces of ``_json_text(value, nl)``: dicts are walked, and each item of a list in a dict is one piece."""
    if type(value) is not dict or not value:
        yield _json_text(value, nl)
        return
    inner = nl + "  "
    for i, (key, item) in enumerate(sorted(value.items())):
        yield f"{',' if i else '{'}{inner}{_quote(key)}: "
        if type(item) is list and item:
            yield from (f"{',' if j else '['}{inner}  {_json_text(v, inner + '  ')}" for j, v in enumerate(item))
            yield inner + "]"
        else:
            yield from _json_chunks(item, inner)
    yield nl + "}"


def _emit(payload: dict, args: argparse.Namespace) -> None:
    # JSON goes out in blocks of 256 ``_json_chunks`` pieces (a verify case
    # is one piece), so peak memory stays that of the computed report, while
    # an unbuffered stdout (``python -u``) makes one system call per block.
    if args.json:
        chunks = _json_chunks(payload)
        blocks = itertools.chain(iter(lambda: "".join(itertools.islice(chunks, 256)), ""), ("\n",))
    else:
        blocks = (_render_text(payload),)
    if args.out is not None:
        _write_out(args.out, blocks)
        return
    try:
        sys.stdout.writelines(blocks)
        sys.stdout.flush()
    except OSError as exc:
        if sys.stdout is sys.__stdout__:  # the flush at exit must not fail again (Python's SIGPIPE note)
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise UsageError(f"cannot write stdout: {exc.strerror}") from exc


def _render_lines(value: dict | list | tuple, indent: int = 0) -> Iterator[str]:
    pad = "  " * indent
    pairs = ((f"{k}:", v) for k, v in value.items()) if isinstance(value, dict) else (("-", v) for v in value)
    for label, inner in pairs:
        if isinstance(inner, (dict, list, tuple)):
            yield f"{pad}{label}"
            yield from _render_lines(inner, indent + 1)
        else:
            yield f"{pad}{label} {inner}"


def _render_text(payload: dict) -> str:
    head = f"{payload['tool']} {payload['version']} :: {payload['command']}"
    body = {key: payload[key] for key in ("input", "result", "notes", "timing") if payload.get(key)}
    return "\n".join([head, *_render_lines(body)]) + "\n"


# Each record's report shape lives here alone.  Stratum, spec and atom
# reports list the record's fields in field order, then the CLI's own keys.


def _stratum_dict(stratum) -> dict:
    return {**stratum._asdict(), "codim": stratum.codim}


def _spec_dict(spec) -> dict:
    # "level" and "field_label" stay in the report format as constants: no
    # number depends on the level structure or on the name of the field.
    if isinstance(spec, SymplecticFamily):
        return {"flavor": "symplectic", **spec._asdict(), "level": 3}
    return {"flavor": "unitary", **spec._asdict(), "field_label": "L", "level": 3}


def _atom_dict(atom) -> dict:
    return {"kind": "sp" if isinstance(atom, SpAtom) else "su_form", **atom._asdict(), "dim": atom.dim}


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
    plan = report.plan
    return {
        "fiber_genus": report.fiber_genus,
        "spec": _spec_dict(plan.spec),
        "mdec_codim": plan.mdec.codim,
        "mdec_witness": _stratum_dict(plan.mdec.witness),
        "boundary_codim": plan.boundary.codim,
        "boundary_exact": plan.boundary.exact,
        "torelli_codim": report.torelli_codim,
        "post_torelli_budget": report.post_torelli_budget,
        "feasible": report.feasible,
        "monodromy": plan.monodromy.label,
        "monodromy_dim": plan.monodromy_dim,
    }


def _case_dict(case) -> dict:
    out = {"input": case.input, "expected": case.expected, "computed": case.computed, "agree": case.agree}
    if case.witness is not None:
        out["witness"] = case.witness
    if case.note:
        out["note"] = case.note
    return out


#: What each handler returns: input echo, result, notes and exit code.
CommandReport = tuple[dict, dict, Sequence[str], int]


def _feasibility_code(args: argparse.Namespace, report) -> int:
    return EXIT_INFEASIBLE if args.require_feasible and not report.feasible else EXIT_OK


def _cmd_plan(args: argparse.Namespace) -> CommandReport:
    if args.unitary is not None:
        spec = UnitaryFamily(args.elliptic or 0, *args.unitary)
    else:
        spec = SymplecticFamily(args.fixed, args.varying)
    report = plan_family(spec)
    return _spec_dict(spec), _plan_dict(report), report.notes, _feasibility_code(args, report)


def _cmd_strata(args: argparse.Namespace) -> CommandReport:
    if args.unitary is not None:
        p, q = args.unitary
        strata = strata_of_unitary(p, q)
        minimum = mdec_codim_unitary(p, q, strata)
        inputs = {"flavor": "unitary", "p": p, "q": q}
    else:
        shape = DecompositionShape(args.fixed, args.varying)
        strata = strata_of_shape(shape)
        minimum = mdec_codim_fixedpart(shape)
        # the memoized minimum must be the enumeration's first stratum; in one ambient, label and codim name it
        agree(
            f"memoized and enumerated minima differ for {shape}",
            memoized=f"{minimum.witness.label} of codimension {minimum.codim}",
            enumerated=f"{strata[0].label} of codimension {strata[0].codim}",
        )
        # --fixed is echoed in the order given
        inputs = {"flavor": "symplectic", "fixed_dims": args.fixed, "varying_dims": shape.varying_dims}
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
    return inputs, result, minimum.notes, EXIT_OK if minimum.agrees else EXIT_DISAGREEMENT


def _cmd_gamma(args: argparse.Namespace) -> CommandReport:
    g = args.g
    maximum = max_product_dim(g)  # it has searched every class, so each check below reads a memoized value
    classes = [
        {
            "block_sizes": sizes,
            "gamma_dim": gamma_dim(sizes),
            "translate_codim": agree(f"translate codimension of {sizes}", closed_form=gamma_gamma_codim(sizes),
                                     search=gamma_gamma_codim_by_search(sizes)),
        }
        for sizes in proper_classes(g)
    ]
    result = {
        "ground_size": g,
        "ambient_group_dim": sp_dim(g),
        "max_product_dim": maximum.value,
        "closed_form": maximum.closed_form,
        "agrees": maximum.agrees,
        "witness": maximum.witness.entries,
        "partition_classes": classes,
    }
    if args.witness_all:
        result["maximizers"] = [result["witness"]]
    notes = ["translate codimensions depend only on the block-size multiset"]
    return {"g": g}, result, notes, EXIT_OK if maximum.agrees else EXIT_DISAGREEMENT


def _cmd_verify(args: argparse.Namespace) -> CommandReport:
    run = run_check(args.lemma_id, args.g_max)
    disagreements = run.disagreements
    summary = {"cases": len(run.cases), "disagreements": len(disagreements)}
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
    return {"genus": args.genus}, _kodaira_dict(report), report.notes, _feasibility_code(args, report)


def _cmd_realize(args: argparse.Namespace) -> CommandReport:
    if args.unitary is not None:
        flavor, target = "unitary", GroupExpr([SUFormAtom(*args.unitary)])
    else:
        flavor, target = "symplectic", GroupExpr(SpAtom(r) for r in args.varying)
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
    return inputs, result, report.notes, EXIT_OK if result["round_trip_ok"] else EXIT_DISAGREEMENT


def run(argv: Sequence[str]) -> int:
    """Parse argv, run the subcommand, emit its report once and return the exit code."""
    parser = build_parser()
    created = False
    try:
        args = parser.parse_args(list(argv))
        _reject_inapplicable(parser, args)
        if args.out is not None:
            # an unwritable FILE, "--out ''" too, fails before the work; appending nothing leaves a found FILE unchanged
            existed = os.path.lexists(args.out)
            _write_out(args.out, (), "a")
            created = not existed
        start = time.perf_counter()
        inputs, result, notes, code = args.handler(args)
        payload = {
            "tool": TOOL_NAME,
            "version": __version__,
            "command": args.command,
            "input": inputs,
            "result": result,
            "notes": notes,
        }
        if args.timing:  # the handler's time; rendering is not counted
            payload["timing"] = {"elapsed_us": int((time.perf_counter() - start) * 1_000_000)}
        _emit(payload, args)
        return code
    except Disagreement as exc:
        line, code = f"disagreement: {exc}", EXIT_DISAGREEMENT
    except DimensionCalculusError as exc:
        # a rule of the library, named under the subcommand that broke it
        line, code = f"error: {args.command}: {exc}", EXIT_USAGE
    except UsageError as exc:
        line, code = f"error: {exc}", EXIT_USAGE
    if created:  # a failed command leaves no FILE it created
        os.remove(args.out)
    sys.stderr.write(f"{TOOL_NAME}: {line}\n")
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
