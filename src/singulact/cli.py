"""Command-line front-end.

Exit codes: 0 success / all checks hold, 1 input error, 2 unsupported input
class, 3 check violated or indeterminate, 4 internal invariant violation.
Results and help go to stdout, diagnostics and warnings to stderr.  The
argument parser is built on the first call of `run` and reused by every later
call in the process.  `CHECKS` (one entry per inequality of `check`) and
`FAMILIES` (one per family of `scan`) give the parser's choices, the dispatch
and the flags each entry reads; any other flag is refused.  A verdict prints
the relation its `CheckOutcome` was decided under.  `INVARIANTS` gives the
subcommands that answer one invariant of a polynomial, and their dispatch.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import warnings
from collections.abc import Callable
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from itertools import product

from . import newton
from .errors import (
    InputError,
    InternalInvariantError,
    SingulactError,
    UnsupportedClassError,
)
from .ideals import MonomialIdeal, ideal_product
from .invariants import (
    _milnor_bound,
    CheckOutcome,
    InvariantReport,
    alpha,
    beta,
    check_dfem,
    check_madic,
    check_milnor_bound,
    check_minkowski,
    check_question1,
    check_restriction,
    check_thm_alpha_le_lct,
    known_values,
    lct_monomial,
    lct_monomial_dual,
    milnor,
    registry_question1,
)
from .newton import DEFAULT_CAPS, PolyhedronCaps
from .parsing import (
    VarTable,
    format_rat,
    ideal_to_string,
    parse_monomial_ideal,
    parse_polynomial,
)
from .poly import Poly

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNSUPPORTED = 2
EXIT_CHECK_FAILED = 3
EXIT_INTERNAL = 4

MAX_SCAN_CELLS = 100_000


class _UsageError(Exception):
    """A rejected command line, with argparse's usage line and message."""


class _Help(Exception):
    """A request for help, with the help text."""


class _Parser(argparse.ArgumentParser):
    """Raises `_UsageError` or `_Help` where argparse would print to
    sys.stderr or sys.stdout and exit, so that `run` writes the text to its
    own `err` or `out` stream.  Subparsers are built from the same class."""

    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}\n")

    def print_help(self, file=None):
        raise _Help(self.format_help())


@cache
def _build_parser():
    ap = _Parser(
        prog="singulact",
        description="Exact singularity invariants of hypersurfaces and "
        "monomial ideals.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, poly=False, ideal=False, caps=False):
        p.add_argument("--vars", help="comma-separated variable names")
        if poly:
            p.add_argument("--poly", help="polynomial expression")
        if ideal:
            p.add_argument("--ideal", help="comma-separated monomial generators")
        p.add_argument("--json", action="store_true", dest="json_output")
        if caps:
            p.add_argument(
                "--max-points", type=int, default=None,
                help="override the generator-count cap for facet enumeration",
            )

    p = sub.add_parser("lct", help="log canonical threshold of a monomial ideal")
    common(p, ideal=True, caps=True)
    p.add_argument(
        "--certificate", action="store_true",
        help="compute by the facet dual and print the optimal facet",
    )
    for name, (text, _) in INVARIANTS.items():
        common(sub.add_parser(name, help=text), poly=True)
    p = sub.add_parser("mult", help="Hilbert-Samuel multiplicity of a monomial ideal")
    common(p, ideal=True, caps=True)
    p = sub.add_parser("newton", help="dump Newton polyhedron points/facets/vertices")
    common(p, ideal=True, caps=True)

    p = sub.add_parser("check", help="verify one inequality")
    p.add_argument("name", choices=CHECKS)
    common(p, poly=True, ideal=True, caps=True)
    p.add_argument("--poly2", help="second polynomial (madic)")
    p.add_argument("--ideal2", help="second ideal (minkowski)")
    p.add_argument("--axis", help="variable to restrict along (restriction)")

    p = sub.add_parser("scan", help="run a check across a family")
    p.add_argument("kind", choices=FAMILIES)
    p.add_argument("--n", type=int, metavar="DIM")
    p.add_argument("--max-exp", type=int)
    p.add_argument("--check", default="question1")
    p.add_argument("--count", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--json", action="store_true", dest="json_output")

    p = sub.add_parser("registry", help="documented known values (never computed)")
    p.add_argument("--json", action="store_true", dest="json_output")
    return ap


def _positive_cap(value, name) -> int:
    try:
        cap = int(value)
    except ValueError:
        cap = 0
    if cap < 1:
        raise InputError(f"{name} must be a positive integer, got {value!r}")
    return cap


def _caps_from_env(args) -> PolyhedronCaps:
    caps = DEFAULT_CAPS
    env_n = os.environ.get("SINGULACT_CAPS_N")
    if env_n:
        caps = replace(caps, max_dim=_positive_cap(env_n, "SINGULACT_CAPS_N"))
    max_points = getattr(args, "max_points", None)
    if max_points is not None:
        caps = replace(caps, max_points=_positive_cap(max_points, "--max-points"))
    return caps


def _need_vars(args) -> VarTable:
    if not getattr(args, "vars", None):
        raise InputError("--vars is required (the ambient dimension is never inferred)")
    return VarTable.from_csv(args.vars)


def _need_poly(args, vars, attr="poly") -> Poly:
    text = getattr(args, attr, None)
    if not text:
        raise InputError(f"--{attr} is required for this command")
    return parse_polynomial(text, vars)


def _need_ideal(args, vars, attr="ideal") -> MonomialIdeal:
    text = getattr(args, attr, None)
    if not text:
        raise InputError(f"--{attr} is required for this command")
    return parse_monomial_ideal(text, vars)


def _need_axis(args, vars, attr="axis") -> int:
    name = getattr(args, attr, None)
    if not name:
        raise InputError("--axis is required for the restriction check")
    if name not in vars.names:
        raise InputError(f"unknown variable {name!r} in --axis")
    return vars.index(name)


def _refuse_unread(args, command: str, reads, flags):
    """Refuse each of `flags` (argparse dests) that was given but is not in
    `reads`."""
    given = [f for f in flags if f not in reads and getattr(args, f) is not None]
    unread = ["--" + f.replace("_", "-") for f in given]
    if unread:
        raise InputError(f"{command} does not read {', '.join(unread)}")


# -- serialization ------------------------------------------------------------


def report_to_dict(r: InvariantReport) -> dict:
    out = {
        "invariant": r.kind,
        "value": format_rat(r.value),
        "method": r.method,
        "n": r.n,
        "input": r.input_echo,
    }
    if r.certificate is not None:
        out["certificate"] = {
            "u": [format_rat(x) for x in r.certificate.u],
            "ord": format_rat(r.certificate_ord),
        }
    if r.assumes:
        out["assumes"] = list(r.assumes)
    return out


def outcome_to_dict(c: CheckOutcome) -> dict:
    return {
        "check": c.name,
        "holds": c.holds if c.holds == "indeterminate" else bool(c.holds),
        "lhs": format_rat(c.lhs),
        "rhs": format_rat(c.rhs),
        "equality": c.equality,
        "witness": c.witness,
    }


def emit_json(payload) -> str:
    """Sorted keys; a rational that is not yet a string renders as one."""
    return json.dumps(payload, sort_keys=True, default=format_rat)


def _verdict(holds) -> str:
    return {True: "holds", False: "violated"}.get(holds, "indeterminate")


def _print_report(r: InvariantReport, json_output: bool, out):
    if json_output:
        print(emit_json(report_to_dict(r)), file=out)
        return
    print(f"{r.kind} = {format_rat(r.value)}", file=out)
    if r.certificate is not None:
        u = ",".join(format_rat(x) for x in r.certificate.u)
        print(f"certificate: u = ({u}), ord = {format_rat(r.certificate_ord)}", file=out)
    if r.assumes:
        print(f"assumes: {', '.join(r.assumes)}", file=out)


def _print_outcome(c: CheckOutcome, json_output: bool, out) -> int:
    if json_output:
        print(emit_json(outcome_to_dict(c)), file=out)
    elif c.holds is True:
        rel = "=" if c.equality else c.relation
        print(f"holds: {format_rat(c.lhs)} {rel} {format_rat(c.rhs)}", file=out)
    elif c.holds is False:
        print(f"violated: lhs={format_rat(c.lhs)} rhs={format_rat(c.rhs)}", file=out)
    else:
        print(
            f"indeterminate: lhs~{format_rat(c.lhs)} rhs~{format_rat(c.rhs)}",
            file=out,
        )
    return EXIT_OK if c.holds is True else EXIT_CHECK_FAILED


def _text(fields: dict) -> dict:
    """Fields for a text format: lists as comma-separated values."""
    return {k: ",".join(map(str, v)) if isinstance(v, list) else v
            for k, v in fields.items()}


# -- command handlers ----------------------------------------------------------


def _cmd_lct(args, caps, out):
    if not args.certificate:
        # The LP route enumerates no facets, so a facet cap means nothing.
        _refuse_unread(args, "lct without --certificate", (), ("max_points",))
    vars = _need_vars(args)
    a = _need_ideal(args, vars)
    r = lct_monomial_dual(a, caps) if args.certificate else lct_monomial(a)
    _print_report(r, args.json_output, out)
    return EXIT_OK


# One invariant of a polynomial per subcommand, in the parser's order:
# name -> (help, function).
INVARIANTS = {
    "beta": ("threshold of (maximal ideal)*(Jacobian ideal)", beta),
    "alpha": ("minimal exponent at the origin", alpha),
    "milnor": ("Milnor number at the origin", milnor),
}


def _cmd_invariant(args, caps, out):
    vars = _need_vars(args)
    f = _need_poly(args, vars)
    _print_report(INVARIANTS[args.command][1](f), args.json_output, out)
    return EXIT_OK


def _cmd_mult(args, caps, out):
    vars = _need_vars(args)
    a = _need_ideal(args, vars)
    e = newton.multiplicity(a, caps)
    r = InvariantReport(
        "multiplicity", Fraction(e), "covolume", a.n, ideal_to_string(a, vars)
    )
    _print_report(r, args.json_output, out)
    return EXIT_OK


def _cmd_newton(args, caps, out):
    vars = _need_vars(args)
    a = _need_ideal(args, vars)
    P = newton.build(a)
    facets = newton.facets(P, caps)
    vertices = newton.vertices(P, caps)
    payload = {
        "points": [[format_rat(x) for x in p] for p in P.points],
        "facets": [
            {"u": [format_rat(x) for x in f.u], "c": format_rat(f.c)}
            for f in facets
        ],
        "vertices": [[format_rat(x) for x in v] for v in vertices],
    }
    if args.json_output:
        print(emit_json(payload), file=out)
    else:
        print("points:", "; ".join(",".join(p) for p in payload["points"]), file=out)
        for f in payload["facets"]:
            print(f"facet: u=({','.join(f['u'])}) c={f['c']}", file=out)
        print(
            "vertices:",
            "; ".join(",".join(v) for v in payload["vertices"]),
            file=out,
        )
    return EXIT_OK


# -- the table of checks ------------------------------------------------------

# How each input of a check is read, after --vars; `max_points` is the caps.
_READERS = {
    "poly": _need_poly,
    "ideal": _need_ideal,
    "poly2": _need_poly,
    "ideal2": _need_ideal,
    "axis": _need_axis,
}
_CHECK_FLAGS = (*_READERS, "max_points")


@dataclass(frozen=True)
class Check:
    """One inequality of `check`: the flags it reads, in the order they are
    read and passed to `fn`."""

    inputs: tuple
    fn: Callable[..., CheckOutcome]


CHECKS = {
    "question1": Check(("poly",), check_question1),
    "thm-alpha-lct": Check(("poly", "ideal"), check_thm_alpha_le_lct),
    "restriction": Check(("axis", "poly"), lambda axis, f: check_restriction(f, axis)),
    "madic": Check(("poly", "poly2"), check_madic),
    "milnor-bound": Check(("poly",), check_milnor_bound),
    "dfem": Check(("ideal", "max_points"), check_dfem),
    "minkowski": Check(("ideal", "ideal2", "max_points"), check_minkowski),
}


def _cmd_check(args, caps, out):
    check = CHECKS[args.name]
    _refuse_unread(args, f"check {args.name}", check.inputs, _CHECK_FLAGS)
    vars = _need_vars(args)
    values = [
        caps if flag == "max_points" else _READERS[flag](args, vars, flag)
        for flag in check.inputs
    ]
    return _print_outcome(check.fn(*values), args.json_output, out)


# -- the table of scan families -----------------------------------------------


def _diagonal_question1(f):
    c = check_question1(f)
    return c.lhs, c.rhs, c


def _diagonal_milnor_bound(f):
    a = alpha(f).value
    b = beta(f).value
    return a, b, _milnor_bound(f, b)


def _diagonal_cases(args, pick):
    """x_1^a_1 + ... + x_n^a_n for every exponent vector in [2, max_exp]^n."""
    n = args.n
    if not (1 <= n <= 4 and 2 <= args.max_exp <= 9):
        raise InputError("scan caps: 1 <= n <= 4 and 2 <= max exponent <= 9")
    check = pick()
    for exps in product(range(2, args.max_exp + 1), repeat=n):
        f = Poly(
            n,
            {
                tuple(e if j == i else 0 for j in range(n)): 1
                for i, e in enumerate(exps)
            },
        )
        a, b, c = check(f)
        yield {"a": list(exps), "alpha": a, "beta": b}, c


def _min_gap(rows) -> dict:
    """Where beta - alpha is least, first in grid order."""
    at = min(rows, key=lambda r: r["beta"] - r["alpha"])
    return {"min_gap": at["beta"] - at["alpha"], "min_gap_at": at["a"]}


def random_zero_dim_ideal(rng: random.Random, n: int) -> MonomialIdeal:
    """Seeded generator for scan/test corpora: pure powers on every axis plus
    a few mixed monomials."""
    gens = [
        tuple(rng.randint(1, 4) if j == i else 0 for j in range(n))
        for i in range(n)
    ]
    for _ in range(rng.randint(0, 2)):
        gens.append(tuple(rng.randint(0, 4) for _ in range(n)))
    ideal = MonomialIdeal(n, gens)
    if ideal.is_unit:
        return random_zero_dim_ideal(rng, n)
    return ideal


def _pair_cases(args, pick):
    """`count` seeded pairs of zero-dimensional monomial ideals."""
    if args.n > 3:
        raise InputError("monomial-pairs scan supports n <= 3")
    check = pick()
    if args.count > MAX_SCAN_CELLS:
        raise InputError("count exceeds the scan cap")
    if args.count < 1:
        raise InputError("monomial-pairs scan needs --count >= 1")
    rng = random.Random(args.seed)
    for index in range(args.count):
        a = random_zero_dim_ideal(rng, args.n)
        b = random_zero_dim_ideal(rng, args.n)
        fields = {"index": index, "a": ideal_to_string(a), "b": ideal_to_string(b)}
        yield fields, check(a, b)


@dataclass(frozen=True)
class Family:
    """One family of `scan`.  `cases(args, pick)` checks the ranges of the
    `flags` it reads, calls `pick()` for the `checks` entry of `--check`, and
    yields (row fields, outcome) per case; `extra(rows)` adds summary fields."""

    flags: dict
    checks: dict
    cases: Callable
    row: str
    summary: str = ""
    extra: Callable = lambda rows: {}


FAMILIES = {
    "diagonal": Family(
        flags={"n": 2, "max_exp": 4},
        checks={
            "question1": _diagonal_question1,
            "milnor-bound": _diagonal_milnor_bound,
        },
        cases=_diagonal_cases,
        row="a=({a}) alpha={alpha} beta={beta} verdict={verdict}",
        summary=", min gap {min_gap} at a=({min_gap_at})",
        extra=_min_gap,
    ),
    "monomial-pairs": Family(
        flags={"n": 2, "count": 50, "seed": 0},
        checks={
            "minkowski": check_minkowski,
            "dfem": lambda a, b: check_dfem(ideal_product(a, b)),
        },
        cases=_pair_cases,
        row="[{index}] a=({a}) b=({b}) verdict={verdict}",
    ),
}
_SCAN_FLAGS = tuple(dict.fromkeys(f for fam in FAMILIES.values() for f in fam.flags))


def _cmd_scan(args, caps, out):
    """The one summariser: every family's rows, verdicts and summary."""
    family = FAMILIES[args.kind]
    _refuse_unread(args, f"scan {args.kind}", family.flags, _SCAN_FLAGS)
    for flag, default in family.flags.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)

    def pick():
        if args.check not in family.checks:
            raise InputError(f"{args.kind} scan supports {' and '.join(family.checks)}")
        return family.checks[args.check]

    rows = [
        {**fields, "verdict": _verdict(c.holds), "equality": c.equality}
        for fields, c in family.cases(args, pick)
    ]
    violations = sum(row["verdict"] != "holds" for row in rows)
    summary = {"cases": len(rows), "violations": violations, **family.extra(rows)}
    if args.json_output:
        print(emit_json({"scan": args.kind, "rows": rows, "summary": summary}), file=out)
    else:
        for row in rows:
            print(family.row.format_map(_text(row)), file=out)
        text = "summary: {cases} cases, {violations} violations" + family.summary
        print(text.format_map(_text(summary)), file=out)
    return EXIT_OK if violations == 0 else EXIT_CHECK_FAILED


def _cmd_registry(args, caps, out):
    entries = [
        {
            "input": kv.description,
            "invariant": kv.invariant,
            "value": format_rat(kv.value),
            "method": "registry",
        }
        for kv in known_values()
    ]
    cross = registry_question1()
    if args.json_output:
        print(
            emit_json({"entries": entries, "question1": outcome_to_dict(cross)}),
            file=out,
        )
    else:
        for e in entries:
            print(f"{e['input']}: {e['invariant']} = {e['value']} (registry)", file=out)
        print(
            f"registry question1: {_verdict(cross.holds)} ({format_rat(cross.lhs)} "
            f"{cross.relation} {format_rat(cross.rhs)})",
            file=out,
        )
    return EXIT_OK if cross.holds is True else EXIT_CHECK_FAILED


_HANDLERS = {
    "lct": _cmd_lct,
    **dict.fromkeys(INVARIANTS, _cmd_invariant),
    "mult": _cmd_mult,
    "newton": _cmd_newton,
    "check": _cmd_check,
    "scan": _cmd_scan,
    "registry": _cmd_registry,
}


def run(argv, out=None, err=None) -> int:
    """Answer one command line on out and err; warnings raised while
    answering go to err on every call, not once per process."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, diagnostic = _answer(argv, out)
    for w in caught:
        print(f"warning: {w.message}", file=err)
    err.write(diagnostic)
    return code


def _answer(argv, out):
    """The exit code and the diagnostic text for one command line."""
    try:
        args = _build_parser().parse_args(argv)
    except _Help as exc:
        out.write(str(exc))
        return EXIT_OK, ""
    except _UsageError as exc:
        return EXIT_INPUT, str(exc)
    try:
        return _HANDLERS[args.command](args, _caps_from_env(args), out), ""
    except UnsupportedClassError as exc:
        return EXIT_UNSUPPORTED, f"unsupported input class: {exc}\n"
    except InternalInvariantError as exc:
        return EXIT_INTERNAL, f"internal invariant violation: {exc}\n"
    except InputError as exc:
        return EXIT_INPUT, f"input error: {exc}\n"
    except SingulactError as exc:
        return EXIT_INPUT, f"error: {exc}\n"


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
