"""Command-line front-end.

Exit codes: 0 success / all checks hold, 1 input error, 2 unsupported input
class, 3 check violated or indeterminate, 4 internal invariant violation.
Results and help go to stdout, diagnostics and warnings to stderr.  The
argument parser is built on the first call of `run` and reused by every later
call in the process.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import warnings
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
from .ideals import MonomialIdeal
from .invariants import (
    _milnor_bound,
    CheckOutcome,
    InvariantReport,
    alpha,
    beta,
    beta_ordinary,
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
    poly_to_string,
)
from .poly import Poly

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNSUPPORTED = 2
EXIT_CHECK_FAILED = 3
EXIT_INTERNAL = 4

CHECK_NAMES = (
    "question1",
    "thm-alpha-lct",
    "restriction",
    "madic",
    "milnor-bound",
    "dfem",
    "minkowski",
)

MAX_SCAN_CELLS = 100_000


@dataclass
class JobSpec:
    """Parsed invocation: command, output mode, caps, and the argparse
    namespace with the payload and the per-command flags."""

    command: str
    json_output: bool
    caps: PolyhedronCaps
    args: argparse.Namespace


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

    def common(p, poly=False, ideal=False):
        p.add_argument("--vars", help="comma-separated variable names")
        if poly:
            p.add_argument("--poly", help="polynomial expression")
        if ideal:
            p.add_argument("--ideal", help="comma-separated monomial generators")
        p.add_argument("--json", action="store_true", dest="json_output")
        p.add_argument(
            "--max-points", type=int, default=None,
            help="override the generator-count cap for facet enumeration",
        )

    p = sub.add_parser("lct", help="log canonical threshold of a monomial ideal")
    common(p, ideal=True)
    p.add_argument(
        "--certificate", action="store_true",
        help="compute by the facet dual and print the optimal facet",
    )
    p = sub.add_parser("beta", help="threshold of (maximal ideal)*(Jacobian ideal)")
    common(p, poly=True)
    p.add_argument(
        "--include-f", action="store_true", dest="include_f",
        help="add f itself to the Jacobian generators",
    )
    p.add_argument(
        "--ordinary",
        metavar="N,D",
        help="closed form for an ordinary singular point: dimension,multiplicity",
    )
    p = sub.add_parser("alpha", help="minimal exponent at the origin")
    common(p, poly=True)
    p = sub.add_parser("milnor", help="Milnor number at the origin")
    common(p, poly=True)
    p = sub.add_parser("mult", help="Hilbert-Samuel multiplicity of a monomial ideal")
    common(p, ideal=True)
    p = sub.add_parser("newton", help="dump Newton polyhedron points/facets/vertices")
    common(p, ideal=True)

    p = sub.add_parser("check", help="verify one inequality")
    p.add_argument("name", choices=CHECK_NAMES)
    common(p, poly=True, ideal=True)
    p.add_argument("--poly2", help="second polynomial (madic)")
    p.add_argument("--ideal2", help="second ideal (minkowski)")
    p.add_argument("--axis", help="variable to restrict along (restriction)")

    p = sub.add_parser("scan", help="run a check across a family")
    p.add_argument("kind", choices=("diagonal", "monomial-pairs"))
    p.add_argument("--n", type=int, default=2, dest="dim")
    p.add_argument("--max-exp", type=int, default=4)
    p.add_argument("--check", default="question1")
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--max-cells", type=int, default=MAX_SCAN_CELLS,
        help="override the scan grid cap (use with care)",
    )
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
    return json.dumps(payload, sort_keys=True)


def _print_report(r: InvariantReport, job: JobSpec, out):
    if job.json_output:
        print(emit_json(report_to_dict(r)), file=out)
        return
    print(f"{r.kind} = {format_rat(r.value)}", file=out)
    if r.certificate is not None:
        u = ",".join(format_rat(x) for x in r.certificate.u)
        print(f"certificate: u = ({u}), ord = {format_rat(r.certificate_ord)}", file=out)
    if r.assumes:
        print(f"assumes: {', '.join(r.assumes)}", file=out)


def _print_outcome(c: CheckOutcome, job: JobSpec, out) -> int:
    if job.json_output:
        print(emit_json(outcome_to_dict(c)), file=out)
    elif c.holds is True:
        rel = "=" if c.equality else "<=" if c.name != "restriction" else ">="
        print(f"holds: {format_rat(c.lhs)} {rel} {format_rat(c.rhs)}", file=out)
    elif c.holds is False:
        print(f"violated: lhs={format_rat(c.lhs)} rhs={format_rat(c.rhs)}", file=out)
    else:
        print(
            f"indeterminate: lhs~{format_rat(c.lhs)} rhs~{format_rat(c.rhs)}",
            file=out,
        )
    return EXIT_OK if c.holds is True else EXIT_CHECK_FAILED


# -- command handlers ----------------------------------------------------------


def _cmd_lct(job, out):
    vars = _need_vars(job.args)
    a = _need_ideal(job.args, vars)
    r = lct_monomial_dual(a, job.caps) if job.args.certificate else lct_monomial(a)
    _print_report(r, job, out)
    return EXIT_OK


def _cmd_beta(job, out):
    if getattr(job.args, "ordinary", None):
        try:
            n, d = (int(x) for x in job.args.ordinary.split(","))
        except ValueError as exc:
            raise InputError("--ordinary expects N,D") from exc
        _print_report(beta_ordinary(n, d), job, out)
        return EXIT_OK
    vars = _need_vars(job.args)
    f = _need_poly(job.args, vars)
    _print_report(beta(f, include_f=job.args.include_f), job, out)
    return EXIT_OK


def _cmd_alpha(job, out):
    vars = _need_vars(job.args)
    f = _need_poly(job.args, vars)
    _print_report(alpha(f), job, out)
    return EXIT_OK


def _cmd_milnor(job, out):
    vars = _need_vars(job.args)
    f = _need_poly(job.args, vars)
    _print_report(milnor(f), job, out)
    return EXIT_OK


def _cmd_mult(job, out):
    vars = _need_vars(job.args)
    a = _need_ideal(job.args, vars)
    e = newton.multiplicity(a, job.caps)
    r = InvariantReport(
        "multiplicity", Fraction(e), "covolume", a.n, ideal_to_string(a, vars)
    )
    _print_report(r, job, out)
    return EXIT_OK


def _cmd_newton(job, out):
    vars = _need_vars(job.args)
    a = _need_ideal(job.args, vars)
    P = newton.build(a)
    facets = newton.facets(P, job.caps)
    vertices = newton.vertices(P, job.caps)
    payload = {
        "points": [[format_rat(x) for x in p] for p in P.points],
        "facets": [
            {"u": [format_rat(x) for x in f.u], "c": format_rat(f.c)}
            for f in facets
        ],
        "vertices": [[format_rat(x) for x in v] for v in vertices],
    }
    if job.json_output:
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


def _cmd_check(job, out):
    args = job.args
    vars = _need_vars(args)
    name = args.name
    if name == "question1":
        c = check_question1(_need_poly(args, vars))
    elif name == "thm-alpha-lct":
        c = check_thm_alpha_le_lct(
            _need_poly(args, vars), _need_ideal(args, vars)
        )
    elif name == "restriction":
        if not args.axis:
            raise InputError("--axis is required for the restriction check")
        if args.axis not in vars.names:
            raise InputError(f"unknown variable {args.axis!r} in --axis")
        c = check_restriction(_need_poly(args, vars), vars.index(args.axis))
    elif name == "madic":
        c = check_madic(
            _need_poly(args, vars), _need_poly(args, vars, attr="poly2")
        )
    elif name == "milnor-bound":
        c = check_milnor_bound(_need_poly(args, vars))
    elif name == "dfem":
        c = check_dfem(_need_ideal(args, vars), job.caps)
    elif name == "minkowski":
        c = check_minkowski(
            _need_ideal(args, vars),
            _need_ideal(args, vars, attr="ideal2"),
            job.caps,
        )
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown check {name!r}")
    return _print_outcome(c, job, out)


def _scan_diagonal(args, out, json_output):
    n = args.dim
    max_exp = args.max_exp
    if not (1 <= n <= 4 and 2 <= max_exp <= 9):
        raise InputError("scan caps: 1 <= n <= 4 and 2 <= max exponent <= 9")
    cells = (max_exp - 1) ** n
    if cells > args.max_cells:
        raise InputError(
            f"scan grid has {cells} cells, above the {args.max_cells} cap"
        )
    if args.check not in ("question1", "milnor-bound"):
        raise InputError("diagonal scan supports question1 and milnor-bound")
    rows = []
    violations = 0
    min_gap = None
    min_at = None
    for exps in product(range(2, max_exp + 1), repeat=n):
        f = Poly(
            n,
            {
                tuple(e if j == i else 0 for j in range(n)): 1
                for i, e in enumerate(exps)
            },
        )
        if args.check == "question1":
            c = check_question1(f)
            a, b = c.lhs, c.rhs
        else:
            a = alpha(f).value
            b = beta(f).value
            c = _milnor_bound(f, b)
        verdict = "holds" if c.holds is True else (
            "violated" if c.holds is False else "indeterminate"
        )
        if c.holds is not True:
            violations += 1
        gap = b - a
        if min_gap is None or gap < min_gap:
            min_gap = gap
            min_at = exps
        rows.append(
            {
                "a": list(exps),
                "alpha": format_rat(a),
                "beta": format_rat(b),
                "verdict": verdict,
                "equality": c.equality,
            }
        )
    summary = {
        "cases": len(rows),
        "violations": violations,
        "min_gap": format_rat(min_gap),
        "min_gap_at": list(min_at),
    }
    if json_output:
        print(emit_json({"scan": "diagonal", "rows": rows, "summary": summary}), file=out)
    else:
        for row in rows:
            print(
                f"a=({','.join(map(str, row['a']))}) alpha={row['alpha']} "
                f"beta={row['beta']} verdict={row['verdict']}",
                file=out,
            )
        print(
            f"summary: {summary['cases']} cases, {violations} violations, "
            f"min gap {summary['min_gap']} at "
            f"a=({','.join(map(str, min_at))})",
            file=out,
        )
    return EXIT_OK if violations == 0 else EXIT_CHECK_FAILED


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


def _scan_monomial_pairs(args, out, json_output):
    n = args.dim
    if n > 3:
        raise InputError("monomial-pairs scan supports n <= 3")
    if args.check not in ("minkowski", "dfem"):
        raise InputError("monomial-pairs scan supports minkowski and dfem")
    if args.count > args.max_cells:
        raise InputError("count exceeds the scan cap")
    rng = random.Random(args.seed)
    rows = []
    violations = 0
    from .ideals import ideal_product

    for idx in range(args.count):
        a = random_zero_dim_ideal(rng, n)
        b = random_zero_dim_ideal(rng, n)
        if args.check == "minkowski":
            c = check_minkowski(a, b)
        else:
            c = check_dfem(ideal_product(a, b))
        verdict = "holds" if c.holds is True else (
            "violated" if c.holds is False else "indeterminate"
        )
        if c.holds is not True:
            violations += 1
        rows.append(
            {
                "index": idx,
                "a": ideal_to_string(a),
                "b": ideal_to_string(b),
                "verdict": verdict,
                "equality": c.equality,
            }
        )
    summary = {"cases": len(rows), "violations": violations}
    if json_output:
        print(
            emit_json({"scan": "monomial-pairs", "rows": rows, "summary": summary}),
            file=out,
        )
    else:
        for row in rows:
            print(
                f"[{row['index']}] a=({row['a']}) b=({row['b']}) "
                f"verdict={row['verdict']}",
                file=out,
            )
        print(f"summary: {summary['cases']} cases, {violations} violations", file=out)
    return EXIT_OK if violations == 0 else EXIT_CHECK_FAILED


def _cmd_scan(job, out):
    if job.args.kind == "diagonal":
        return _scan_diagonal(job.args, out, job.json_output)
    return _scan_monomial_pairs(job.args, out, job.json_output)


def _cmd_registry(job, out):
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
    if job.json_output:
        print(
            emit_json({"entries": entries, "question1": outcome_to_dict(cross)}),
            file=out,
        )
    else:
        for e in entries:
            print(f"{e['input']}: {e['invariant']} = {e['value']} (registry)", file=out)
        verdict = "holds" if cross.holds is True else "violated"
        print(
            f"registry question1: {verdict} "
            f"({format_rat(cross.lhs)} <= {format_rat(cross.rhs)})",
            file=out,
        )
    return EXIT_OK if cross.holds is True else EXIT_CHECK_FAILED


_HANDLERS = {
    "lct": _cmd_lct,
    "beta": _cmd_beta,
    "alpha": _cmd_alpha,
    "milnor": _cmd_milnor,
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
        job = JobSpec(
            command=args.command,
            json_output=getattr(args, "json_output", False),
            caps=_caps_from_env(args),
            args=args,
        )
        return _HANDLERS[args.command](job, out), ""
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
