"""Seeded request generators for the benchmark workloads, with their checks.

A workload is an endless sequence of rounds.  Every round holds the same
request classes in the same numbers; the seed only picks the exponents.  A
run therefore always ends on a round boundary, so each class keeps its exact
share of the requests and the p50 and p90 ranks land inside a class, never
on the boundary between a short class and a long one.

Each request carries a `check(exit_code, stdout)` that compares values,
verdicts and exit codes with `reference`, which never imports the program.
The `input` and `witness` echo fields are never compared.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import product
from typing import Callable

import reference as ref

NAMES = {2: "x,y", 3: "x,y,z", 4: "x,y,z,w"}
ROOT_TOLERANCE = Fraction(1, 2**60)


class Mismatch(Exception):
    """The program's answer disagrees with the independent reference."""


@dataclass
class Request:
    argv: list
    kind: str
    check: Callable[[int, str], None]


# -- text -------------------------------------------------------------------


def mono(v, names="xyzw"):
    parts = [names[i] if e == 1 else f"{names[i]}^{e}" for i, e in enumerate(v) if e]
    return "*".join(parts) or "1"


def ideal_text(gens):
    return ", ".join(mono(g) for g in gens)


def poly_text(terms):
    return " + ".join(mono(v) for v in terms)


def pure(n, i, e):
    return tuple(e if j == i else 0 for j in range(n))


# -- cached references --------------------------------------------------------


@lru_cache(maxsize=None)
def lct_of(gens):
    return ref.lct(gens)


@lru_cache(maxsize=None)
def mult_of(gens, n):
    return ref.mult_n2(gens) if n == 2 else ref.mult_by_counting(gens, n)


def beta_of(jac, n):
    """beta for a polynomial whose Jacobian ideal is the monomial ideal jac."""
    return lct_of(tuple(ref.ideal_product(ref.maximal_ideal(n), jac)))


def key(gens):
    return tuple(ref.antichain(gens))


def pure_jacobian(exps):
    """Monomial Jacobian ideal (x_i^{a_i - 1}) of the families used here."""
    n = len(exps)
    return [pure(n, i, a - 1) for i, a in enumerate(exps)]


# -- comparing one answer ---------------------------------------------------------


def rat(text):
    return text if text == "inf" else Fraction(text)


def expect(what, got, want):
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, expected {want!r}")


def load(code, out, want_code):
    expect("exit code", code, want_code)
    try:
        return json.loads(out)
    except ValueError as exc:
        raise Mismatch(f"output is not JSON: {out[:200]!r}") from exc


def verify_report(code, out, invariant, n, value):
    d = load(code, out, 0)
    expect("invariant", d["invariant"], invariant)
    expect("n", d["n"], n)
    expect(invariant, rat(d["value"]), value)
    return d


def verify_outcome(code, out, name, lhs, rhs, reverse=False):
    """Verdict, both sides and the equality flag of a check with exact sides;
    `reverse` for checks that hold when lhs >= rhs."""
    holds = lhs >= rhs if reverse else lhs <= rhs
    d = load(code, out, 0 if holds else 3)
    expect("check", d["check"], name)
    expect("holds", d["holds"], holds)
    expect("lhs", rat(d["lhs"]), lhs)
    expect("rhs", rat(d["rhs"]), rhs)
    expect("equality", d["equality"], lhs == rhs)


def near(what, value, lo, hi):
    if not lo - ROOT_TOLERANCE <= value <= hi + ROOT_TOLERANCE:
        raise Mismatch(f"{what}: {value} is not within 2^-60 of [{lo}, {hi}]")


def multiplicity_bounds(gens, n, e):
    """e <= prod b_i for the pure powers x_i^{b_i}, and e >= (n / lct)^n
    (de Fernex-Ein-Mustata)."""
    box = 1
    for b in ref.pure_power_exponents(gens, n):
        box *= b
    if not (Fraction(n) / lct_of(gens)) ** n <= e <= box:
        raise Mismatch(f"multiplicity {e} outside [(n/lct)^n, prod b_i = {box}]")


# -- checks, one per request class ----------------------------------------------


def check_question1_diagonal(exps, code, out):
    n = len(exps)
    alpha = ref.brieskorn_alpha(exps)
    verify_outcome(code, out, "question1", alpha, beta_of(pure_jacobian(exps), n))


def check_milnor_bound_diagonal(exps, code, out):
    n = len(exps)
    lhs = ref.milnor_bound_lhs(beta_of(pure_jacobian(exps), n), n)
    verify_outcome(code, out, "milnor-bound", lhs, Fraction(ref.brieskorn_milnor(exps)))


def check_minkowski(a, b, n, code, out):
    """e(ab)^(1/n) <= e(a)^(1/n) + e(b)^(1/n) always holds (Teissier,
    Rees-Sharp).  When e(b)/e(a) is a perfect n-th power both sides are
    compared as n-th powers; otherwise they are roots within 2^-60."""
    e_a, e_b = mult_of(a, n), mult_of(b, n)
    e_ab = mult_of(key(ref.ideal_product(a, b)), n)
    if e_ab < e_a + e_b:
        raise Mismatch(f"reference breaks e(ab) >= e(a) + e(b): {e_ab}, {e_a}, {e_b}")
    d = load(code, out, 0)
    expect("check", d["check"], "minkowski")
    expect("holds", d["holds"], True)
    lhs, rhs = rat(d["lhs"]), rat(d["rhs"])
    ratio = ref.exact_root_ratio(e_b, e_a, n)
    if ratio is not None:
        p, q = ratio
        expect("lhs", lhs, Fraction(e_ab))
        expect("rhs", rhs, Fraction(e_a * (p + q) ** n, q**n))
        expect("equality", d["equality"], lhs == rhs)
        return
    near("lhs", lhs, *ref.root_bracket(e_ab, n, 120))
    lo_a, hi_a = ref.root_bracket(e_a, n, 120)
    lo_b, hi_b = ref.root_bracket(e_b, n, 120)
    near("rhs", rhs, lo_a + lo_b, hi_a + hi_b)
    expect("equality", d["equality"], False)


def check_dfem(gens, n, code, out):
    e = mult_of(gens, n)
    multiplicity_bounds(gens, n, e)
    bound = (Fraction(n) / lct_of(gens)) ** n
    verify_outcome(code, out, "dfem", Fraction(e), bound, reverse=True)


def check_mult(gens, n, code, out):
    e = mult_of(gens, n)
    multiplicity_bounds(gens, n, e)
    verify_report(code, out, "multiplicity", n, e)


def check_mult_pure_powers(exps, code, out):
    e = 1
    for p in exps:
        e *= p
    verify_report(code, out, "multiplicity", len(exps), e)


def check_alpha(exps, support, code, out):
    """Nondegenerate route: 1 / t* of the support ideal; the families here
    are semi-quasihomogeneous with principal part sum x_i^{a_i}."""
    verify_report(code, out, "alpha", len(exps), lct_of(key(support)))


def check_beta(exps, code, out):
    verify_report(code, out, "beta", len(exps), beta_of(pure_jacobian(exps), len(exps)))


def check_milnor(exps, code, out):
    verify_report(code, out, "milnor", len(exps), Fraction(ref.brieskorn_milnor(exps)))


def check_question1_family(exps, support, code, out):
    beta = beta_of(pure_jacobian(exps), len(exps))
    verify_outcome(code, out, "question1", lct_of(key(support)), beta)


def check_restriction(exps, code, out):
    """Restricting x^a + y^b + x^c y^d to y = 0 leaves x^a, whose beta is
    lct((x) * (x^(a-1)))."""
    beta_f = beta_of(pure_jacobian(exps), 2)
    beta_g = beta_of(pure_jacobian(exps[:1]), 1)
    verify_outcome(code, out, "restriction", beta_f, beta_g, reverse=True)


def check_madic(exps, code, out):
    """f = x^a + y^b + x^c y^d against g = x^a + y^(b+1): ord(f - g) = b."""
    a, b = exps
    gap = abs(beta_of(pure_jacobian((a, b)), 2) - beta_of(pure_jacobian((a, b + 1)), 2))
    verify_outcome(code, out, "madic", gap, Fraction(2, b))


def check_thm_alpha_lct(exps, support, code, out):
    """f lies in m * a for a = (x^(a-1), y^(b-1))."""
    verify_outcome(
        code, out, "thm-alpha-lct", lct_of(key(support)), lct_of(key(pure_jacobian(exps)))
    )


def check_lct(gens, n, code, out):
    verify_report(code, out, "lct", n, lct_of(key(gens)))


def check_lct_certificate(gens, n, code, out):
    """Value as for lct; the certificate is a weight u >= 0 with
    ord = min <u, g> and sum(u) / ord = lct."""
    d = verify_report(code, out, "lct", n, lct_of(key(gens)))
    u = [rat(x) for x in d["certificate"]["u"]]
    order = rat(d["certificate"]["ord"])
    if min(u) < 0 or len(u) != n:
        raise Mismatch(f"certificate weight {u} is not a nonnegative {n}-vector")
    expect("certificate ord", order, min(sum(x * y for x, y in zip(u, g)) for g in gens))
    expect("sum(u) / ord", sum(u) / order, lct_of(key(gens)))


def canonical(u, c):
    s = next(x for x in u if x)
    return tuple(Fraction(x, s) for x in u), Fraction(c, s)


def check_newton(gens, n, code, out):
    d = load(code, out, 0)
    pts = key(gens)
    fs = ref.facets(pts, n)
    expect("points", sorted(tuple(int(x) for x in p) for p in d["points"]), list(pts))
    expect(
        "facets",
        sorted((tuple(rat(x) for x in f["u"]), rat(f["c"])) for f in d["facets"]),
        sorted(canonical(u, c) for u, c in fs),
    )
    expect(
        "vertices",
        sorted(tuple(int(x) for x in v) for v in d["vertices"]),
        sorted(ref.vertices(pts, n, fs)),
    )


def check_registry(code, out):
    """Recorded values for the generic determinant: alpha = 2 (its
    b-function is (s+1)...(s+n)); the cross-check compares the recorded
    alpha and beta."""
    d = load(code, out, 0)
    values = {e["invariant"]: rat(e["value"]) for e in d["entries"]}
    expect("registry alpha", values["alpha"], Fraction(2))
    q = d["question1"]
    expect("registry question1 lhs", rat(q["lhs"]), values["alpha"])
    expect("registry question1 rhs", rat(q["rhs"]), values["beta"])
    expect("registry question1 holds", q["holds"], values["alpha"] <= values["beta"])


# -- generators ----------------------------------------------------------------


def request(kind, argv, check, *args):
    return Request(list(argv) + ["--json"], kind, partial(check, *args))


def walk(rng, n, top):
    """Exponent vectors in 2..top, in a seeded order without repeats; the
    order starts over only after all (top - 1)^n have been used."""
    space = list(product(range(2, top + 1), repeat=n))
    while True:
        rng.shuffle(space)
        yield from space


# Exponent ranges: 3969, 4096 and 4096 polynomials at n = 2, 3, 4, about six
# times what one run uses, so no polynomial is sent twice in a run.
DIAGONAL_TOP = {2: 64, 3: 17, 4: 9}


def diagonal_sweep(rng):
    """Per round: ten distinct Brieskorn-Pham polynomials, two at n = 2 and
    four each at n = 3 and n = 4; half are asked question1 and half
    milnor-bound (10 requests)."""
    walks = {n: walk(rng, n, top) for n, top in DIAGONAL_TOP.items()}
    while True:
        batch = []
        for n in (2, 3, 3, 4, 4):
            for check, name, fn in (
                ("question1", "q1", check_question1_diagonal),
                ("milnor-bound", "mb", check_milnor_bound_diagonal),
            ):
                exps = next(walks[n])
                text = poly_text(pure(n, i, a) for i, a in enumerate(exps))
                argv = ["check", check, "--vars", NAMES[n], "--poly", text]
                batch.append(request(f"{name}-n{n}", argv, fn, exps))
        yield batch


def zero_dim_ideal(rng, n, top, mixed, low=1):
    """Pure powers x_i^{low..top} plus `mixed` random monomials, not the unit."""
    gens = [pure(n, i, rng.randint(low, top)) for i in range(n)]
    while len(gens) < n + mixed:
        v = tuple(rng.randint(0, top) for _ in range(n))
        if any(v):
            gens.append(v)
    return gens


def mult_pairs(rng):
    """Per round (25 requests): at n = 3, six each of minkowski, dfem and
    mult; at n = 2, two of each; and one n = 4 mult of
    (x^d, y^d, z^d, w^d), d = 1..40 in seeded order, whose value d^4 is
    known.  No ideal is sent twice in a run, so a cache across requests
    gets no hits here."""
    seen = set()

    def fresh(n):
        # Pure powers of degree >= 2 keep the mixed monomials from being
        # absorbed, so a run draws from many thousands of distinct ideals.
        for _ in range(10_000):
            gens = zero_dim_ideal(rng, n, 5 if n == 3 else 9, 2, low=2)
            if key(gens) not in seen:
                seen.add(key(gens))
                return gens
        raise RuntimeError(f"no unused n = {n} ideal left")

    powers = list(range(1, 41))
    rng.shuffle(powers)
    rounds = 0
    while True:
        batch = []
        for n, copies in ((3, 6), (2, 2)):
            for _ in range(copies):
                a, b, c, e = fresh(n), fresh(n), fresh(n), fresh(n)
                v = NAMES[n]
                batch.append(request(
                    f"minkowski-n{n}",
                    ["check", "minkowski", "--vars", v, "--ideal", ideal_text(a),
                     "--ideal2", ideal_text(b)],
                    check_minkowski, key(a), key(b), n))
                batch.append(request(
                    f"dfem-n{n}",
                    ["check", "dfem", "--vars", v, "--ideal", ideal_text(c)],
                    check_dfem, key(c), n))
                batch.append(request(
                    f"mult-n{n}", ["mult", "--vars", v, "--ideal", ideal_text(e)],
                    check_mult, key(e), n))
        d = powers[rounds % len(powers)]
        exps = (d,) * 4
        batch.append(request(
            "mult-n4", ["mult", "--vars", NAMES[4], "--ideal",
                        ideal_text(pure(4, i, d) for i in range(4))],
            check_mult_pure_powers, exps))
        rounds += 1
        yield batch


def plane_session(rng):
    """f = x^a + y^b + x^c y^d with c >= a, d >= b, asked six commands."""
    a, b = rng.randint(2, 9), rng.randint(2, 9)
    exps = (a, b)
    support = [(a, 0), (0, b), (a + rng.randint(0, 3), b + rng.randint(0, 3))]
    f = ["--vars", "x,y", "--poly", poly_text(support)]
    return [
        request("alpha-n2", ["alpha", *f], check_alpha, exps, support),
        request("beta-n2", ["beta", *f], check_beta, exps),
        request("milnor-n2", ["milnor", *f], check_milnor, exps),
        request("restriction-n2", ["check", "restriction", *f, "--axis", "y"],
                check_restriction, exps),
        request("madic-n2", ["check", "madic", *f, "--poly2",
                             poly_text([(a, 0), (0, b + 1)])], check_madic, exps),
        request("thm-alpha-lct-n2", ["check", "thm-alpha-lct", *f, "--ideal",
                                     ideal_text(pure_jacobian(exps))],
                check_thm_alpha_lct, exps, support),
    ]


def space_session(rng):
    """f = x^a + y^b + z^c + x^p y^q with p >= a, q >= b, asked four commands."""
    exps = tuple(rng.randint(2, 7) for _ in range(3))
    a, b, c = exps
    support = [(a, 0, 0), (0, b, 0), (0, 0, c),
               (a + rng.randint(0, 2), b + rng.randint(0, 2), 0)]
    f = ["--vars", "x,y,z", "--poly", poly_text(support)]
    return [
        request("alpha-n3", ["alpha", *f], check_alpha, exps, support),
        request("beta-n3", ["beta", *f], check_beta, exps),
        request("milnor-n3", ["milnor", *f], check_milnor, exps),
        request("question1-n3", ["check", "question1", *f],
                check_question1_family, exps, support),
    ]


def ideal_session(rng, n, newton):
    if n == 2:
        gens = []
        while not gens:
            gens = [v for v in (tuple(rng.randint(0, 5) for _ in range(2))
                                for _ in range(rng.randint(1, 3))) if any(v)]
    else:  # two mixed monomials at n = 4 make facet enumeration the long class
        gens = zero_dim_ideal(rng, n, 4, 2 if n == 4 else rng.randint(1, 2))
    g = ["--vars", NAMES[n], "--ideal", ideal_text(gens)]
    batch = [
        request(f"lct-n{n}", ["lct", *g], check_lct, gens, n),
        request(f"certificate-n{n}", ["lct", *g, "--certificate"],
                check_lct_certificate, gens, n),
    ]
    if newton:
        batch.append(request(f"newton-n{n}", ["newton", *g], check_newton, gens, n))
    return batch


def request_mix(rng):
    """Per round (31 requests): two plane-curve sessions, one surface
    session, ideal sessions at n = 2, 3 and three at n = 4, and registry.
    The six n = 4 facet enumerations (newton and lct --certificate) are 19%
    of the requests, so the p90 rank falls in the middle of that class."""
    while True:
        yield (
            plane_session(rng)
            + ideal_session(rng, 4, True)
            + plane_session(rng)
            + ideal_session(rng, 3, True)
            + ideal_session(rng, 4, True)
            + space_session(rng)
            + ideal_session(rng, 2, False)
            + ideal_session(rng, 4, True)
            + [request("registry", ["registry"], check_registry)]
        )


WORKLOADS = {
    "diagonal-sweep": diagonal_sweep,
    "mult-pairs": mult_pairs,
    "request-mix": request_mix,
}

# One fixed request per workload, answered before timing starts.
WARMUP = {
    "diagonal-sweep": ["check", "question1", "--vars", "x,y", "--poly", "x^2 + y^3", "--json"],
    "mult-pairs": ["check", "dfem", "--vars", "x,y", "--ideal", "x^2, y^3", "--json"],
    "request-mix": ["lct", "--vars", "x,y", "--ideal", "x^2, y^3", "--json"],
}


def rounds(workload, seed):
    """The workload's rounds for a seed; the same seed gives the same rounds."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
