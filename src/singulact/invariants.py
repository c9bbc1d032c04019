"""Singularity invariants and inequality checkers.

All values are exact rationals (or the distinguished infinity); the one
exception is the Minkowski multiplicity comparison, which involves n-th roots
and is decided by exact bracketing with an explicit indeterminate verdict.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from math import prod

from . import newton
from .errors import InputError, InternalInvariantError, UnsupportedClassError
from .ideals import (
    MonomialIdeal,
    ideal_product,
    is_zero_dimensional,
    maximal_ideal,
    poly_in_ideal,
)
from .newton import DEFAULT_CAPS, FacetNormal, PolyhedronCaps
from .parsing import ideal_to_string, poly_to_string
from .poly import (
    Poly,
    jacobian_generators,
    order_at_origin,
    quasi_homogeneous_weights,
    restrict_to_coordinate_hyperplane,
)
from .ideals import monomialize
from .rational import INF, format_rat


@dataclass
class InvariantReport:
    kind: str  # lct | beta | alpha | milnor | multiplicity
    value: object  # Fraction or INF
    method: str
    n: int
    input_echo: str
    certificate: FacetNormal | None = None
    certificate_ord: Fraction | None = None
    assumes: list = field(default_factory=list)


@dataclass
class CheckOutcome:
    """The verdict of one inequality `lhs relation rhs`, where `relation` is
    "<=" or ">=".  `_compare` sets `holds` to the truth of that relation and
    `equality` to lhs == rhs; only minkowski's bracket outcomes are built by
    hand, with bracket endpoints as lhs and rhs, `holds` possibly
    "indeterminate" and `equality` False, since meeting endpoints prove
    nothing."""

    name: str
    holds: object  # True | False | "indeterminate"
    lhs: object
    rhs: object
    witness: str
    relation: str
    equality: bool = False


_RELATIONS = {"<=": operator.le, ">=": operator.ge}


def _compare(name: str, lhs, relation: str, rhs, witness: str) -> CheckOutcome:
    """The outcome of `lhs relation rhs`, decided here and nowhere else."""
    return CheckOutcome(
        name, _RELATIONS[relation](lhs, rhs), lhs, rhs, witness, relation,
        equality=lhs == rhs,
    )


def ord_u(a: MonomialIdeal, u) -> Fraction:
    """Monomial valuation: min over generators v of <u, v>."""
    if a.is_zero:
        raise InputError("zero ideal")
    u = [Fraction(x) for x in u]
    if len(u) != a.n:
        raise InputError("dimension mismatch")
    if all(x == 0 for x in u):
        raise InputError("weight vector must be nonzero")
    return min(
        sum((x * e for x, e in zip(u, v)), Fraction(0)) for v in a.gens
    )


def lct_monomial(a: MonomialIdeal) -> InvariantReport:
    """Log canonical threshold of a monomial ideal contained in the maximal
    ideal, as the reciprocal of the diagonal threshold of its Newton
    polyhedron."""
    if a.is_zero:
        raise InputError("zero ideal has no log canonical threshold")
    if a.is_unit:
        raise InputError("unit ideal rejected (a generator is the origin)")
    t_star = newton.diagonal_threshold(newton.build(a))
    if t_star <= 0:
        raise InternalInvariantError("diagonal threshold must be positive")
    value = 1 / t_star
    if value > a.n:
        raise InternalInvariantError(
            f"threshold {format_rat(value)} exceeds the dimension bound {a.n}"
        )
    return InvariantReport("lct", value, "monomial-lp", a.n, ideal_to_string(a))


def lct_monomial_dual(
    a: MonomialIdeal, caps: PolyhedronCaps = DEFAULT_CAPS
) -> InvariantReport:
    """Same threshold via the facet dual: minimum over facet normals u with
    positive offset of (sum u_i) / offset, with the minimizing facet as
    certificate.  Exact agreement with the LP route is asserted."""
    if a.is_zero:
        raise InputError("zero ideal has no log canonical threshold")
    if a.is_unit:
        raise InputError("unit ideal rejected (a generator is the origin)")
    P = newton.build(a)
    best = None
    best_facet = None
    for f in newton.facets(P, caps):
        if f.c <= 0:
            continue
        ratio = sum(f.u, Fraction(0)) / f.c
        if best is None or ratio < best:
            best = ratio
            best_facet = f
    if best is None:
        raise InternalInvariantError("no facet with positive offset")
    primal = lct_monomial(a)
    if best != primal.value:
        raise InternalInvariantError(
            f"facet-dual threshold {format_rat(best)} disagrees with LP value "
            f"{format_rat(primal.value)}"
        )
    return InvariantReport(
        "lct",
        best,
        "facet-dual",
        a.n,
        ideal_to_string(a),
        certificate=best_facet,
        certificate_ord=ord_u(a, best_facet.u),
    )


def _monomial_jacobian(f: Poly) -> MonomialIdeal:
    return monomialize([g for g in jacobian_generators(f) if not g.is_zero])


def _require_germ(f: Poly):
    if f.is_zero:
        raise InputError("zero polynomial")
    if f.constant_term() != 0:
        raise InputError("polynomial must vanish at the origin")


def beta(f: Poly) -> InvariantReport:
    """Log canonical threshold of (maximal ideal) * (Jacobian ideal) at the
    origin, on inputs whose Jacobian ideal reduces to a monomial ideal."""
    _require_germ(f)
    jac = _monomial_jacobian(f)
    product = ideal_product(maximal_ideal(f.n), jac)
    report = lct_monomial(product)
    return InvariantReport(
        "beta", report.value, "monomial-lp", f.n, poly_to_string(f)
    )


def alpha(f: Poly) -> InvariantReport:
    """Minimal exponent at the origin, on two supported input classes:
    weighted-homogeneous with monomial zero-dimensional Jacobian, and
    Newton-nondegenerate with zero-dimensional monomial support (the latter
    flagged, since nondegeneracy is assumed rather than verified)."""
    _require_germ(f)
    echo = poly_to_string(f)
    if order_at_origin(f) <= 1:
        return InvariantReport("alpha", INF, "smooth-point", f.n, echo)

    wh_value = None
    weights = quasi_homogeneous_weights(f)
    if weights is not None:
        try:
            jac = _monomial_jacobian(f)
        except UnsupportedClassError:
            jac = None
        if jac is not None and is_zero_dimensional(jac):
            wh_value = weights.total()

    nd_value = None
    support_ideal = MonomialIdeal(f.n, f.terms.keys())
    if is_zero_dimensional(support_ideal):
        t_star = newton.diagonal_threshold(newton.build(support_ideal))
        nd_value = 1 / t_star

    if wh_value is not None and nd_value is not None and wh_value != nd_value:
        raise InternalInvariantError(
            f"minimal-exponent routes disagree: {format_rat(wh_value)} vs "
            f"{format_rat(nd_value)} on {echo}"
        )
    if wh_value is not None:
        return InvariantReport(
            "alpha", wh_value, "weighted-homogeneous", f.n, echo
        )
    if nd_value is not None:
        return InvariantReport(
            "alpha",
            nd_value,
            "nondegenerate-newton",
            f.n,
            echo,
            assumes=["nondegeneracy"],
        )
    raise UnsupportedClassError(
        f"minimal exponent not computable for this input class: {echo}"
    )


def milnor(f: Poly) -> InvariantReport:
    """Milnor number at the origin, for isolated singularities whose Jacobian
    ideal is (after unit reduction) monomial and zero-dimensional.  Such an
    ideal has at most n minimal generators, one pure power on each axis, so it
    is (x_1^b_1, ..., x_n^b_n) and the Milnor number is the product of the b_i,
    each the largest exponent of its generator.  At a smooth germ the ideal is
    the unit ideal, whose one generator (0, ..., 0) gives 0."""
    _require_germ(f)
    echo = poly_to_string(f)
    jac = _monomial_jacobian(f)
    if not is_zero_dimensional(jac):
        raise UnsupportedClassError(
            "Jacobian ideal is not zero-dimensional; singularity not certified "
            f"isolated: {echo}"
        )
    value = prod(max(g) for g in jac.gens)
    return InvariantReport(
        "milnor", Fraction(value), "staircase-pure-powers", f.n, echo
    )


# -- inequality checkers ------------------------------------------------------


def check_question1(f: Poly) -> CheckOutcome:
    """Is the minimal exponent bounded by the threshold of (maximal ideal
    times Jacobian ideal)?  Requires a singular point (order >= 2)."""
    _require_germ(f)
    if order_at_origin(f) < 2:
        raise InputError("check requires a singular point (order >= 2)")
    return _compare(
        "question1", alpha(f).value, "<=", beta(f).value, poly_to_string(f)
    )


def check_thm_alpha_le_lct(f: Poly, a: MonomialIdeal) -> CheckOutcome:
    """Minimal exponent of f against the threshold of an ideal a with
    f in (maximal ideal) * a."""
    _require_germ(f)
    if a.n != f.n:
        raise InputError("dimension mismatch")
    if a.is_zero or a.is_unit:
        raise InputError("ideal must be nonzero and contained in the maximal ideal")
    ma = ideal_product(maximal_ideal(a.n), a)
    if not poly_in_ideal(ma, f):
        raise InputError(
            "hypothesis violated: polynomial is not in (maximal ideal) * ideal"
        )
    return _compare(
        "thm-alpha-lct",
        alpha(f).value,
        "<=",
        lct_monomial(a).value,
        f"f={poly_to_string(f)}; a={ideal_to_string(a)}",
    )


def check_restriction(f: Poly, i: int) -> CheckOutcome:
    """The invariant does not increase under restriction to a coordinate
    hyperplane."""
    bf = beta(f).value
    bg = beta(restrict_to_coordinate_hyperplane(f, i)).value
    return _compare(
        "restriction", bf, ">=", bg, f"f={poly_to_string(f)}; axis={i}"
    )


def check_madic(f: Poly, g: Poly) -> CheckOutcome:
    """|beta(f) - beta(g)| <= n/d where d is the order of f - g."""
    if f.n != g.n:
        raise InputError("dimension mismatch")
    diff = f - g
    if diff.is_zero:
        raise InputError("check requires f != g")
    d = order_at_origin(diff)
    bound = Fraction(f.n, d)
    gap = abs(beta(f).value - beta(g).value)
    return _compare(
        "madic",
        gap,
        "<=",
        bound,
        f"f={poly_to_string(f)}; g={poly_to_string(g)}; d={d}",
    )


def check_milnor_bound(f: Poly) -> CheckOutcome:
    """beta >= n / (1 + mu^(1/n)), tested in the exact equivalent form
    (n/beta - 1)^n <= mu."""
    return _milnor_bound(f, beta(f).value)


def _milnor_bound(f: Poly, b) -> CheckOutcome:
    """The milnor-bound check for f whose beta is already known to be b.
    Since b <= n, the base n/b - 1 is never negative; it is 0 exactly at a
    smooth germ, where mu = 0 too."""
    mu = milnor(f).value
    lhs = (Fraction(f.n) / b - 1) ** f.n
    return _compare("milnor-bound", lhs, "<=", mu, poly_to_string(f))


def check_dfem(a: MonomialIdeal, caps: PolyhedronCaps = DEFAULT_CAPS) -> CheckOutcome:
    """Multiplicity against threshold: e(a) >= (n / lct(a))^n, exact."""
    if not is_zero_dimensional(a):
        raise InputError("check requires a zero-dimensional ideal")
    e = newton.multiplicity(a, caps)
    l = lct_monomial(a).value
    bound = (Fraction(a.n, 1) / l) ** a.n
    return _compare("dfem", Fraction(e), ">=", bound, ideal_to_string(a))


def _iroot(x: int, n: int) -> int:
    """Floor of the n-th root of a nonnegative integer."""
    if x < 0 or n < 1:
        raise InputError("iroot requires x >= 0 and n >= 1")
    if x in (0, 1) or n == 1:
        return x
    hi = 1 << ((x.bit_length() + n - 1) // n + 1)
    lo = 0
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if mid**n <= x:
            lo = mid
        else:
            hi = mid
    return lo


def _nth_root_bracket(x: int, n: int, bits: int = 81):
    """Rational bracket [lo, hi] around x^(1/n); exact (lo == hi) when x is a
    perfect n-th power, otherwise of width 2^-bits."""
    r = _iroot(x, n)
    if r**n == x:
        return Fraction(r), Fraction(r)
    k = 1 << bits
    m = _iroot(x * k**n, n)
    return Fraction(m, k), Fraction(m + 1, k)


def check_minkowski(
    a: MonomialIdeal, b: MonomialIdeal, caps: PolyhedronCaps = DEFAULT_CAPS
) -> CheckOutcome:
    """Multiplicity of the product against the sum of n-th roots:
    e(ab)^(1/n) <= e(a)^(1/n) + e(b)^(1/n), decided by exact bracketing."""
    if a.n != b.n:
        raise InputError("dimension mismatch")
    if not (is_zero_dimensional(a) and is_zero_dimensional(b)):
        raise InputError("check requires zero-dimensional ideals")
    if a.is_unit or b.is_unit:
        raise InputError("unit ideal rejected (a generator is the origin)")
    n = a.n
    e_ab = newton.multiplicity(ideal_product(a, b), caps)
    e_a = newton.multiplicity(a, caps)
    e_b = newton.multiplicity(b, caps)
    witness = f"a={ideal_to_string(a)}; b={ideal_to_string(b)}; e={e_ab},{e_a},{e_b}"
    ratio = Fraction(e_b, e_a)
    p, q = _iroot(ratio.numerator, n), _iroot(ratio.denominator, n)
    if p**n == ratio.numerator and q**n == ratio.denominator:
        # e(b)^(1/n) = (p/q) e(a)^(1/n), so both sides become rational
        # multiples of e(a)^(1/n) and the comparison is exact after raising
        # to the n-th power.
        return _compare(
            "minkowski",
            Fraction(e_ab),
            "<=",
            Fraction((p + q) ** n * e_a, q**n),
            f"{witness}; compared as n-th powers",
        )
    lo_ab, hi_ab = _nth_root_bracket(e_ab, n)
    lo_a, hi_a = _nth_root_bracket(e_a, n)
    lo_b, hi_b = _nth_root_bracket(e_b, n)
    if hi_ab <= lo_a + lo_b:
        return CheckOutcome("minkowski", True, hi_ab, lo_a + lo_b, witness, "<=")
    if lo_ab > hi_a + hi_b:
        return CheckOutcome("minkowski", False, lo_ab, hi_a + hi_b, witness, "<=")
    return CheckOutcome(
        "minkowski", "indeterminate", lo_ab, hi_a + hi_b, witness, "<="
    )


# -- registry of documented values the engine does not compute ----------------


@dataclass(frozen=True)
class KnownValue:
    description: str
    invariant: str
    value: Fraction


def known_values():
    """Documented values accepted on record rather than computed: the generic
    square-determinant hypersurface at the origin."""
    return [
        KnownValue("det generic matrix", "beta", Fraction(4)),
        KnownValue("det generic matrix", "alpha", Fraction(2)),
    ]


def registry_question1() -> CheckOutcome:
    """Cross-check of the registry entries: recorded alpha <= recorded beta."""
    entries = {kv.invariant: kv.value for kv in known_values()}
    return _compare(
        "question1",
        entries["alpha"],
        "<=",
        entries["beta"],
        "det generic matrix (registry)",
    )
