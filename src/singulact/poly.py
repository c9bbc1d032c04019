"""Sparse multivariate polynomials over the rationals.

A polynomial carries an explicit ambient dimension n; exponent vectors are
tuples of n natural numbers.  The ambient dimension is never inferred, since
the invariants computed downstream depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import simplex
from .errors import InputError
from .rational import INF

ExpVec = tuple  # tuple[int, ...] of length n


def _check_expvec(v, n) -> ExpVec:
    v = tuple(v)
    if len(v) != n:
        raise InputError(f"exponent vector {v} has length {len(v)}, expected {n}")
    for e in v:
        if not isinstance(e, int) or e < 0:
            raise InputError(f"exponent vector {v} has a non-natural entry")
    return v


class Poly:
    """Finite map from exponent vectors to nonzero rational coefficients.

    The zero polynomial is the empty map.  Instances are treated as immutable.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        if n < 1:
            raise InputError("ambient dimension must be >= 1")
        self.n = n
        clean = {}
        for v, c in (terms or {}).items():
            v = _check_expvec(v, n)
            c = Fraction(c)
            acc = clean.get(v, Fraction(0)) + c
            if acc == 0:
                clean.pop(v, None)
            else:
                clean[v] = acc
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n):
        return cls(n, {})

    @classmethod
    def monomial(cls, n, v, coef=1):
        return cls(n, {tuple(v): Fraction(coef)})

    # -- predicates and accessors ------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def constant_term(self) -> Fraction:
        """The value f(0)."""
        return self.terms.get((0,) * self.n, Fraction(0))

    def support(self):
        """Exponent vectors with nonzero coefficient, sorted."""
        return sorted(self.terms)

    # -- arithmetic ---------------------------------------------------------

    def _require_same_n(self, other):
        if self.n != other.n:
            raise InputError(
                f"dimension mismatch: {self.n} vs {other.n}"
            )

    def __add__(self, other):
        self._require_same_n(other)
        acc = dict(self.terms)
        for v, c in other.terms.items():
            s = acc.get(v, Fraction(0)) + c
            if s == 0:
                acc.pop(v, None)
            else:
                acc[v] = s
        out = Poly.zero(self.n)
        out.terms = acc
        return out

    def __neg__(self):
        out = Poly.zero(self.n)
        out.terms = {v: -c for v, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._require_same_n(other)
        acc = {}
        for u, a in self.terms.items():
            for v, b in other.terms.items():
                w = tuple(x + y for x, y in zip(u, v))
                s = acc.get(w, Fraction(0)) + a * b
                if s == 0:
                    acc.pop(w, None)
                else:
                    acc[w] = s
        out = Poly.zero(self.n)
        out.terms = acc
        return out

    __rmul__ = __mul__

    def scale(self, c):
        c = Fraction(c)
        out = Poly.zero(self.n)
        if c != 0:
            out.terms = {v: c * k for v, k in self.terms.items()}
        return out

    def shift(self, v):
        """Multiply by the monomial x^v."""
        v = _check_expvec(v, self.n)
        out = Poly.zero(self.n)
        out.terms = {
            tuple(a + b for a, b in zip(u, v)): c for u, c in self.terms.items()
        }
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Poly) and self.n == other.n and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self):
        from .parsing import poly_to_string

        return f"Poly({self.n}, {poly_to_string(self)!r})"


@dataclass(frozen=True)
class Weights:
    """Positive rational weights certifying quasi-homogeneity: every support
    vector v of the certified polynomial satisfies <w, v> = 1."""

    w: tuple

    def __post_init__(self):
        object.__setattr__(self, "w", tuple(Fraction(x) for x in self.w))
        if any(x <= 0 for x in self.w):
            raise InputError("weights must be positive")

    @property
    def n(self):
        return len(self.w)

    def total(self) -> Fraction:
        return sum(self.w, Fraction(0))


# -- operations --------------------------------------------------------------


def partial_derivative(f: Poly, i: int) -> Poly:
    """d f / d x_i, with i a 0-based variable index."""
    if not 0 <= i < f.n:
        raise InputError(f"variable index {i} out of range for dimension {f.n}")
    acc = {}
    for v, c in f.terms.items():
        if v[i] == 0:
            continue
        w = v[:i] + (v[i] - 1,) + v[i + 1 :]
        acc[w] = acc.get(w, Fraction(0)) + c * v[i]
    out = Poly.zero(f.n)
    out.terms = {v: c for v, c in acc.items() if c != 0}
    return out


def jacobian_generators(f: Poly) -> list:
    """Partial derivatives of f.  f itself is not needed: it lies in the
    integral closure of (maximal ideal) * (Jacobian ideal) (Teissier 1973),
    so adding it changes neither that closure nor any threshold of it."""
    if f.is_zero:
        raise InputError("jacobian of the zero polynomial")
    return [partial_derivative(f, i) for i in range(f.n)]


def order_at_origin(f: Poly):
    """Minimum total degree of a term of f; INF for the zero polynomial."""
    if f.is_zero:
        return INF
    return min(sum(v) for v in f.terms)


def quasi_homogeneous_weights(f: Poly):
    """Positive weights w with <w, v> = 1 on the support of f, or None.

    When the linear system is underdetermined, returns the solution maximizing
    min_i w_i over the solution polytope (a vertex, found by LP).
    """
    if f.is_zero:
        raise InputError("zero polynomial has no weights")
    if f.constant_term() != 0:
        raise InputError("polynomial must vanish at the origin")
    support = f.support()
    n = f.n
    # Variables: w_1..w_n, t, s_1..s_n (slack for w_i - t >= 0), all >= 0.
    # Maximize t subject to <v, w> = 1 for each support vector v and
    # w_i - t - s_i = 0.
    nvars = 2 * n + 1
    rows, rhs = [], []
    for v in support:
        row = [Fraction(e) for e in v] + [Fraction(0)] * (n + 1)
        rows.append(row)
        rhs.append(Fraction(1))
    for i in range(n):
        row = [Fraction(0)] * nvars
        row[i] = Fraction(1)
        row[n] = Fraction(-1)
        row[n + 1 + i] = Fraction(-1)
        rows.append(row)
        rhs.append(Fraction(0))
    obj = [Fraction(0)] * nvars
    obj[n] = Fraction(-1)
    result = simplex.solve(simplex.LinearProgram(obj, rows, rhs))
    if result.status != simplex.OPTIMAL:
        return None
    t = result.primal[n]
    if t <= 0:
        return None
    return Weights(tuple(result.primal[:n]))


def euler_check(f: Poly, w: Weights) -> bool:
    """True iff sum_i w_i x_i df/dx_i equals f exactly."""
    if w.n != f.n:
        raise InputError(f"dimension mismatch: weights {w.n} vs polynomial {f.n}")
    acc = Poly.zero(f.n)
    for i in range(f.n):
        e = tuple(1 if j == i else 0 for j in range(f.n))
        acc = acc + partial_derivative(f, i).shift(e).scale(w.w[i])
    return acc == f


def restrict_to_coordinate_hyperplane(f: Poly, i: int) -> Poly:
    """Substitute x_i = 0 and drop variable i; ambient dimension drops by 1."""
    if not 0 <= i < f.n:
        raise InputError(f"variable index {i} out of range for dimension {f.n}")
    if f.n == 1:
        raise InputError("cannot restrict a univariate polynomial")
    acc = {}
    for v, c in f.terms.items():
        if v[i] != 0:
            continue
        acc[v[:i] + v[i + 1 :]] = c
    if not acc:
        raise InputError("restriction to the hyperplane is identically zero")
    out = Poly.zero(f.n - 1)
    out.terms = acc
    return out
