"""Newton polyhedron of a monomial ideal.

The polyhedron is conv(generator points) + the nonnegative orthant.  Membership
and the diagonal threshold go through exact LP and work at any size; facet and
vertex enumeration are exhaustive searches guarded by configurable caps.  The
covolume (and hence the multiplicity) is a sum of pyramids from the origin
over the compact facets, as in Kouchnirenko, Polyedres de Newton et nombres de
Milnor, Invent. Math. 1976.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import CapsExceededError, InputError, InternalInvariantError
from .ideals import MonomialIdeal, is_zero_dimensional
from .linalg import det, dot, nullspace, rank
from . import simplex


@dataclass(frozen=True)
class PolyhedronCaps:
    """Size limits for the exhaustive facet/vertex searches."""

    max_dim: int = 4
    max_points: int = 24


DEFAULT_CAPS = PolyhedronCaps()


@dataclass(frozen=True)
class FacetNormal:
    """Inequality <u, x> >= c with u >= 0, canonically scaled so the first
    nonzero entry of u is 1."""

    u: tuple
    c: Fraction


class NewtonPolyhedron:
    """V-representation plus lazily computed facets and vertices."""

    __slots__ = ("n", "points", "_facets", "_vertices")

    def __init__(self, n, points):
        self.n = n
        self.points = tuple(sorted(tuple(p) for p in points))
        self._facets = None
        self._vertices = None

    def __repr__(self):
        return f"NewtonPolyhedron({self.n}, {list(self.points)})"


def build(a: MonomialIdeal) -> NewtonPolyhedron:
    if a.is_zero:
        raise InputError("Newton polyhedron of the zero ideal")
    return NewtonPolyhedron(a.n, a.gens)


def contains(P: NewtonPolyhedron, q) -> bool:
    """Exact LP feasibility: q = sum lambda_j v_j + s with lambda a convex
    combination and s >= 0.  Points with a negative coordinate are outside."""
    q = [Fraction(x) for x in q]
    if len(q) != P.n:
        raise InputError(f"dimension mismatch: point has {len(q)}, expected {P.n}")
    if any(x < 0 for x in q):
        return False
    m = len(P.points)
    n = P.n
    # Variables: lambda_1..lambda_m, s_1..s_n.
    rows = []
    rhs = []
    for i in range(n):
        row = [Fraction(P.points[j][i]) for j in range(m)]
        row += [Fraction(1) if t == i else Fraction(0) for t in range(n)]
        rows.append(row)
        rhs.append(q[i])
    rows.append([Fraction(1)] * m + [Fraction(0)] * n)
    rhs.append(Fraction(1))
    lp = simplex.LinearProgram([Fraction(0)] * (m + n), rows, rhs)
    return simplex.solve(lp).status == simplex.OPTIMAL


def diagonal_threshold(P: NewtonPolyhedron) -> Fraction:
    """Least t with (t, ..., t) in the polyhedron, by exact LP."""
    m = len(P.points)
    n = P.n
    # Variables: lambda_1..lambda_m, s_1..s_n, t.
    rows, rhs = [], []
    for i in range(n):
        row = [Fraction(P.points[j][i]) for j in range(m)]
        row += [Fraction(1) if tt == i else Fraction(0) for tt in range(n)]
        row += [Fraction(-1)]
        rows.append(row)
        rhs.append(Fraction(0))
    rows.append([Fraction(1)] * m + [Fraction(0)] * (n + 1))
    rhs.append(Fraction(1))
    obj = [Fraction(0)] * (m + n) + [Fraction(1)]
    result = simplex.solve(simplex.LinearProgram(obj, rows, rhs))
    if result.status != simplex.OPTIMAL:
        raise InternalInvariantError("diagonal threshold LP must be feasible")
    return result.value


def _check_caps(P: NewtonPolyhedron, caps: PolyhedronCaps):
    if P.n > caps.max_dim:
        raise CapsExceededError(
            f"dimension {P.n} exceeds cap {caps.max_dim}"
        )
    if len(P.points) > caps.max_points:
        raise CapsExceededError(
            f"{len(P.points)} generators exceed cap {caps.max_points}"
        )


def _canonical(u, c):
    scale = next(x for x in u if x != 0)
    return tuple(x / scale for x in u), c / scale


def facets(P: NewtonPolyhedron, caps: PolyhedronCaps = DEFAULT_CAPS):
    """All facet inequalities <u, x> >= c, u >= 0, by exhaustive search over
    subsets of generator points and coordinate recession rays."""
    if P._facets is not None:
        return P._facets
    _check_caps(P, caps)
    pts = P.points
    n = P.n
    unit = [
        tuple(Fraction(1) if j == i else Fraction(0) for j in range(n))
        for i in range(n)
    ]
    found = {}
    for s_size in range(1, n + 1):
        for S in combinations(range(len(pts)), s_size):
            for R in combinations(range(n), n - s_size):
                rows = [list(pts[j]) + [Fraction(-1)] for j in S]
                rows += [list(unit[i]) + [Fraction(0)] for i in R]
                ns = nullspace(rows)
                if len(ns) != 1:
                    continue
                vec = ns[0]
                u, c = vec[:n], vec[n]
                if all(x == 0 for x in u):
                    continue
                if any(x < 0 for x in u):
                    if any(x > 0 for x in u):
                        continue
                    u = [-x for x in u]
                    c = -c
                vals = [dot(u, p) for p in pts]
                if min(vals) != c:
                    continue
                tight = [pts[i] for i, val in enumerate(vals) if val == c]
                dirs = [
                    [a - b for a, b in zip(p, tight[0])] for p in tight[1:]
                ]
                dirs += [list(unit[i]) for i in range(n) if u[i] == 0]
                if n > 1 and rank(dirs) != n - 1:
                    continue
                cu, cc = _canonical(u, c)
                found[(cu, cc)] = FacetNormal(cu, cc)
    result = sorted(found.values(), key=lambda f: (f.u, f.c))
    P._facets = result
    return result


def vertices(P: NewtonPolyhedron, caps: PolyhedronCaps = DEFAULT_CAPS):
    """Generator points tight on n linearly independent facets."""
    if P._vertices is not None:
        return P._vertices
    fs = facets(P, caps)
    out = []
    for p in P.points:
        tight = [list(f.u) for f in fs if dot(f.u, p) == f.c]
        if rank(tight) == P.n:
            out.append(tuple(Fraction(x) for x in p))
    P._vertices = out
    return out


def integral_closure_member(a: MonomialIdeal, v) -> bool:
    """Monomial integral-closure membership: exponent lies in the polyhedron."""
    if a.is_zero:
        raise InputError("zero ideal")
    if len(tuple(v)) != a.n:
        raise InputError("dimension mismatch")
    return contains(build(a), v)


def covolume(P: NewtonPolyhedron, caps: PolyhedronCaps = DEFAULT_CAPS) -> Fraction:
    """Exact volume of the bounded region of the nonnegative orthant outside
    the polyhedron.  Requires the underlying ideal to be zero-dimensional, so
    that the region is the union of the pyramids from the origin over the
    compact facets <u, x> = c (all u_i > 0).  Each pyramid has volume
    c * vol_{n-1}(proj_0 F) / (n * u_0), where proj_0 F drops the first
    coordinate of the facet's tight generators (Kouchnirenko, Polyedres de
    Newton et nombres de Milnor, Invent. Math. 1976)."""
    ideal = MonomialIdeal(P.n, P.points)
    if not is_zero_dimensional(ideal):
        raise InputError("covolume requires a zero-dimensional ideal")
    _check_caps(P, caps)
    n = P.n
    total = Fraction(0)
    for f in facets(P, caps):
        if all(x > 0 for x in f.u):
            base = [p[1:] for p in P.points if dot(f.u, p) == f.c]
            total += f.c * _hull_volume(base, n - 1) / (n * f.u[0])
    return total


def multiplicity(a: MonomialIdeal, caps: PolyhedronCaps = DEFAULT_CAPS) -> int:
    """Hilbert-Samuel multiplicity of a zero-dimensional monomial ideal:
    n! times the covolume of its Newton polyhedron."""
    if a.is_zero:
        raise InputError("zero ideal")
    value = math.factorial(a.n) * covolume(build(a), caps)
    if value.denominator != 1:
        raise InternalInvariantError(
            f"multiplicity is not an integer: {value}"
        )
    return int(value)


# -- exact polytope volume ----------------------------------------------------


def _polytope_facets(pts, d):
    """Facets of conv(pts) in R^d as (normal, offset, tight index tuple) with
    <u, x> >= c on all points.  Brute force over d-subsets."""
    found = {}
    for C in combinations(range(len(pts)), d):
        base = pts[C[0]]
        diffs = [[a - b for a, b in zip(pts[j], base)] for j in C[1:]]
        ns = nullspace(diffs) if diffs else nullspace([[Fraction(0)] * d])
        if len(ns) != 1:
            continue
        u = ns[0]
        c = dot(u, base)
        vals = [dot(u, p) for p in pts]
        if all(v >= c for v in vals):
            pass
        elif all(v <= c for v in vals):
            u = [-x for x in u]
            c = -c
            vals = [-v for v in vals]
        else:
            continue
        tight = tuple(i for i, v in enumerate(vals) if v == c)
        base_t = pts[tight[0]]
        span = [[a - b for a, b in zip(pts[i], base_t)] for i in tight[1:]]
        if d > 1 and rank(span) != d - 1:
            continue
        found[tight] = (tuple(u), c, tight)
    return list(found.values())


def _triangulate(pts, d):
    """Triangulation of conv(pts) fanned from the lex-min vertex; returns
    index tuples of length d + 1.  Empty when the hull is lower-dimensional."""
    if d == 0:
        return [(0,)] if pts else []
    if d == 1:
        lo = min(range(len(pts)), key=lambda i: pts[i])
        hi = max(range(len(pts)), key=lambda i: pts[i])
        return [] if pts[lo] == pts[hi] else [(lo, hi)]
    fs = _polytope_facets(pts, d)
    if not fs:
        return []
    apex = min(range(len(pts)), key=lambda i: pts[i])
    simplices = []
    for u, _, tight in fs:
        if apex in tight:
            continue
        k = next(i for i, x in enumerate(u) if x != 0)
        sub = [pts[i][:k] + pts[i][k + 1 :] for i in tight]
        for simp in _triangulate(sub, d - 1):
            simplices.append((apex,) + tuple(tight[j] for j in simp))
    return simplices


def _hull_volume(pts, d) -> Fraction:
    """Exact d-volume of conv(pts)."""
    pts = [tuple(Fraction(x) for x in p) for p in pts]
    if len(pts) <= d:
        return Fraction(0)
    total = Fraction(0)
    fact = math.factorial(d)
    for simp in _triangulate(pts, d):
        base = pts[simp[0]]
        mat = [[a - b for a, b in zip(pts[i], base)] for i in simp[1:]]
        total += abs(det(mat))
    return total / fact
