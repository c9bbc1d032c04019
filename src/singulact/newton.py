"""Newton polyhedron of a monomial ideal.

The polyhedron is conv(generator points) + the nonnegative orthant.  Membership
and the diagonal threshold go through exact LP and work at any size.  Facets
come from one exhaustive face enumerator, `_faces`, guarded by configurable
caps; it also returns the generators on each facet, and vertices and the
covolume read those incidences.  Every volume is a sum of pyramids over
facets: the covolume (and hence the multiplicity) sums them from the origin
over the compact facets, as in Kouchnirenko, Polyedres de Newton et nombres de
Milnor, Invent. Math. 1976, and the volume of each facet sums them from one of
its points over its own facets, found by the same enumerator without rays.

`build` shares polyhedra: it returns the same `NewtonPolyhedron` for the same
minimal generators from a table of the `RECENT_POLYHEDRA` most recently built
ones, so the diagonal threshold and the facets of a polyhedron are computed
once per process while it stays in the table.  Nothing persists across
processes and no option controls the table.  Caps are checked on every call,
and the stored facets and vertices are handed out as fresh lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .errors import CapsExceededError, InputError, InternalInvariantError
from .ideals import MonomialIdeal, is_zero_dimensional
from .linalg import nullspace, rank
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


RECENT_POLYHEDRA = 32  # polyhedra kept in the table that `build` shares


class NewtonPolyhedron:
    """V-representation plus the lazily computed diagonal threshold, facets
    and vertices, stored as tuples.  Instances from `build` are shared by
    every caller that asks for the same ideal while it is in the table."""

    __slots__ = ("n", "points", "_threshold", "_facets", "_tight", "_vertices")

    def __init__(self, n, points):
        self.n = n
        self.points = tuple(sorted(tuple(p) for p in points))
        self._threshold = None
        self._facets = None
        self._tight = None  # point indices on each facet, parallel to _facets
        self._vertices = None

    def __repr__(self):
        return f"NewtonPolyhedron({self.n}, {list(self.points)})"


def build(a: MonomialIdeal) -> NewtonPolyhedron:
    """The Newton polyhedron of a nonzero monomial ideal, shared with earlier
    callers when one of the `RECENT_POLYHEDRA` most recently built has the
    same minimal generators.  The table lives in this process only."""
    if a.is_zero:
        raise InputError("Newton polyhedron of the zero ideal")
    return _shared(a.n, a.gens)


@lru_cache(maxsize=RECENT_POLYHEDRA)
def _shared(n, gens):
    return NewtonPolyhedron(n, gens)


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
    """Least t with (t, ..., t) in the polyhedron, by exact LP, solved once
    per polyhedron."""
    if P._threshold is not None:
        return P._threshold
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
    P._threshold = result.value
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


def facets(P: NewtonPolyhedron, caps: PolyhedronCaps = DEFAULT_CAPS):
    """All facet inequalities <u, x> >= c, u >= 0, of conv(generators) plus
    the orthant, with u scaled so that its first nonzero entry is 1, as a
    new list on every call."""
    _check_caps(P, caps)
    if P._facets is None:
        n = P.n
        unit = [tuple(int(j == i) for j in range(n)) for i in range(n)]
        faces = _faces(P.points, unit, n)
        P._facets = tuple(FacetNormal(u, c) for u, c, _ in faces)
        P._tight = tuple(tight for _, _, tight in faces)
    return list(P._facets)


def vertices(P: NewtonPolyhedron, caps: PolyhedronCaps = DEFAULT_CAPS):
    """Generator points tight on n linearly independent facets, as a new list
    on every call."""
    fs = facets(P, caps)
    if P._vertices is None:
        P._vertices = tuple(
            tuple(Fraction(x) for x in p)
            for i, p in enumerate(P.points)
            if rank([f.u for f, tight in zip(fs, P._tight) if i in tight]) == P.n
        )
    return list(P._vertices)


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
    c * vol_{n-1}(proj_0 F) / n, where proj_0 F drops the first coordinate of
    the facet's tight generators and u_0 = 1 by the facets' scaling
    (Kouchnirenko, Polyedres de Newton et nombres de Milnor, Invent. Math.
    1976)."""
    ideal = MonomialIdeal(P.n, P.points)
    if not is_zero_dimensional(ideal):
        raise InputError("covolume requires a zero-dimensional ideal")
    fs = zip(facets(P, caps), P._tight)
    compact = [(f.u, f.c, tight) for f, tight in fs if all(x > 0 for x in f.u)]
    return _pyramids((0,) * P.n, compact, P.points, P.n)


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


def _value(u, x):
    return sum(a * b for a, b in zip(u, x))


def _faces(points, rays, d):
    """Facets of conv(points) + cone(rays) in R^d, sorted, as (u, c, tight):
    <u, x> >= c holds on the polyhedron, the first nonzero entry of u is +-1,
    and tight lists the indices of the points on the facet.  Brute force: each
    candidate hyperplane passes through s points and is parallel to d - s
    rays, and is kept when the polyhedron lies on one side of it."""
    found = {}
    for s in range(max(1, d - len(rays)), d + 1):
        for S in combinations(range(len(points)), s):
            base = points[S[0]]
            diffs = [[a - b for a, b in zip(points[j], base)] for j in S[1:]]
            for R in combinations(rays, d - s):
                ns = nullspace(diffs + list(R) or [[0] * d])
                if len(ns) != 1:
                    continue
                u = ns[0]
                c = _value(u, base)
                ray_vals = [_value(u, r) for r in rays]
                vals = [_value(u, p) for p in points]
                below = min(ray_vals, default=0) < 0 or min(vals) < c
                if below and (max(ray_vals, default=0) > 0 or max(vals) > c):
                    continue
                tight = tuple(i for i, v in enumerate(vals) if v == c)
                if below:
                    u, c = [-x for x in u], -c
                scale = abs(next(x for x in u if x != 0))
                found[tuple(x / scale for x in u), c / scale] = tight
    return [(u, c, tight) for (u, c), tight in sorted(found.items())]


def _pyramids(apex, faces, points, d) -> Fraction:
    """Total d-volume of the pyramids from apex over the facets (u, c, tight)
    of `_faces`: each is |<u, apex> - c| * vol_{d-1}(F) / d, with F the
    facet's tight points less coordinate k, the first nonzero index of u.
    No other factor appears because `_faces` scales u_k to +-1."""
    total = Fraction(0)
    for u, c, tight in faces:
        height = abs(_value(u, apex) - c)
        if height:
            k = next(i for i, x in enumerate(u) if x != 0)
            base = [points[i][:k] + points[i][k + 1 :] for i in tight]
            total += height * _hull_volume(base, d - 1)
    return total / d


def _hull_volume(pts, d) -> Fraction:
    """Exact d-volume of conv(pts): pyramids from the lex-min point over the
    facets, recursing on the facets down to d = 1.  Zero when the hull is
    lower-dimensional."""
    pts = [tuple(Fraction(x) for x in p) for p in pts]
    if len(pts) <= d:
        return Fraction(0)
    if d == 0:
        return Fraction(1)
    if d == 1:
        return max(pts)[0] - min(pts)[0]
    return _pyramids(min(pts), _faces(pts, (), d), pts, d)
