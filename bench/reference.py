"""Exact reference values for the benchmark, computed without singulact.

Nothing here imports the program.  Every routine works on plain integer
exponent vectors and `fractions.Fraction`, by a route chosen to differ from
the program's own:

- `diagonal_threshold` enumerates the basic solutions of
  min over convex combinations lambda of max_i (sum_j lambda_j g_j)_i
  (the program solves the same LP by simplex); lct = 1 / t* (Howald).
- `brieskorn_alpha` and `brieskorn_milnor` are the closed forms for
  x_1^{a_1} + ... + x_n^{a_n}: alpha = sum 1/a_i (Saito), mu = prod (a_i - 1).
- `mult_n2` is twice the area below the Newton polygon, by the shoelace
  formula; `mult_by_counting` counts the lattice points of the orthant
  outside kP for k = 1..n+1 and reads e = n! * (leading coefficient) off the
  n-th finite difference, so it never forms a volume.
- `facets` is a brute-force enumeration with integer normals, used to check
  `newton --json` exactly.

`python3 bench/reference.py {lct,mult,facets} --vars x,y,z --ideal "..."`
prints the reference value of one ideal; `mult` at n >= 3 counts lattice
points for k = 1..n+2, so it also checks that the count is a polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd


def antichain(gens):
    """Minimal exponent vectors under componentwise order, sorted."""
    vecs = set(tuple(g) for g in gens)
    return sorted(
        v for v in vecs
        if not any(u != v and all(a >= b for a, b in zip(v, u)) for u in vecs)
    )


def ideal_product(a, b):
    return antichain(tuple(x + y for x, y in zip(u, v)) for u in a for v in b)


def maximal_ideal(n):
    return [tuple(int(i == j) for j in range(n)) for i in range(n)]


def pure_power_exponents(gens, n):
    """b with x_i^{b_i} a generator for every i, or None (not zero-dimensional)."""
    b = [None] * n
    for g in gens:
        nz = [i for i in range(n) if g[i]]
        if len(nz) == 1:
            b[nz[0]] = g[nz[0]]
    return None if None in b else b


# -- exact small linear algebra over the integers ------------------------------


def _det(rows):
    """Determinant of a square integer matrix by fraction-free elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            row, factor = m[i], m[i][k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - factor * m[k][j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


def _cross(vectors, n):
    """Integer normal to n-1 vectors in Z^n (generalised cross product)."""
    return [
        (-1) ** i * _det([v[:i] + v[i + 1:] for v in vectors]) if n > 1 else 1
        for i in range(n)
    ]


def _rank(rows):
    """Row rank of an integer matrix."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


# -- diagonal threshold and the invariants built on it -------------------------


def _in_segment_hull(g, p, q):
    """True when g >= lam*p + (1-lam)*q for some lam in [0, 1]."""
    lo_n, lo_d, hi_n, hi_d = 0, 1, 1, 1
    for a, b, c in zip(g, p, q):
        d, r = b - c, a - c  # need lam*d <= r
        if d == 0:
            if r < 0:
                return False
            continue
        if d < 0:
            d, r = -d, -r  # lam >= r/d
            if r * lo_d > lo_n * d:
                lo_n, lo_d = r, d
        elif r * hi_d < hi_n * d:
            hi_n, hi_d = r, d
        if lo_n * hi_d > hi_n * lo_d:
            return False
    return True


def prune_generators(gens):
    """Drop generators lying in conv(two others) + orthant; P is unchanged."""
    keep = antichain(gens)
    i = 0
    while i < len(keep):
        g, rest = keep[i], keep[:i] + keep[i + 1:]
        if any(
            _in_segment_hull(g, p, q)
            for a, p in enumerate(rest) for q in rest[a + 1:]
        ):
            keep = rest
            i = 0
        else:
            i += 1
    return keep


def _solve_ones(rows):
    """Solve rows * x = (1, ..., 1) by Cramer's rule: (numerators, den > 0),
    or None when singular."""
    den = _det(rows)
    if den == 0:
        return None
    nums = [_det([r[:c] + [1] + r[c + 1:] for r in rows]) for c in range(len(rows))]
    if den < 0:
        return [-x for x in nums], -den
    return nums, den


def diagonal_threshold(gens) -> Fraction:
    """Least t with (t, ..., t) in conv(gens) + R^n_{>=0}.

    A vertex of {(lambda, t): lambda in the simplex, G lambda <= t 1} has a
    support S of k generators and k tight coordinates C, so lambda / t solves
    the k x k system G[C, S] x = 1.  The loop solves each system exactly and
    keeps the feasible ones; it stops early when the dual solution of the
    same (S, C) certifies optimality (a mu >= 0 with <mu, g> >= 1 for every
    generator g and sum(mu) = 1 / t), and otherwise returns the least t found.
    """
    gens = prune_generators(gens)
    n, m = len(gens[0]), len(gens)
    best = None
    for k in range(min(n, m), 0, -1):
        for C in combinations(range(n), k):
            others = [i for i in range(n) if i not in C]
            for S in combinations(range(m), k):
                cols = [gens[j] for j in S]
                rows = [[g[i] for g in cols] for i in C]
                sol = _solve_ones(rows)
                if sol is None:
                    continue
                lam, den = sol
                total = sum(lam)
                if min(lam) < 0 or total <= 0:
                    continue
                if any(
                    sum(x * g[i] for x, g in zip(lam, cols)) > den for i in others
                ):
                    continue
                t = Fraction(den, total)
                if best is not None and t >= best:
                    continue
                best = t
                dual = _solve_ones([list(r) for r in zip(*rows)])
                if dual is None:
                    continue
                mu, mu_den = dual
                if min(mu) >= 0 and Fraction(mu_den, sum(mu)) == t and all(
                    sum(x * g[i] for x, i in zip(mu, C)) >= mu_den for g in gens
                ):
                    return t
    return best


def lct(gens) -> Fraction:
    """Log canonical threshold of a monomial ideal (Howald): 1 / t*."""
    return 1 / diagonal_threshold(gens)


def brieskorn_alpha(exps) -> Fraction:
    return sum((Fraction(1, a) for a in exps), Fraction(0))


def brieskorn_milnor(exps) -> int:
    mu = 1
    for a in exps:
        mu *= a - 1
    return mu


def milnor_bound_lhs(beta: Fraction, n: int) -> Fraction:
    """(n / beta - 1)^n, or 0 when n / beta <= 1."""
    g = Fraction(n) / beta - 1
    return g**n if g > 0 else Fraction(0)


# -- multiplicities ------------------------------------------------------------


def mult_n2(gens) -> int:
    """e(a) for n = 2: twice the area between the axes and the Newton polygon."""
    pts = antichain(gens)  # sorted by x, hence decreasing in y
    hull = []
    for p in pts:  # lower convex chain from (0, b) to (a, 0)
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    poly = [(0, 0)] + hull[::-1]
    twice_area = sum(
        x1 * y2 - x2 * y1
        for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1])
    )
    return abs(twice_area)


def supporting_inequalities(gens, n):
    """Valid inequalities <u, x> >= c of the Newton polyhedron, u >= 0
    primitive, including every facet: one candidate per choice of points S
    and coordinate rays R with |S| + |R| = n."""
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    found = set()
    for s in range(1, n + 1):
        for S in combinations(gens, s):
            base = S[0]
            dirs = [[a - b for a, b in zip(p, base)] for p in S[1:]]
            for R in combinations(rays, n - s):
                u = _cross(dirs + [list(r) for r in R], n)
                if all(x <= 0 for x in u):
                    u = [-x for x in u]
                if any(x < 0 for x in u) or not any(u):
                    continue
                g = 0
                for x in u:
                    g = gcd(g, x)
                u = tuple(x // g for x in u)
                c = min(sum(a * b for a, b in zip(u, p)) for p in gens)
                found.add((u, c))
    return sorted(found)


def facets(gens, n):
    """Facets (u, c) with u primitive: the candidates whose tight points and
    rays span an (n-1)-dimensional face."""
    gens = antichain(gens)
    out = []
    for u, c in supporting_inequalities(gens, n):
        tight = [p for p in gens if sum(a * b for a, b in zip(u, p)) == c]
        dirs = [[a - b for a, b in zip(p, tight[0])] for p in tight[1:]]
        dirs += [[int(i == j) for j in range(n)] for i in range(n) if u[i] == 0]
        if n == 1 or (dirs and _rank(dirs) == n - 1):
            out.append((u, c))
    return out


def vertices(gens, n, facet_list):
    """Generators tight on n linearly independent facets."""
    return [
        p for p in antichain(gens)
        if _rank([list(u) for u, c in facet_list
                  if sum(a * b for a, b in zip(u, p)) == c] or [[0] * n]) == n
    ]


def lattice_count(ineqs, b, k):
    """Number of lattice points of the orthant outside kP, P zero-dimensional
    with pure powers x_i^{b_i}: for each (x_1..x_{n-1}) below k*b, the least
    last coordinate inside kP is the largest bound from the inequalities."""
    n = len(b)
    lifts = [(u[:-1], u[-1], c) for u, c in ineqs if u[-1] > 0]
    total = 0
    for head in product(*(range(k * bi) for bi in b[:-1])):
        zmin = 0
        for u, last, c in lifts:
            need = k * c - sum(a * x for a, x in zip(u, head))
            if need > zmin * last:
                zmin = -(-need // last)
        total += zmin
    return total


def mult_by_counting(gens, n, points=None) -> int:
    """e(a) = n-th finite difference of the lattice count L(k), k = 1..n+1.

    L is a polynomial of degree n in k with leading coefficient vol(orthant
    minus P), so its n-th difference is n! * vol = e(a).  `points` > n + 1
    also checks that the next difference vanishes.
    """
    gens = antichain(gens)
    b = pure_power_exponents(gens, n)
    if b is None:
        raise ValueError("multiplicity needs a zero-dimensional ideal")
    ineqs = supporting_inequalities(gens, n)
    values = [lattice_count(ineqs, b, k) for k in range(1, (points or n + 1) + 1)]
    e = _nth_difference(values, 0, n)
    for start in range(1, len(values) - n):
        if _nth_difference(values, start, n) != e:
            raise ArithmeticError("lattice count is not a polynomial of degree n")
    return e


def _nth_difference(values, start, n):
    return sum(
        (-1) ** (n - j) * comb(n, j) * values[start + j] for j in range(n + 1)
    )


# -- n-th roots, for the Minkowski check ---------------------------------------


def iroot(x: int, n: int) -> int:
    """Floor of the n-th root of x >= 0, by Newton's method on integers."""
    if x < 2:
        return x
    r = 1 << ((x.bit_length() + n - 1) // n)
    while True:
        s = ((n - 1) * r + x // r ** (n - 1)) // n
        if s >= r:
            break
        r = s
    while r**n > x:
        r -= 1
    while (r + 1) ** n <= x:
        r += 1
    return r


def root_bracket(x: int, n: int, bits: int):
    """Fractions lo <= x^(1/n) <= hi with hi - lo <= 2^-bits."""
    scale = 1 << bits
    r = iroot(x * scale**n, n)
    exact = r**n == x * scale**n
    return Fraction(r, scale), Fraction(r if exact else r + 1, scale)


def exact_root_ratio(num: int, den: int, n: int):
    """(p, q) with (num/den)^(1/n) = p/q, or None when irrational."""
    r = Fraction(num, den)
    p, q = iroot(r.numerator, n), iroot(r.denominator, n)
    if p**n == r.numerator and q**n == r.denominator:
        return p, q
    return None


def parse_ideal(text, names):
    """Exponent vectors of a generator list such as "x^2, x*y^3, y^4"."""
    gens = []
    for mono in text.split(","):
        v = [0] * len(names)
        for factor in mono.strip().split("*"):
            name, _, power = factor.strip().partition("^")
            v[names.index(name)] += int(power or 1)
        gens.append(tuple(v))
    return gens


if __name__ == "__main__":
    import argparse

    ap = argparse.ArgumentParser(
        description="Reference values of a monomial ideal, computed without singulact.")
    ap.add_argument("what", choices=("lct", "mult", "facets"))
    ap.add_argument("--vars", required=True, help="comma-separated variable names")
    ap.add_argument("--ideal", required=True, help='generators, e.g. "x^2, x*y^3, y^4"')
    a = ap.parse_args()
    names = a.vars.split(",")
    gens = parse_ideal(a.ideal, names)
    n = len(names)
    if a.what == "lct":
        print(lct(gens))
    elif a.what == "mult":
        print(mult_n2(gens) if n == 2 else mult_by_counting(gens, n, points=n + 2))
    else:
        for u, c in facets(gens, n):
            print(" + ".join(f"{x}*{v}" for x, v in zip(u, names) if x), ">=", c)
