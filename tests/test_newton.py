"""Newton polyhedron: membership, threshold, facets, vertices, volume."""

import math
import random
from fractions import Fraction
from functools import cache

import pytest

from singulact import MonomialIdeal, ideal_contains, ideal_power, maximal_ideal
from singulact import newton, simplex
from singulact.errors import CapsExceededError, InputError
from singulact.newton import (
    NewtonPolyhedron,
    PolyhedronCaps,
    build,
    contains,
    covolume,
    diagonal_threshold,
    facets,
    integral_closure_member,
    multiplicity,
    vertices,
)

F = Fraction


def ideal(n, gens):
    return MonomialIdeal(n, gens)


class TestBuildAndContains:
    def test_points_stored(self):
        P = build(ideal(2, [(2, 0), (0, 3)]))
        assert P.points == ((0, 3), (2, 0))

    def test_zero_ideal_rejected(self):
        with pytest.raises(InputError):
            build(MonomialIdeal(2, []))

    def test_boundary_point(self):
        P = build(ideal(2, [(2, 0), (0, 3)]))
        assert contains(P, (F(6, 5), F(6, 5)))

    def test_interior_complement_point(self):
        P = build(ideal(2, [(2, 0), (0, 3)]))
        assert not contains(P, (1, 1))

    def test_generator_is_member(self):
        P = build(maximal_ideal(3))
        assert contains(P, (1, 0, 0))

    def test_negative_coordinate(self):
        P = build(maximal_ideal(2))
        assert not contains(P, (-1, 5))


class TestDiagonalThreshold:
    def test_cusp(self):
        assert diagonal_threshold(build(ideal(2, [(2, 0), (0, 3)]))) == F(6, 5)

    def test_maximal_ideal(self):
        # The diagonal hits the simplex face sum(x) = 1 at t = 1/n, matching
        # a threshold of n for the maximal ideal.
        for n in (1, 2, 3, 4):
            assert diagonal_threshold(build(maximal_ideal(n))) == F(1, n)

    def test_maximal_ideal_powers_scale(self):
        from singulact import maximal_ideal_power

        for d in (2, 3, 4):
            assert diagonal_threshold(build(maximal_ideal_power(2, d))) == F(d, 2)


class TestFacets:
    def test_cusp_product_ideal(self):
        got = {
            (f.u, f.c) for f in facets(build(ideal(2, [(2, 0), (1, 1), (0, 3)])))
        }
        assert got == {
            ((1, 1), 2),
            ((1, F(1, 2)), F(3, 2)),  # (2,1) c=3 scaled canonically
            ((1, 0), 0),
            ((0, 1), 0),
        }

    def test_cusp(self):
        got = {(f.u, f.c) for f in facets(build(ideal(2, [(2, 0), (0, 3)])))}
        assert got == {((1, F(2, 3)), 2), ((1, 0), 0), ((0, 1), 0)}

    def test_maximal_ideal(self):
        got = {(f.u, f.c) for f in facets(build(maximal_ideal(2)))}
        assert got == {((1, 1), 1), ((1, 0), 0), ((0, 1), 0)}

    def test_caps(self):
        with pytest.raises(CapsExceededError):
            facets(build(maximal_ideal(2)), PolyhedronCaps(max_dim=1))

    def test_caps_checked_after_cache(self):
        P = build(ideal(2, [(2, 0), (1, 1), (0, 3)]))
        assert len(facets(P)) == 4
        assert len(vertices(P)) == 3
        tight = PolyhedronCaps(max_dim=1)
        with pytest.raises(CapsExceededError):
            facets(P, tight)
        with pytest.raises(CapsExceededError):
            vertices(P, tight)
        with pytest.raises(CapsExceededError):
            vertices(build(ideal(2, [(2, 0), (0, 3)])), PolyhedronCaps(max_points=1))

    def test_soundness_random(self):
        rng = random.Random(11)
        from singulact.linalg import dot, rank

        for _ in range(30):
            n = rng.randint(1, 3)
            gens = {
                tuple(rng.randint(0, 5) for _ in range(n))
                for _ in range(rng.randint(1, 5))
            }
            gens = {g for g in gens if any(g)}
            if not gens:
                continue
            P = build(ideal(n, gens))
            for f in facets(P):
                vals = [dot(f.u, p) for p in P.points]
                assert all(v >= f.c for v in vals)
                # facet has n - 1 independent tight directions
                tight = [p for p, v in zip(P.points, vals) if v == f.c]
                dirs = [
                    [a - b for a, b in zip(p, tight[0])] for p in tight[1:]
                ]
                dirs += [
                    [1 if j == i else 0 for j in range(n)]
                    for i in range(n)
                    if f.u[i] == 0
                ]
                if n > 1:
                    assert rank(dirs) == n - 1


class TestVertices:
    def test_generators_are_vertices(self):
        assert vertices(build(ideal(2, [(2, 0), (0, 3)]))) == [(0, 3), (2, 0)]

    def test_hull_keeps_all_three(self):
        got = vertices(build(ideal(2, [(2, 0), (1, 1), (0, 3)])))
        assert set(got) == {(2, 0), (1, 1), (0, 3)}

    def test_midpoint_dropped(self):
        got = vertices(build(ideal(2, [(2, 0), (1, 1), (0, 2)])))
        assert set(got) == {(2, 0), (0, 2)}


class TestSharedPolyhedra:
    def test_same_generators_share_one_polyhedron(self):
        a = ideal(3, [(2, 0, 0), (0, 3, 0), (0, 0, 4), (1, 1, 1)])
        b = ideal(3, [(1, 1, 1), (2, 2, 2), (0, 0, 4), (0, 3, 0), (2, 0, 0)])
        assert build(a) is build(b)

    def test_threshold_lp_solved_once(self, monkeypatch):
        solved = []
        solve = simplex.solve
        monkeypatch.setattr(simplex, "solve", lambda lp: solved.append(lp) or solve(lp))
        P = NewtonPolyhedron(2, [(2, 0), (0, 3)])
        assert diagonal_threshold(P) == diagonal_threshold(P) == F(6, 5)
        assert len(solved) == 1

    def test_table_is_bounded(self):
        first = build(ideal(2, [(1, 0), (0, 1000)]))
        for d in range(100):
            build(ideal(2, [(2 + d, 0), (0, 2000 + d)]))
        assert newton._shared.cache_info().currsize <= newton.RECENT_POLYHEDRA
        assert build(ideal(2, [(1, 0), (0, 1000)])) is not first

    def test_returned_lists_are_copies(self):
        P = build(ideal(2, [(2, 0), (1, 1), (0, 3)]))
        fs, vs = facets(P), vertices(P)
        want_f, want_v = list(fs), list(vs)
        fs.clear()
        vs.append((F(9), F(9)))
        vs.reverse()
        assert facets(P) == want_f
        assert vertices(P) == want_v
        assert multiplicity(ideal(2, [(2, 0), (1, 1), (0, 3)])) == 5


class TestMembershipOracleAgreement:
    def test_lp_agrees_with_facets(self):
        rng = random.Random(5)
        from singulact.linalg import dot

        checked = 0
        for _ in range(100):
            n = rng.randint(1, 3)
            gens = {
                tuple(rng.randint(0, 4) for _ in range(n))
                for _ in range(rng.randint(1, 5))
            }
            gens = {g for g in gens if any(g)}
            if not gens:
                continue
            P = build(ideal(n, gens))
            fs = facets(P)
            for _ in range(8):
                q = tuple(
                    F(rng.randint(0, 24), rng.randint(1, 6)) for _ in range(n)
                )
                by_lp = contains(P, q)
                by_facets = all(dot(f.u, q) >= f.c for f in fs)
                assert by_lp == by_facets
                checked += 1
        assert checked >= 100


class TestMonotonicityAndScaling:
    def test_membership_monotone_under_containment(self):
        rng = random.Random(3)
        for _ in range(20):
            n = 2
            gens = {
                (rng.randint(0, 3), rng.randint(0, 3)) for _ in range(3)
            } - {(0, 0)}
            if not gens:
                continue
            a = ideal(n, gens)
            b = ideal(n, set(a.gens) | {(rng.randint(0, 2), rng.randint(0, 2))})
            if b.is_unit:
                continue
            small, big = (a, b) if ideal_contains(b, a) else (b, a)
            assert ideal_contains(big, small)
            Pa, Pb = build(small), build(big)
            for _ in range(5):
                q = (F(rng.randint(0, 12), 4), F(rng.randint(0, 12), 4))
                if contains(Pa, q):
                    assert contains(Pb, q)

    def test_threshold_scaling(self):
        a = ideal(2, [(2, 0), (1, 1), (0, 3)])
        t = diagonal_threshold(build(a))
        for k in (2, 3):
            assert diagonal_threshold(build(ideal_power(a, k))) == k * t

    def test_multiplicity_scaling(self):
        a = ideal(2, [(2, 0), (0, 3)])
        e = multiplicity(a)
        for k in (2, 3):
            assert multiplicity(ideal_power(a, k)) == k**2 * e


class TestIntegralClosure:
    def test_midpoint_member(self):
        assert integral_closure_member(ideal(2, [(2, 0), (0, 2)]), (1, 1))

    def test_below_segment(self):
        assert not integral_closure_member(ideal(2, [(2, 0), (0, 2)]), (1, 0))

    def test_origin_not_member(self):
        assert not integral_closure_member(maximal_ideal(3), (0, 0, 0))


class TestCovolumeAndMultiplicity:
    def test_unit_corner(self):
        assert covolume(build(maximal_ideal(2))) == F(1, 2)

    def test_cusp_triangle(self):
        assert covolume(build(ideal(2, [(2, 0), (0, 3)]))) == 3

    def test_truncated_triangle(self):
        assert covolume(build(ideal(2, [(2, 0), (1, 1), (0, 3)]))) == F(5, 2)

    def test_covolume_positive_inside_maximal_ideal(self):
        rng = random.Random(9)
        for _ in range(15):
            n = rng.randint(2, 3)
            gens = [
                tuple(
                    rng.randint(1, 4) if j == i else 0 for j in range(n)
                )
                for i in range(n)
            ]
            a = ideal(n, gens)
            assert covolume(build(a)) > 0

    def test_multiplicity_examples(self):
        assert multiplicity(maximal_ideal(2)) == 1
        assert multiplicity(maximal_ideal(3)) == 1
        assert multiplicity(ideal(2, [(1, 0), (0, 2)])) == 2
        from singulact import maximal_ideal_power

        assert multiplicity(maximal_ideal_power(2, 2)) == 4

    def test_multiplicity_of_maximal_powers(self):
        from singulact import maximal_ideal_power

        for n in (1, 2, 3):
            for k in (1, 2, 3):
                assert multiplicity(maximal_ideal_power(n, k)) == k**n

    def test_not_zero_dimensional_rejected(self):
        with pytest.raises(InputError):
            covolume(build(ideal(2, [(1, 1)])))

    def test_three_dimensional_corner(self):
        # P(x, y, z): complement is the corner simplex of volume 1/6.
        assert covolume(build(maximal_ideal(3))) == F(1, 6)


def _outside_count(a, k):
    """Lattice points of the orthant outside kP(a).  For each v' in the first
    n - 1 coordinates, an LP over the generator antichain (never the facet
    list) gives the least t with (v', t) in kP; the points below are those
    with last coordinate < t.  kP is up-closed, so that least t does not grow
    with v', and each loop stops at its first zero."""
    n, gens = a.n, a.gens
    m = len(gens)

    @cache
    def height(v):
        # Variables lambda_1..lambda_m, s_1..s_n, t; minimize t.
        rows, rhs = [], []
        for i in range(n):
            row = [F(k * g[i]) for g in gens]
            row += [F(1) if j == i else F(0) for j in range(n)]
            row.append(F(-1) if i == n - 1 else F(0))
            rows.append(row)
            rhs.append(F(v[i]) if i < n - 1 else F(0))
        rows.append([F(1)] * m + [F(0)] * (n + 1))
        rhs.append(F(1))
        obj = [F(0)] * (m + n) + [F(1)]
        result = simplex.solve(simplex.LinearProgram(obj, rows, rhs))
        assert result.status == simplex.OPTIMAL
        return math.ceil(result.value)

    def walk(prefix):
        if len(prefix) == n - 1:
            return height(prefix)
        pad = (0,) * (n - 2 - len(prefix))
        total, i = 0, 0
        while height(prefix + (i,) + pad) > 0:
            total += walk(prefix + (i,))
            i += 1
        return total

    return walk(())


def _lattice_multiplicity(a):
    """n! times the leading coefficient of the polynomial through the outside
    counts at k = 1..n+1, by exact Lagrange interpolation."""
    ks = range(1, a.n + 2)
    lead = F(0)
    for k in ks:
        den = math.prod(k - j for j in ks if j != k)
        lead += F(_outside_count(a, k), den)
    return math.factorial(a.n) * lead


class TestMultiplicityByLatticeCount:
    """The covolume is the leading coefficient of the count of lattice points
    outside kP, an Ehrhart-type polynomial of degree n; this route shares no
    code with the facet pyramids of `covolume`."""

    def test_outside_count_of_cusp(self):
        # Points (i, j) with 3i + 2j < 6k: 3 + 2 for k = 1, 6 + 5 + 3 + 2
        # for k = 2.
        a = ideal(2, [(2, 0), (0, 3)])
        assert [_outside_count(a, k) for k in (1, 2)] == [5, 16]

    @pytest.mark.parametrize("n, top, count", [(2, 5, 12), (3, 3, 5)])
    def test_random_zero_dimensional(self, n, top, count):
        rng = random.Random(1729 + n)
        for _ in range(count):
            gens = [
                tuple(rng.randint(1, top) if j == i else 0 for j in range(n))
                for i in range(n)
            ]
            gens += [
                tuple(rng.randint(0, top - 1) for _ in range(n))
                for _ in range(rng.randint(0, 3))
            ]
            a = ideal(n, [g for g in gens if any(g)])
            assert _lattice_multiplicity(a) == multiplicity(a), a.gens

    @pytest.mark.parametrize(
        "gens, e",
        [
            ([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], 1),
            ([(1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 3, 0), (0, 0, 0, 1)], 6),
            ([(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)], 16),
        ],
    )
    def test_fixed_four_variables(self, gens, e):
        a = ideal(4, gens)
        assert _lattice_multiplicity(a) == multiplicity(a) == e

    def test_pure_powers_four_variables(self):
        for d in (1, 5, 20, 40):
            gens = [tuple(d if j == i else 0 for j in range(4)) for i in range(4)]
            a = ideal(4, gens)
            assert multiplicity(a) == d**4


class TestFiveVariables:
    """n = 5 reaches volumes of 4-dimensional facet bases; the default caps
    stop at n = 4."""

    CAPS = PolyhedronCaps(max_dim=5)

    @pytest.mark.parametrize("seed", range(4))
    def test_pure_powers(self, seed):
        rng = random.Random(1900 + seed)
        exps = [rng.randint(1, 6) for _ in range(5)]
        gens = [tuple(e if j == i else 0 for j in range(5)) for i, e in enumerate(exps)]
        assert multiplicity(ideal(5, gens), self.CAPS) == math.prod(exps)

    def test_mixed_against_lattice_count(self):
        a = ideal(
            5,
            [(2, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 3, 0),
             (0, 0, 0, 0, 2), (0, 0, 0, 1, 1)],
        )
        assert _lattice_multiplicity(a) == multiplicity(a, self.CAPS) == 10
