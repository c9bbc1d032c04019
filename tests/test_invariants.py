"""Invariant values and inequality checkers against hand-computed values."""

import math
import operator
import random
from fractions import Fraction

import pytest

from singulact import (
    INF,
    InputError,
    MonomialIdeal,
    Poly,
    UnsupportedClassError,
    alpha,
    beta,
    check_dfem,
    check_madic,
    check_milnor_bound,
    check_minkowski,
    check_question1,
    check_restriction,
    check_thm_alpha_le_lct,
    ideal_contains,
    ideal_power,
    ideal_product,
    jacobian_generators,
    known_values,
    lct_monomial,
    lct_monomial_dual,
    maximal_ideal,
    milnor,
    monomialize,
    ord_u,
)
from singulact.cli import CHECKS, random_zero_dim_ideal
from singulact.invariants import registry_question1

F = Fraction


def diagonal(exps):
    n = len(exps)
    return Poly(
        n, {tuple(e if j == i else 0 for j in range(n)): 1 for i, e in enumerate(exps)}
    )


class TestOrdU:
    def test_examples(self):
        assert ord_u(MonomialIdeal(2, [(2, 0), (0, 3)]), (1, 1)) == 2
        assert ord_u(MonomialIdeal(2, [(2, 0), (1, 1), (0, 3)]), (2, 1)) == 3
        assert ord_u(maximal_ideal(3), (1, 1, 1)) == 1

    def test_zero_weight_rejected(self):
        with pytest.raises(InputError):
            ord_u(maximal_ideal(2), (0, 0))


class TestLct:
    def test_maximal_ideal(self):
        for n in (1, 2, 3, 4):
            assert lct_monomial(maximal_ideal(n)).value == n

    def test_cusp_jacobian_product(self):
        assert lct_monomial(MonomialIdeal(2, [(2, 0), (1, 1), (0, 3)])).value == 1

    def test_cusp_support(self):
        assert lct_monomial(MonomialIdeal(2, [(2, 0), (0, 3)])).value == F(5, 6)

    def test_unit_ideal_rejected(self):
        with pytest.raises(InputError):
            lct_monomial(MonomialIdeal(2, [(0, 0)]))

    def test_dual_certificate(self):
        r = lct_monomial_dual(MonomialIdeal(2, [(2, 0), (1, 1), (0, 3)]))
        assert r.value == 1
        # canonical facet normal: first nonzero entry scaled to 1
        assert r.certificate.u == (1, F(1, 2))
        assert r.certificate_ord == F(3, 2)

    def test_dual_maximal_powers(self):
        from singulact import maximal_ideal_power

        for n in (2, 3):
            for k in (1, 2, 3):
                assert lct_monomial_dual(maximal_ideal_power(n, k)).value == F(n, k)

    def test_monotonicity_random_nested(self):
        rng = random.Random(17)
        for _ in range(30):
            n = rng.randint(1, 3)
            gens = {
                tuple(rng.randint(0, 3) for _ in range(n))
                for _ in range(rng.randint(1, 4))
            }
            gens = {g for g in gens if any(g)}
            if not gens:
                continue
            a = MonomialIdeal(n, gens)
            extra = tuple(rng.randint(0, 3) for _ in range(n))
            if not any(extra):
                continue
            b = MonomialIdeal(n, set(a.gens) | {extra})
            assert ideal_contains(b, a)
            assert lct_monomial(a).value <= lct_monomial(b).value

    def test_scaling(self):
        a = MonomialIdeal(2, [(2, 0), (1, 1), (0, 3)])
        base = lct_monomial(a).value
        for k in (2, 3):
            assert lct_monomial(ideal_power(a, k)).value == base / k

    def test_bound_attained_only_at_maximal_ideal(self):
        a = MonomialIdeal(2, [(1, 0), (0, 2)])
        assert lct_monomial(a).value < 2
        assert lct_monomial(maximal_ideal(2)).value == 2


class TestBeta:
    def test_pure_cube_in_plane(self):
        assert beta(Poly(2, {(3, 0): 1})).value == F(1, 2)

    def test_monomial_x4y(self):
        assert beta(Poly(2, {(4, 1): 1})).value == F(1, 3)

    def test_cusp(self):
        assert beta(Poly(2, {(2, 0): 1, (0, 3): 1})).value == 1

    def test_smooth_point_attains_dimension(self):
        assert beta(Poly(2, {(1, 0): 1, (0, 5): 1})).value == 2

    def test_depends_on_ambient_dimension(self):
        d = 4
        assert beta(Poly(1, {(d,): 1})).value == F(1, d)
        assert beta(Poly(2, {(d, 0): 1})).value == F(1, d - 1)

    def test_adding_f_changes_nothing(self):
        # f lies in the integral closure of m*J_f (Teissier 1973), so
        # m*(J_f + (f)) has the same threshold as m*J_f.
        rng = random.Random(41)
        compared = 0
        for _ in range(300):
            n = rng.randint(1, 3)
            terms = {}
            for _ in range(rng.randint(1, 3)):
                v = tuple(rng.randint(0, 4) for _ in range(n))
                if any(v):
                    terms[v] = rng.choice([-2, -1, 1, 3])
            f = Poly(n, terms)
            if f.is_zero:
                continue
            gens = [f, *(g for g in jacobian_generators(f) if not g.is_zero)]
            try:
                with_f = monomialize(gens)
            except UnsupportedClassError:
                continue
            product = ideal_product(maximal_ideal(n), with_f)
            assert lct_monomial(product).value == beta(f).value, f
            compared += 1
        assert compared >= 100

    def test_unsupported_class(self):
        # x^2 + y^2 + x*y^2: Jacobian does not reduce to a monomial ideal.
        f = Poly(2, {(2, 0): 1, (0, 2): 1, (1, 2): 1})
        with pytest.raises(UnsupportedClassError):
            beta(f)

    def test_nonvanishing_rejected(self):
        with pytest.raises(InputError):
            beta(Poly(2, {(0, 0): 1, (1, 0): 1}))


class TestAlpha:
    def test_cusp(self):
        r = alpha(Poly(2, {(2, 0): 1, (0, 3): 1}))
        assert r.value == F(5, 6)
        assert r.method == "weighted-homogeneous"

    def test_four_dimensional_quadric(self):
        f = diagonal((2, 2, 2, 2))
        assert alpha(f).value == 2

    def test_smooth_point(self):
        assert alpha(Poly(2, {(1, 0): 1, (0, 5): 1})).value is INF

    def test_nondegenerate_route_flagged(self):
        # Coefficients break weighted homogeneity scaling is still fine, so force
        # the second route with a non-quasi-homogeneous support.
        f = Poly(2, {(2, 0): 1, (0, 3): 1, (1, 2): 1})
        r = alpha(f)
        assert r.method == "nondegenerate-newton"
        assert "nondegeneracy" in r.assumes
        assert r.value == F(5, 6)  # threshold of the support polyhedron

    def test_routes_agree_on_diagonals(self):
        for exps in ((2, 3), (3, 3), (2, 5), (2, 3, 4)):
            f = diagonal(exps)
            assert alpha(f).value == sum(F(1, e) for e in exps)

    def test_unsupported(self):
        with pytest.raises(UnsupportedClassError):
            alpha(Poly(2, {(2, 1): 1}))  # x^2 y: non-isolated


class TestMilnor:
    def test_cusp(self):
        assert milnor(Poly(2, {(2, 0): 1, (0, 3): 1})).value == 2

    def test_diagonal_cones(self):
        for n, d in ((2, 3), (3, 3), (3, 4)):
            f = diagonal((d,) * n)
            assert milnor(f).value == (d - 1) ** n

    def test_multiplicity_route(self):
        # The Milnor number of a diagonal input equals the multiplicity of its
        # monomial Jacobian ideal (x^2, y^3).
        f = diagonal((3, 4))
        from singulact.newton import multiplicity
        from singulact.ideals import monomialize
        from singulact.poly import jacobian_generators

        j = monomialize(jacobian_generators(f))
        assert multiplicity(j) == milnor(f).value == 6

    def test_diagonal_route_matches_pure_powers(self):
        # Adding the product of the pure powers leaves each partial a unit
        # times x_i^(a_i - 1), so f and f + x^a both have the diagonal closed
        # form prod(a_i - 1), read off the one Jacobian staircase.
        rng = random.Random(31)
        for _ in range(25):
            exps = [rng.randint(1, 7) for _ in range(rng.randint(2, 4))]
            n = len(exps)
            f = diagonal(exps)
            closed_form = math.prod(a - 1 for a in exps)
            for h in (f, f + Poly(n, {tuple(exps): 1})):
                r = milnor(h)
                assert (r.value, r.method) == (closed_form, "staircase-pure-powers")

    def test_unsupported_nonisolated(self):
        with pytest.raises(UnsupportedClassError):
            milnor(Poly(2, {(2, 1): 1}))


class TestVerdictRule:
    """Each outcome decided by comparison holds exactly when its lhs and rhs
    satisfy the relation it carries; minkowski's bracket outcomes, whose
    lhs and rhs are bracket endpoints, are the one exception."""

    RELATIONS = {"<=": operator.le, ">=": operator.ge}

    @staticmethod
    def outcomes(seed):
        rng = random.Random(seed)
        for _ in range(10):
            n = rng.randint(2, 3)
            exps = [rng.randint(1, 5) for _ in range(n)]
            f = diagonal(exps)
            # A multiple of the product of the pure powers keeps the
            # Jacobian monomial.
            bump = tuple(e + rng.randint(0, 2) for e in exps)
            yield check_madic(f, f + Poly(n, {bump: 1}))
            other = [rng.randint(1, 5) for _ in range(n)]
            if other != exps:
                yield check_madic(f, diagonal(other))
            yield check_restriction(f, rng.randrange(n))
            yield check_milnor_bound(f)
            if min(exps) >= 2:
                yield check_question1(f)
                a = MonomialIdeal(
                    n, [tuple(e - 1 if j == i else 0 for j in range(n))
                        for i, e in enumerate(exps)]
                )
                yield check_thm_alpha_le_lct(f, a)
            a, b = random_zero_dim_ideal(rng, n), random_zero_dim_ideal(rng, n)
            yield check_dfem(a)
            yield check_minkowski(a, b)
        # Multiplicities 4 and 9, whose ratio is a perfect square.
        yield check_minkowski(
            MonomialIdeal(2, [(2, 0), (0, 2)]), MonomialIdeal(2, [(3, 0), (0, 3)])
        )
        yield registry_question1()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_holds_and_equality_follow_relation(self, seed):
        names, exact_minkowski = set(), 0
        for c in self.outcomes(seed):
            names.add(c.name)
            if c.name == "minkowski":
                if not c.witness.endswith("compared as n-th powers"):
                    assert c.equality is False
                    continue
                exact_minkowski += 1
            assert c.holds == self.RELATIONS[c.relation](c.lhs, c.rhs)
            assert c.equality == (c.lhs == c.rhs)
        assert names == set(CHECKS)
        assert exact_minkowski >= 1


class TestCheckQuestion1:
    def test_cusp_holds(self):
        c = check_question1(Poly(2, {(2, 0): 1, (0, 3): 1}))
        assert c.holds is True
        assert (c.lhs, c.rhs) == (F(5, 6), 1)

    def test_quadric_equality(self):
        c = check_question1(diagonal((2, 2, 2)))
        assert c.holds is True and c.equality
        assert c.lhs == c.rhs == F(3, 2)

    def test_2_3_7_diagonal(self):
        c = check_question1(diagonal((2, 3, 7)))
        assert c.holds is True
        assert c.lhs == F(41, 42)

    def test_smooth_rejected(self):
        with pytest.raises(InputError):
            check_question1(Poly(2, {(1, 0): 1}))


class TestCheckThmAlphaLeLct:
    def test_cusp_pair(self):
        f = Poly(2, {(2, 0): 1, (0, 3): 1})
        a = MonomialIdeal(2, [(1, 0), (0, 2)])
        c = check_thm_alpha_le_lct(f, a)
        assert c.holds is True
        assert (c.lhs, c.rhs) == (F(5, 6), F(3, 2))

    def test_hypothesis_violation_reported(self):
        f = Poly(2, {(1, 0): 1})
        a = MonomialIdeal(2, [(1, 0), (0, 2)])
        with pytest.raises(InputError, match="hypothesis"):
            check_thm_alpha_le_lct(f, a)

    def test_monomial_member(self):
        # f = x^2 y in m*(x y): alpha unsupported for non-isolated f, so use a
        # diagonal member of a monomial ideal instead.
        f = diagonal((3, 3))
        a = MonomialIdeal(2, [(2, 0), (0, 2)])
        c = check_thm_alpha_le_lct(f, a)
        assert c.holds is True


class TestCheckRestriction:
    def test_three_variable_diagonal(self):
        f = diagonal((2, 3, 7))
        c = check_restriction(f, 2)
        assert c.holds is True

    def test_quadric(self):
        c = check_restriction(diagonal((2, 2, 2)), 2)
        assert c.holds is True
        assert (c.lhs, c.rhs) == (F(3, 2), 1)

    def test_planar(self):
        c = check_restriction(diagonal((2, 5)), 1)
        assert c.holds is True


class TestCheckMadic:
    def test_cusp_vs_higher_order(self):
        f = diagonal((2, 3))
        g = diagonal((2, 5))
        c = check_madic(f, g)
        assert c.holds is True
        assert c.rhs == F(2, 3)
        assert c.lhs == 0

    def test_equal_inputs_rejected(self):
        f = diagonal((2, 3))
        with pytest.raises(InputError):
            check_madic(f, f)

    def test_small_perturbation(self):
        f = diagonal((2, 3))
        g = f + Poly(2, {(9, 0): 1})
        c = check_madic(f, g)
        assert c.rhs == F(2, 9)
        assert c.holds is True


class TestCheckMilnorBound:
    def test_cone_equality(self):
        c = check_milnor_bound(diagonal((3, 3, 3)))
        assert c.holds is True and c.equality
        assert c.lhs == c.rhs == 8

    def test_cusp(self):
        c = check_milnor_bound(diagonal((2, 3)))
        assert c.holds is True and not c.equality
        assert (c.lhs, c.rhs) == (1, 2)

    def test_planar_quadric_equality(self):
        c = check_milnor_bound(diagonal((2, 2)))
        assert c.holds is True and c.equality


class TestCheckDfem:
    def test_maximal_ideal_equality(self):
        c = check_dfem(maximal_ideal(2))
        assert c.holds is True and c.equality

    def test_cusp_support(self):
        c = check_dfem(MonomialIdeal(2, [(2, 0), (0, 3)]))
        assert c.holds is True
        assert (c.lhs, c.rhs) == (6, F(144, 25))

    def test_maximal_powers_equality(self):
        from singulact import maximal_ideal_power

        for k in (2, 3):
            c = check_dfem(maximal_ideal_power(2, k))
            assert c.holds is True and c.equality


class TestCheckMinkowski:
    def test_equal_maximal_ideals(self):
        c = check_minkowski(maximal_ideal(2), maximal_ideal(2))
        assert c.holds is True and c.equality

    def test_mixed_pair(self):
        a = maximal_ideal(2)
        b = MonomialIdeal(2, [(1, 0), (0, 2)])
        c = check_minkowski(a, b)
        assert c.holds is True  # sqrt(5) <= 1 + sqrt(2)

    def test_squares_vs_cubes(self):
        a = MonomialIdeal(2, [(2, 0), (0, 2)])
        b = MonomialIdeal(2, [(3, 0), (0, 3)])
        c = check_minkowski(a, b)
        assert c.holds is True

    def test_non_zero_dimensional_rejected(self):
        with pytest.raises(InputError):
            check_minkowski(MonomialIdeal(2, [(1, 1)]), maximal_ideal(2))


class TestRegistry:
    def test_entries(self):
        entries = {(kv.description, kv.invariant): kv.value for kv in known_values()}
        assert entries[("det generic matrix", "beta")] == 4
        assert entries[("det generic matrix", "alpha")] == 2

    def test_cross_check(self):
        c = registry_question1()
        assert c.holds is True and (c.lhs, c.rhs) == (2, 4)


class TestPrimalDualAgreement:
    def test_random_corpus(self):
        rng = random.Random(23)
        count = 0
        while count < 200:
            n = rng.randint(1, 3)
            gens = {
                tuple(rng.randint(0, 4) for _ in range(n))
                for _ in range(rng.randint(1, 8))
            }
            gens = {g for g in gens if any(g)}
            if not gens:
                continue
            a = MonomialIdeal(n, gens)
            # lct_monomial_dual asserts exact agreement internally
            lct_monomial_dual(a)
            count += 1
