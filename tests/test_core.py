"""Polynomial and monomial-ideal operations."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singulact import (
    INF,
    InputError,
    MonomialIdeal,
    Poly,
    UnsupportedClassError,
    Weights,
    euler_check,
    ideal_contains,
    ideal_power,
    ideal_product,
    is_zero_dimensional,
    jacobian_generators,
    maximal_ideal,
    maximal_ideal_power,
    monomialize,
    order_at_origin,
    partial_derivative,
    poly_in_ideal,
    quasi_homogeneous_weights,
    restrict_to_coordinate_hyperplane,
)


def P(n, terms):
    return Poly(n, terms)


F = Fraction


class TestPartialDerivative:
    def test_power_rule_x(self):
        f = P(2, {(2, 0): 1, (0, 3): 1})
        assert partial_derivative(f, 0) == P(2, {(1, 0): 2})

    def test_power_rule_y(self):
        f = P(2, {(2, 0): 1, (0, 3): 1})
        assert partial_derivative(f, 1) == P(2, {(0, 2): 3})

    def test_constant_in_x(self):
        assert partial_derivative(P(2, {(0, 3): 1}), 0).is_zero

    def test_index_out_of_range(self):
        with pytest.raises(InputError):
            partial_derivative(P(2, {(1, 0): 1}), 2)


class TestJacobianGenerators:
    def test_excludes_f_by_default(self):
        f = P(2, {(2, 0): 1, (0, 3): 1})
        assert jacobian_generators(f) == [
            P(2, {(1, 0): 2}),
            P(2, {(0, 2): 3}),
        ]

    def test_monomial_case(self):
        a, b = 4, 1
        f = P(2, {(a, b): 1})
        assert jacobian_generators(f) == [
            P(2, {(a - 1, b): a}),
            P(2, {(a, b - 1): b}),
        ]

    def test_pure_power_in_many_variables(self):
        d = 3
        f = P(3, {(d, 0, 0): 1})
        gens = jacobian_generators(f)
        assert gens[0] == P(3, {(d - 1, 0, 0): d})
        assert gens[1].is_zero and gens[2].is_zero

    def test_zero_polynomial_rejected(self):
        with pytest.raises(InputError):
            jacobian_generators(Poly.zero(2))


class TestOrderAtOrigin:
    def test_examples(self):
        assert order_at_origin(P(2, {(2, 0): 1, (0, 3): 1})) == 2
        assert order_at_origin(Poly.zero(2)) is INF
        assert order_at_origin(P(2, {(4, 1): 1})) == 5


class TestQuasiHomogeneousWeights:
    def test_two_forced_weights(self):
        f = P(2, {(2, 0): 1, (0, 3): 1})
        assert quasi_homogeneous_weights(f) == Weights((F(1, 2), F(1, 3)))

    def test_inconsistent_system(self):
        f = P(2, {(2, 0): 1, (0, 3): 1, (1, 2): 1})
        assert quasi_homogeneous_weights(f) is None

    def test_symmetric_quartic(self):
        f = P(2, {(3, 1): 1, (1, 3): 1})
        assert quasi_homogeneous_weights(f) == Weights((F(1, 4), F(1, 4)))

    def test_rejects_nonvanishing(self):
        with pytest.raises(InputError):
            quasi_homogeneous_weights(P(1, {(0,): 1}))

    def test_underdetermined_maximizes_min_weight(self):
        # x^2 in two variables: w_1 forced to 1/2, w_2 free; the LP returns
        # the vertex maximizing min w_i.
        w = quasi_homogeneous_weights(P(2, {(2, 0): 1}))
        assert w.w[0] == F(1, 2) and w.w[1] >= F(1, 2)


class TestEulerCheck:
    def test_holds(self):
        f = P(2, {(2, 0): 1, (0, 3): 1})
        assert euler_check(f, Weights((F(1, 2), F(1, 3))))

    def test_fails_for_wrong_weights(self):
        f = P(2, {(2, 0): 1, (0, 3): 1})
        assert not euler_check(f, Weights((F(1, 2), F(1, 2))))

    def test_quadric(self):
        f = P(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
        assert euler_check(f, Weights((F(1, 2),) * 3))


class TestRestriction:
    def test_drop_last_variable(self):
        f = P(3, {(2, 0, 0): 1, (0, 3, 0): 1, (0, 0, 7): 1})
        assert restrict_to_coordinate_hyperplane(f, 2) == P(
            2, {(2, 0): 1, (0, 3): 1}
        )

    def test_zero_restriction_rejected(self):
        with pytest.raises(InputError):
            restrict_to_coordinate_hyperplane(P(2, {(1, 1): 1}), 0)

    def test_quadric(self):
        f = P(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
        assert restrict_to_coordinate_hyperplane(f, 2) == P(
            2, {(2, 0): 1, (0, 2): 1}
        )


class TestIdealAlgebra:
    def test_product_antichain(self):
        a = MonomialIdeal(2, [(1, 0), (0, 1)])
        b = MonomialIdeal(2, [(1, 0), (0, 2)])
        assert ideal_product(a, b).gens == frozenset({(2, 0), (1, 1), (0, 3)})

    def test_product_with_pure_power(self):
        d = 5
        a = maximal_ideal(2)
        b = MonomialIdeal(2, [(d - 1, 0)])
        assert ideal_product(a, b).gens == frozenset({(d, 0), (d - 1, 1)})

    def test_maximal_ideal_square(self):
        m = maximal_ideal(2)
        assert ideal_product(m, m).gens == frozenset({(2, 0), (1, 1), (0, 2)})

    def test_power(self):
        a = MonomialIdeal(2, [(1, 0), (0, 2)])
        assert ideal_power(a, 2).gens == frozenset({(2, 0), (1, 2), (0, 4)})

    def test_power_zero_rejected(self):
        with pytest.raises(InputError):
            ideal_power(maximal_ideal(2), 0)

    def test_maximal_ideal(self):
        assert maximal_ideal(3).gens == frozenset(
            {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
        )

    def test_maximal_ideal_power(self):
        assert maximal_ideal_power(2, 3).gens == frozenset(
            {(3, 0), (2, 1), (1, 2), (0, 3)}
        )

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            ideal_product(maximal_ideal(2), maximal_ideal(3))


class TestContainment:
    def test_contains(self):
        big = MonomialIdeal(2, [(1, 0), (0, 2)])
        small = MonomialIdeal(2, [(2, 0), (1, 1), (0, 3)])
        assert ideal_contains(big, small)
        assert not ideal_contains(small, big)

    def test_poly_in_ideal(self):
        a = MonomialIdeal(2, [(2, 0), (1, 1), (0, 3)])
        assert poly_in_ideal(a, P(2, {(2, 0): 1, (0, 3): 1}))
        assert not poly_in_ideal(a, P(2, {(1, 0): 1}))

    def test_mutual_containment_is_equality(self):
        a = MonomialIdeal(2, [(1, 0), (0, 2), (1, 1)])
        b = MonomialIdeal(2, [(1, 0), (0, 2)])
        assert ideal_contains(a, b) and ideal_contains(b, a)
        assert a.gens == b.gens


class TestZeroDimensional:
    def test_pure_powers(self):
        assert is_zero_dimensional(MonomialIdeal(2, [(2, 0), (0, 3)]))

    def test_missing_axis(self):
        assert not is_zero_dimensional(MonomialIdeal(2, [(1, 0), (1, 1)]))

    def test_maximal_power(self):
        assert is_zero_dimensional(maximal_ideal_power(3, 4))


class TestMonomialize:
    def test_unit_coefficients(self):
        gens = [P(2, {(1, 0): 2}), P(2, {(0, 2): 3})]
        assert monomialize(gens).gens == frozenset({(1, 0), (0, 2)})

    def test_monomial_generators(self):
        gens = [P(2, {(3, 1): 1}), P(2, {(4, 0): 1})]
        assert monomialize(gens).gens == frozenset({(3, 1), (4, 0)})

    def test_unit_residual(self):
        gens = [P(2, {(0, 2): 3, (0, 4): 5}), P(2, {(1, 0): 2})]
        assert monomialize(gens).gens == frozenset({(0, 2), (1, 0)})

    def test_failure_names_generator(self):
        bad = P(2, {(2, 0): 1, (0, 2): 1})  # x^2 + y^2: residual vanishes at 0
        with pytest.raises(UnsupportedClassError, match="x\\^2"):
            monomialize([bad, P(2, {(1, 0): 1})])


# -- property tests ------------------------------------------------------------

exp_vecs = st.tuples(st.integers(0, 5), st.integers(0, 5))
coefs = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
).filter(lambda c: c != 0)
polys2 = st.dictionaries(exp_vecs, coefs, min_size=0, max_size=5).map(
    lambda d: Poly(2, d)
)


@given(polys2, polys2)
def test_derivative_is_additive(f, g):
    for i in range(2):
        assert partial_derivative(f + g, i) == partial_derivative(
            f, i
        ) + partial_derivative(g, i)


@given(exp_vecs, exp_vecs)
def test_monomial_order_is_additive(u, v):
    f = Poly.monomial(2, u)
    g = Poly.monomial(2, v)
    assert order_at_origin(f * g) == sum(u) + sum(v)


nonzero_vecs = exp_vecs.filter(lambda v: v != (0, 0))
ideals2 = st.frozensets(nonzero_vecs, min_size=1, max_size=5).map(
    lambda s: MonomialIdeal(2, s)
)


@given(ideals2, ideals2, ideals2)
@settings(max_examples=60)
def test_product_commutative_associative_antichain(a, b, c):
    ab = ideal_product(a, b)
    assert ab == ideal_product(b, a)
    assert ideal_product(ab, c) == ideal_product(a, ideal_product(b, c))
    # minimality: no generator divides another
    gens = sorted(ab.gens)
    for u in gens:
        for v in gens:
            if u != v:
                assert not all(x >= y for x, y in zip(u, v))


@given(polys2.filter(lambda f: not f.is_zero and f.constant_term() == 0))
@settings(max_examples=80)
def test_weights_satisfy_euler_identity(f):
    w = quasi_homogeneous_weights(f)
    if w is not None:
        assert euler_check(f, w)


@given(
    st.tuples(st.integers(2, 5), st.integers(2, 5)),
    st.tuples(coefs, coefs),
)
def test_monomialized_diagonal_jacobian(exps, cs):
    f = Poly(2, {(exps[0], 0): cs[0], (0, exps[1]): cs[1]})
    j = monomialize(jacobian_generators(f))
    assert j.gens == frozenset({(exps[0] - 1, 0), (0, exps[1] - 1)})
