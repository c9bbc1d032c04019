"""Grammar, parser, and printer round trips."""

import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from singulact import INF, ParseError, Poly, format_rat, parse_rat
from singulact.parsing import (
    VarTable,
    parse_monomial_ideal,
    parse_polynomial,
    poly_to_string,
)

XY = VarTable(("x", "y"))


class TestParsePolynomial:
    def test_simple_sum(self):
        assert parse_polynomial("x^2 + y^3", XY) == Poly(2, {(2, 0): 1, (0, 3): 1})

    def test_cancellation_and_juxtaposition(self):
        f = parse_polynomial("x^2*y - x^2 y + y^5", XY)
        assert f == Poly(2, {(0, 5): 1})

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="unknown variable 'z'"):
            parse_polynomial("x^2 + z", XY)

    def test_error_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_polynomial("x^2 + z", XY)
        assert exc.value.offset == 6

    def test_rational_coefficient(self):
        f = parse_polynomial("1/2 x^2 - 3 y", XY)
        assert f == Poly(2, {(2, 0): Fraction(1, 2), (0, 1): -3})

    def test_parenthesized_power(self):
        f = parse_polynomial("(x + y)^2", XY)
        assert f == Poly(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})

    def test_leading_minus(self):
        assert parse_polynomial("-x", XY) == Poly(2, {(1, 0): -1})

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_polynomial("   ", XY)

    def test_whitespace_and_order_insensitive(self):
        assert parse_polynomial("x^2+y^3", XY) == parse_polynomial(
            "y^3 + x^2", XY
        )


class TestParseIdeal:
    def test_generators(self):
        a = parse_monomial_ideal("x^2, x*y, y^3", XY)
        assert a.gens == frozenset({(2, 0), (1, 1), (0, 3)})

    def test_antichain_reduction(self):
        assert parse_monomial_ideal("x, x^2", XY).gens == frozenset({(1, 0)})

    def test_not_a_monomial(self):
        with pytest.raises(ParseError, match="not a monomial"):
            parse_monomial_ideal("x + y", XY)

    @pytest.mark.parametrize(
        "text, message, offset",
        [
            ("x^2, y^", "expected a natural number", 7),
            ("x^2, y^3, z", "unknown variable 'z'", 10),
            ("x^2, y^3, x y +", "expected a term", 15),
            ("x^2, y^3 + x", "not a monomial: 'y^3 + x'", 4),
            ("x^2,, y", "empty generator", 4),
            ("x^2, y), x", "unexpected character ')'", 6),
        ],
    )
    def test_error_offset_into_whole_input(self, text, message, offset):
        with pytest.raises(ParseError, match=re.escape(message)) as exc:
            parse_monomial_ideal(text, XY)
        assert exc.value.offset == offset

    def test_coefficient_warning(self):
        with pytest.warns(UserWarning, match="discarded"):
            a = parse_monomial_ideal("3 x^2, y", XY)
        assert a.gens == frozenset({(2, 0), (0, 1)})


class TestVarTable:
    def test_duplicate_names_rejected(self):
        with pytest.raises(Exception):
            VarTable(("x", "x"))

    def test_from_csv(self):
        assert VarTable.from_csv("x, y,z").names == ("x", "y", "z")


class TestFormatRat:
    def test_fraction(self):
        assert format_rat(Fraction(5, 6)) == "5/6"

    def test_integer(self):
        assert format_rat(Fraction(3)) == "3"

    def test_infinity(self):
        assert format_rat(INF) == "inf"

    def test_round_trip(self):
        for text in ("5/6", "3", "-7/2", "inf", "0"):
            assert format_rat(parse_rat(text)) == text


exp_vecs = st.tuples(st.integers(0, 6), st.integers(0, 6))
coefs = st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(
    lambda c: c != 0
)
polys2 = st.dictionaries(exp_vecs, coefs, min_size=1, max_size=6).map(
    lambda d: Poly(2, d)
)


@given(polys2)
def test_print_parse_round_trip(f):
    assert parse_polynomial(poly_to_string(f, XY), XY) == f
