"""Text grammar for polynomials and monomial-ideal generator lists.

Grammar:

    poly   := ['+'|'-'] term (('+'|'-') term)*
    term   := [coef ['*']] factor*
    factor := var ['^' nat] ['*']
            | '(' poly ')' ['^' nat] ['*']
    coef   := int | int '/' posint
    var    := letter (letter|digit)*

Juxtaposition means multiplication.  Variables must be declared up front via a
VarTable; the ambient dimension is never inferred from the expression.
Every syntax error carries a byte offset into the input.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, ParseError
from .ideals import MonomialIdeal
from .poly import Poly
from .rational import INF, format_rat  # re-exported: format_rat is the printer

__all__ = [
    "VarTable",
    "parse_polynomial",
    "parse_monomial_ideal",
    "poly_to_string",
    "format_rat",
]


@dataclass(frozen=True)
class VarTable:
    """Ordered, distinct variable names; fixes the coordinate order."""

    names: tuple

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if not names:
            raise InputError("variable table must be nonempty")
        if len(set(names)) != len(names):
            raise InputError("variable names must be distinct")
        for name in names:
            if not name or not name[0].isalpha() or not name.isalnum():
                raise InputError(f"invalid variable name: {name!r}")

    @classmethod
    def from_csv(cls, text: str) -> "VarTable":
        return cls(tuple(s.strip() for s in text.split(",") if s.strip()))

    @property
    def n(self):
        return len(self.names)

    def index(self, name):
        return self.names.index(name)


class _Parser:
    def __init__(self, text: str, vars: VarTable):
        self.text = text
        self.vars = vars
        self.pos = 0

    def error(self, message):
        raise ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def parse_nat(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected a natural number")
        return int(self.text[start : self.pos])

    def parse_ident(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum()
        ):
            self.pos += 1
        return self.text[start : self.pos]

    def parse_poly(self) -> Poly:
        acc = Poly.zero(self.vars.n)
        sign = 1
        if self.eat("-"):
            sign = -1
        else:
            self.eat("+")
        acc = acc + self.parse_term().scale(sign)
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                acc = acc + self.parse_term()
            elif ch == "-":
                self.pos += 1
                acc = acc - self.parse_term()
            else:
                return acc

    def parse_term(self) -> Poly:
        n = self.vars.n
        acc = Poly.monomial(n, (0,) * n, 1)
        got = False
        if self.peek().isdigit():
            acc = acc.scale(self.parse_coef())
            got = True
            self.eat("*")
        while True:
            ch = self.peek()
            if ch == "(":
                self.pos += 1
                inner = self.parse_poly()
                if not self.eat(")"):
                    self.error("expected ')'")
                exp = self.parse_nat() if self.eat("^") else 1
                for _ in range(exp):
                    acc = acc * inner
                got = True
                self.eat("*")
            elif ch.isalpha():
                start = self.pos
                name = self.parse_ident()
                if name not in self.vars.names:
                    self.pos = start
                    self.error(f"unknown variable {name!r}")
                exp = self.parse_nat() if self.eat("^") else 1
                v = tuple(
                    exp if j == self.vars.index(name) else 0 for j in range(n)
                )
                acc = acc * Poly.monomial(n, v)
                got = True
                self.eat("*")
            else:
                break
        if not got:
            self.error("expected a term")
        return acc

    def parse_coef(self) -> Fraction:
        num = self.parse_nat()
        if self.eat("/"):
            den = self.parse_nat()
            if den == 0:
                self.error("zero denominator")
            return Fraction(num, den)
        return Fraction(num)

    def expect_end(self):
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(f"unexpected character {self.text[self.pos]!r}")


def parse_polynomial(text: str, vars: VarTable) -> Poly:
    """Parse text into a canonical polynomial over the given variables."""
    if not text.strip():
        raise ParseError("empty input", 0)
    p = _Parser(text, vars)
    poly = p.parse_poly()
    p.expect_end()
    return poly


def parse_monomial_ideal(text: str, vars: VarTable) -> MonomialIdeal:
    """Parse a comma-separated list of monomials into a monomial ideal.

    Coefficients are discarded (with a warning when not +-1), since ideals over
    a field are coefficient-insensitive.
    """
    if not text.strip():
        raise ParseError("empty generator list", 0)
    p = _Parser(text, vars)
    gens = []
    while True:
        start = p.pos
        if p.peek() in ("", ","):
            raise ParseError("empty generator", start)
        poly = p.parse_poly()
        piece = text[start : p.pos].strip()
        more = p.eat(",")
        if not more:
            p.expect_end()
        if len(poly.terms) != 1:
            raise ParseError(f"not a monomial: {piece!r}", start)
        ((v, c),) = poly.terms.items()
        if c not in (1, -1):
            warnings.warn(
                f"coefficient {format_rat(c)} discarded from ideal generator "
                f"{piece!r}",
                stacklevel=2,
            )
        gens.append(v)
        if not more:
            return MonomialIdeal(vars.n, gens)


def _grlex_key(v):
    return (sum(v), tuple(-e for e in v))


def poly_to_string(f: Poly, vars: VarTable | None = None) -> str:
    """Canonical printer: terms in graded-lex order; round-trips through
    parse_polynomial."""
    if f.is_zero:
        return "0"
    names = vars.names if vars is not None else _default_names(f.n)
    parts = []
    for v in sorted(f.terms, key=_grlex_key, reverse=True):
        c = f.terms[v]
        factors = []
        for i, e in enumerate(v):
            if e == 1:
                factors.append(names[i])
            elif e > 1:
                factors.append(f"{names[i]}^{e}")
        mono = "*".join(factors)
        if not mono:
            body = format_rat(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{format_rat(abs(c))}*{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def _default_names(n):
    if n <= 3:
        return ("x", "y", "z")[:n]
    return tuple(f"x{i+1}" for i in range(n))


def ideal_to_string(a: MonomialIdeal, vars: VarTable | None = None) -> str:
    names = vars.names if vars is not None else _default_names(a.n)
    parts = []
    for v in a.sorted_gens():
        factors = [
            names[i] if e == 1 else f"{names[i]}^{e}"
            for i, e in enumerate(v)
            if e > 0
        ]
        parts.append("*".join(factors) if factors else "1")
    return ", ".join(parts)
