"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
"""

import random
import sys
from fractions import Fraction
from functools import wraps
from itertools import product

from singulact import (
    MonomialIdeal,
    Poly,
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
    is_zero_dimensional,
    known_values,
    lct_monomial,
    lct_monomial_dual,
    maximal_ideal_power,
    milnor,
    multiplicity,
)
from singulact.cli import random_zero_dim_ideal
from singulact.invariants import registry_question1

F = Fraction


def verdict(label):
    """Print one PASS/FAIL line per criterion, whatever happens inside.

    Written to the real stdout so the lines survive pytest's capture.
    """

    def deco(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"{label}: FAIL", file=sys.__stdout__)
                raise
            print(f"{label}: PASS", file=sys.__stdout__)

        return wrapper

    return deco


def diagonal(exps):
    n = len(exps)
    return Poly(
        n, {tuple(e if j == i else 0 for j in range(n)): 1 for i, e in enumerate(exps)}
    )


def pure_power(n, d):
    return Poly(n, {tuple(d if j == 0 else 0 for j in range(n)): 1})


def _corpus_ideals():
    """Ideals exercised by criteria 1-4, reused for the dual cross-check."""
    ideals = []
    for n in (1, 2, 3):
        for d in (2, 3, 4):
            f = diagonal((d,) * n)
            from singulact.ideals import monomialize
            from singulact.poly import jacobian_generators

            ideals.append(monomialize(jacobian_generators(f)))
        ideals.append(maximal_ideal_power(n, 2))
    ideals.append(MonomialIdeal(2, [(2, 0), (0, 3)]))
    ideals.append(MonomialIdeal(2, [(2, 0), (1, 1), (0, 3)]))
    return ideals


@verdict("criterion 1 (pure power beta)")
def test_criterion_1_pure_power_beta():
    for n in range(1, 5):
        for d in range(2, 7):
            got = beta(pure_power(n, d)).value
            want = min(F(1, d - 1), F(n, d))
            assert got == want, (n, d, got, want)


@verdict("criterion 2 (planar monomial beta)")
def test_criterion_2_planar_monomial_beta():
    for a in range(1, 8):
        for b in range(1, a + 1):
            if a < 2:
                continue
            f = Poly(2, {(a, b): 1})
            got = beta(f).value
            want = min(F(1, a - 1), F(2, a + b))
            assert got == want, (a, b, got, want)


@verdict("criterion 3 (diagonal cones)")
def test_criterion_3_cones():
    for n in range(2, 5):
        for d in range(2, 7):
            f = diagonal((d,) * n)
            b = beta(f).value
            assert b == F(n, d)
            a = alpha(f).value
            assert a == F(n, d)
            q = check_question1(f)
            assert q.holds is True and q.equality
            assert milnor(f).value == (d - 1) ** n
            mb = check_milnor_bound(f)
            assert mb.holds is True and mb.equality, (n, d)


@verdict("criterion 4 (diagonal sweep)")
def test_criterion_4_diagonal_sweep():
    for n in (2, 3):
        for exps in product(range(2, 7), repeat=n):
            f = diagonal(exps)
            assert alpha(f).value == sum(F(1, e) for e in exps)
            assert check_question1(f).holds is True


@verdict("criterion 5 (primal/dual lct agreement)")
def test_criterion_5_lct_dual_agreement():
    # lct_monomial_dual recomputes via the facet minimum and raises an
    # internal invariant error on any disagreement with the direct value.
    for a in _corpus_ideals():
        lct_monomial_dual(a)
    rng = random.Random(2024)
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
        lct_monomial_dual(MonomialIdeal(n, gens))
        count += 1
    assert count == 200


@verdict("criterion 6 (multiplicities)")
def test_criterion_6_multiplicities():
    for n in (1, 2, 3):
        for k in range(1, 6):
            assert multiplicity(maximal_ideal_power(n, k)) == k**n
    for a in range(2, 6):
        for b in range(2, 6):
            ideal = MonomialIdeal(2, [(a - 1, 0), (0, b - 1)])
            e = multiplicity(ideal)
            assert e == (a - 1) * (b - 1)
            assert e == milnor(diagonal((a, b))).value


@verdict("criterion 7 (dfem and minkowski)")
def test_criterion_7_dfem_minkowski():
    for a in _corpus_ideals():
        if is_zero_dimensional(a):
            assert check_dfem(a).holds is True
    indeterminate = 0
    total = 0
    for n in (2, 3):
        rng = random.Random(100 + n)
        for _ in range(30):
            a = random_zero_dim_ideal(rng, n)
            b = random_zero_dim_ideal(rng, n)
            c = check_minkowski(a, b)
            assert c.holds is not False, (a.gens, b.gens)
            if c.holds == "indeterminate":
                indeterminate += 1
            total += 1
    assert total >= 50
    assert indeterminate * 20 <= total, f"{indeterminate}/{total} indeterminate"


@verdict("criterion 8 (restriction and deformation)")
def test_criterion_8_restriction_madic():
    for exps in product(range(2, 6), repeat=3):
        f = diagonal(exps)
        for axis in range(3):
            assert check_restriction(f, axis).holds is True, (exps, axis)
    for a, b in product(range(2, 6), repeat=2):
        for a2, b2 in product(range(2, 6), repeat=2):
            if (a2, b2) == (a, b):
                continue
            if a2 != a and b2 != b:
                continue
            c = check_madic(diagonal((a, b)), diagonal((a2, b2)))
            assert c.holds is True, (a, b, a2, b2)


@verdict("criterion 9 (threshold comparison pairs)")
def test_criterion_9_alpha_le_lct_pairs():
    pairs = [(diagonal((2, 3)), MonomialIdeal(2, [(1, 0), (0, 2)]))]
    # diagonals f = x^a + y^b sit inside m * (x^(a-1), y^(b-1))
    for a, b in [(2, 2), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5), (4, 4), (4, 5),
                 (5, 5), (2, 6), (3, 6), (4, 6), (6, 6)]:
        pairs.append((diagonal((a, b)), MonomialIdeal(2, [(a - 1, 0), (0, b - 1)])))
    for exps in [(2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3), (2, 3, 4), (2, 2, 5)]:
        gens = [
            tuple(e - 1 if j == i else 0 for j in range(3))
            for i, e in enumerate(exps)
        ]
        pairs.append((diagonal(exps), MonomialIdeal(3, gens)))
    assert len(pairs) == 20
    for f, a in pairs:
        c = check_thm_alpha_le_lct(f, a)  # raises unless f is in m*a
        assert c.holds is True
        assert c.lhs == alpha(f).value
        assert c.rhs == lct_monomial(a).value


@verdict("criterion 10 (registry)")
def test_criterion_10_registry():
    entries = {(kv.description, kv.invariant): kv.value for kv in known_values()}
    assert entries[("det generic matrix", "beta")] == 4
    assert entries[("det generic matrix", "alpha")] == 2
    c = registry_question1()
    assert c.holds is True
    assert (c.lhs, c.rhs) == (2, 4)
