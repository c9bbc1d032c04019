"""Tests of the benchmark's own reference routines and checks.

    python3 -m pytest bench -q

The reference routines are tested against closed forms and against each
other, never against the program.  The checks are tested on real answers of
the program: each passes as given and fails once a value is changed.
"""

from __future__ import annotations

import io
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement, product
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import METRICS  # noqa: E402

F = Fraction


def m_power(n, d):
    return [v for v in product(range(d + 1), repeat=n) if sum(v) == d]


def random_ideal(rng, n, top=4, mixed=2):
    return workloads.zero_dim_ideal(rng, n, top, mixed)


# -- reference routines ---------------------------------------------------------


def test_threshold_closed_forms():
    assert ref.lct([(2, 0), (0, 3)]) == F(5, 6)
    assert ref.lct([(3, 5)]) == F(1, 5)
    assert ref.lct([(4,)]) == F(1, 4)
    for n, d in ((2, 3), (3, 2), (4, 2)):
        assert ref.lct(m_power(n, d)) == F(n, d)
    for p in ((2, 3, 4), (1, 5, 7, 2)):
        gens = [workloads.pure(len(p), i, e) for i, e in enumerate(p)]
        assert ref.lct(gens) == sum(F(1, e) for e in p)


def beta_brieskorn_closed(exps):
    """1/t* with t* = max {s + w : sum_i max(s, w / b_i) <= 1}, b = a - 1:
    the support function of Newton(m * J) is min_i mu_i + min_i b_i mu_i, so
    t* is a two-variable LP whose vertices lie on the axes and on the rays
    w = b_k s."""
    b = [a - 1 for a in exps]
    n = len(b)
    best = max(F(1, n), 1 / sum(F(1, x) for x in b))
    for bk in b:
        s = 1 / sum(max(F(1), F(bk, x)) for x in b)
        best = max(best, s * (1 + bk))
    return 1 / best


def test_beta_matches_two_variable_lp():
    for n in (2, 3, 4):
        for exps in combinations_with_replacement(range(2, 8), n):
            assert workloads.beta_of(workloads.pure_jacobian(exps), n) == \
                beta_brieskorn_closed(exps), exps


def test_threshold_is_permutation_invariant():
    rng = random.Random(3)
    for _ in range(30):
        gens = random_ideal(rng, 3, mixed=3)
        perm = [tuple(g[i] for i in (2, 0, 1)) for g in gens]
        assert ref.lct(gens) == ref.lct(perm)


def test_pruning_keeps_the_polyhedron():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 4)
        gens = random_ideal(rng, n, mixed=3)
        kept = ref.prune_generators(gens)
        assert set(ref.vertices(gens, n, ref.facets(gens, n))) <= set(kept)


def test_multiplicity_routes_agree():
    rng = random.Random(7)
    assert ref.mult_n2([(4, 0), (0, 4), (2, 3)]) == 16  # (2, 3) lies above the chord
    for _ in range(30):
        a = random_ideal(rng, 2)
        assert ref.mult_by_counting(a, 2, points=5) == ref.mult_n2(a)
    for p in ((1, 2, 3), (2, 2, 4)):
        gens = [workloads.pure(3, i, e) for i, e in enumerate(p)]
        assert ref.mult_by_counting(gens, 3, points=5) == p[0] * p[1] * p[2]
    for d in (1, 2, 3):
        assert ref.mult_by_counting(m_power(3, d), 3, points=5) == d**3


def test_multiplicity_properties_n3():
    rng = random.Random(11)
    for _ in range(10):
        a, b = random_ideal(rng, 3), random_ideal(rng, 3)
        e_a, e_b = ref.mult_by_counting(a, 3), ref.mult_by_counting(b, 3)
        e_ab = ref.mult_by_counting(ref.ideal_product(a, b), 3, points=5)
        assert e_ab >= e_a + e_b
        lo_ab, _ = ref.root_bracket(e_ab, 3, 80)
        _, hi_a = ref.root_bracket(e_a, 3, 80)
        _, hi_b = ref.root_bracket(e_b, 3, 80)
        assert lo_ab <= hi_a + hi_b  # Minkowski
        for gens, e in ((a, e_a), (b, e_b)):
            workloads.multiplicity_bounds(workloads.key(gens), 3, e)


def test_facets_of_pure_powers():
    gens = [(2, 0, 0), (0, 3, 0), (0, 0, 6)]
    assert ref.facets(gens, 3) == [((0, 0, 1), 0), ((0, 1, 0), 0), ((1, 0, 0), 0),
                                   ((3, 2, 1), 6)]
    assert sorted(ref.vertices(gens, 3, ref.facets(gens, 3))) == sorted(gens)


def test_roots():
    for x in (0, 1, 2, 26, 27, 10**30 + 7):
        for n in (2, 3, 4):
            r = ref.iroot(x, n)
            assert r**n <= x < (r + 1) ** n
    lo, hi = ref.root_bracket(2, 2, 40)
    assert lo**2 < 2 < hi**2 and hi - lo == F(1, 2**40)
    assert ref.exact_root_ratio(8, 27, 3) == (2, 3)
    assert ref.exact_root_ratio(2, 1, 2) is None


# -- generators ---------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_rounds_are_seeded(workload):
    def first(seed):
        rounds = workloads.rounds(workload, seed)
        return [[r.argv for r in next(rounds)] for _ in range(3)]
    assert first(4) == first(4)
    assert first(4) != first(5)
    assert len({len(batch) for batch in first(4)}) == 1


def test_mult_pairs_never_repeats_an_ideal():
    rounds = workloads.rounds("mult-pairs", 2)
    seen = []
    for _ in range(16):
        for req in next(rounds):
            seen += [a for flag, a in zip(req.argv, req.argv[1:])
                     if flag in ("--ideal", "--ideal2")]
    assert len(seen) == len(set(seen))


# -- checks on real answers -------------------------------------------------------


def answers(workload, seed=1):
    """One round of the workload, answered in process."""
    sys.path.insert(0, str(BENCH.parent / "src"))
    from singulact import cli

    out = []
    for req in next(workloads.rounds(workload, seed)):
        buf = io.StringIO()
        code = cli.run(req.argv, buf, io.StringIO())
        out.append((req, code, buf.getvalue()))
    return out


def tampered(text):
    """The same answer with one value changed."""
    d = json.loads(text)
    if "value" in d:
        d["value"] = str(F(d["value"]) + 1)
    elif "lhs" in d:
        d["lhs"] = str(F(d["lhs"]) + F(1, 3))
    elif "facets" in d:
        d["facets"] = d["facets"][1:]
    else:
        d["entries"][1]["value"] = "3"
    return json.dumps(d)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_checks_accept_answers_and_reject_changed_values(workload):
    for req, code, out in answers(workload):
        req.check(code, out)
        with pytest.raises(workloads.Mismatch):
            req.check(code, tampered(out))
        with pytest.raises(workloads.Mismatch):
            req.check(1 if code == 0 else 0, out)


def test_run_reports_a_changed_value():
    records = [[code, out, 0.001, ""] for _, code, out in answers("request-mix")]
    assert run.verify("request-mix", 1, records)[:2] == ([], [])
    records[5][1] = tampered(records[5][1])
    failures, mismatches, _ = run.verify("request-mix", 1, records)
    assert not failures and len(mismatches) == 1
    records[6][0] = 2
    failures, _, _ = run.verify("request-mix", 1, records)
    assert len(failures) == 1


# -- whole runs ---------------------------------------------------------------------


def test_traced_run_prints_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "request-mix",
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=170, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(name for name, _, _ in METRICS)
    trace = lines[-3]
    traced = float(trace.split(", traced ")[1].split()[0])
    overhead = float(trace.split("overhead ")[1].split()[0])
    layer_sum = float(trace.split("sum to ")[1].split()[0])
    # The root wrapper's own entry and exit cost a few microseconds per request.
    assert abs(traced - layer_sum) <= abs(overhead) + 0.02


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "request-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
