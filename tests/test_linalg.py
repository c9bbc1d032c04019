"""The elimination kernel and the face enumerator against independent routes:
cofactor determinants, residuals, transposes, known volumes and the
defining inequalities of every returned facet."""

import math
import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from singulact.linalg import nullspace, rank, solve_square
from singulact.newton import _faces, _hull_volume

F = Fraction


def random_matrix(rng, rows, cols):
    """Integer matrix, made rank-deficient about half the time as a product
    of a rows x k and a k x cols factor with k below min(rows, cols)."""
    if rng.random() < 0.5 and min(rows, cols) > 1:
        k = rng.randint(1, min(rows, cols) - 1)
        b = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rows)]
        c = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(k)]
        return [
            [sum(b[i][t] * c[t][j] for t in range(k)) for j in range(cols)]
            for i in range(rows)
        ]
    return [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]


def leibniz(a):
    n = len(a)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        total += (-1) ** inversions * math.prod(a[i][perm[i]] for i in range(n))
    return total


def transpose(a):
    return [list(col) for col in zip(*a)]


def value(u, x):
    return sum(F(a) * b for a, b in zip(u, x))


SEEDS = range(12)


@pytest.mark.parametrize("seed", SEEDS)
def test_nullspace_annihilates_and_has_complement_size(seed):
    rng = random.Random(100 + seed)
    for rows, cols in product(range(1, 6), range(1, 7)):
        a = random_matrix(rng, rows, cols)
        basis = nullspace(a)
        assert len(basis) == cols - rank(a)
        for vec in basis:
            assert all(value(row, vec) == 0 for row in a)
        if basis:
            assert rank(basis) == len(basis)


@pytest.mark.parametrize("seed", SEEDS)
def test_rank_of_transpose(seed):
    rng = random.Random(200 + seed)
    for rows, cols in product(range(1, 6), range(1, 7)):
        a = random_matrix(rng, rows, cols)
        assert rank(a) == rank(transpose(a)) <= min(rows, cols)


@pytest.mark.parametrize("seed", SEEDS)
def test_solve_square_exactly_when_nonsingular(seed):
    rng = random.Random(300 + seed)
    for n in range(1, 6):
        a = random_matrix(rng, n, n)
        b = [rng.randint(-5, 5) for _ in range(n)]
        x = solve_square(a, b)
        if leibniz(a) == 0:
            assert x is None
        else:
            assert [value(row, x) for row in a] == b


# -- face enumerator and hull volume -------------------------------------------


def box(sides):
    return [tuple(c) for c in product(*[(0, s) for s in sides])]


def corner_simplex(sides):
    d = len(sides)
    return [(0,) * d] + [
        tuple(s if j == i else 0 for j in range(d)) for i, s in enumerate(sides)
    ]


def with_interior(rng, corners, count):
    """The corners plus random convex combinations of them, shuffled."""
    pts = list(corners)
    for _ in range(count):
        w = [rng.randint(0, 4) for _ in corners]
        w[0] += 1
        total = sum(w)
        pts.append(
            tuple(
                sum(F(wi, total) * p[k] for wi, p in zip(w, corners))
                for k in range(len(corners[0]))
            )
        )
    rng.shuffle(pts)
    return pts


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_hull_volume_of_box_and_simplex(d, seed):
    rng = random.Random(400 + 10 * d + seed)
    sides = [rng.randint(1, 5) for _ in range(d)]
    assert _hull_volume(with_interior(rng, box(sides), 4), d) == math.prod(sides)
    simplex = with_interior(rng, corner_simplex(sides), 4)
    assert _hull_volume(simplex, d) == F(math.prod(sides), math.factorial(d))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_hull_volume_of_general_simplex(d, seed):
    rng = random.Random(500 + 10 * d + seed)
    while True:
        corners = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(d + 1)]
        edges = [[a - b for a, b in zip(p, corners[0])] for p in corners[1:]]
        volume = abs(F(leibniz(edges), math.factorial(d)))
        if volume:
            break
    assert _hull_volume(with_interior(rng, corners, 3), d) == volume


@pytest.mark.parametrize("seed", range(3))
def test_hull_volume_in_four_dimensions(seed):
    rng = random.Random(800 + seed)
    sides = [rng.randint(1, 4) for _ in range(4)]
    assert _hull_volume(with_interior(rng, box(sides), 1), 4) == math.prod(sides)
    simplex = with_interior(rng, corner_simplex(sides), 4)
    assert _hull_volume(simplex, 4) == F(math.prod(sides), 24)
    while True:
        corners = [tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(5)]
        edges = [[a - b for a, b in zip(p, corners[0])] for p in corners[1:]]
        volume = abs(F(leibniz(edges), 24))
        if volume:
            break
    assert _hull_volume(with_interior(rng, corners, 3), 4) == volume


def test_hull_volume_in_dimensions_zero_and_one():
    assert _hull_volume([], 0) == 0
    assert _hull_volume([()], 0) == 1
    assert _hull_volume([(3,)], 1) == 0
    assert _hull_volume([(2,), (2,), (2,)], 1) == 0
    assert _hull_volume([(F(1, 2),), (-3,), (1,)], 1) == 4


def unimodular(rng, d):
    """Integer matrix of determinant +-1: the identity under random
    elementary row operations, with a sign flip half the time."""
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(3 * d):
        i, j = rng.sample(range(d), 2)
        k = rng.choice((-2, -1, 1, 2))
        m[i] = [a + k * b for a, b in zip(m[i], m[j])]
    if rng.random() < 0.5:
        m[0] = [-x for x in m[0]]
    return m


def image(m, shift, pts):
    return [tuple(value(row, p) + t for row, t in zip(m, shift)) for p in pts]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_hull_volume_of_flat_point_sets(d):
    """Point sets spanning a hyperplane or a line, moved off the coordinate
    axes by a unimodular map and a translation, have volume 0."""
    rng = random.Random(900 + d)
    sides = [rng.randint(1, 4) for _ in range(d - 1)]
    flat = [p + (0,) for p in with_interior(rng, box(sides), 2)]
    direction = [rng.randint(-3, 3) for _ in range(d)]
    line = [tuple(t * x for x in direction) for t in (-2, F(1, 3), 1, 4)]
    for pts in (flat, line):
        m = unimodular(rng, d)
        shift = [rng.randint(-5, 5) for _ in range(d)]
        assert _hull_volume(image(m, shift, pts), d) == 0


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("seed", range(3))
def test_hull_volume_invariant_under_unimodular_maps(d, seed):
    rng = random.Random(1000 + 10 * d + seed)
    pts = list({tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d + 4)})
    m = unimodular(rng, d)
    assert abs(leibniz(m)) == 1
    shift = [rng.randint(-5, 5) for _ in range(d)]
    volume = _hull_volume(pts, d)
    assert volume > 0
    assert _hull_volume(image(m, shift, pts), d) == volume


def check_faces(points, rays, d):
    """Every returned facet is a valid, tight, full facet; returns them."""
    faces = _faces(points, rays, d)
    for u, c, tight in faces:
        assert next(abs(x) for x in u if x != 0) == 1
        assert all(value(u, p) >= c for p in points)
        assert all(value(u, r) >= 0 for r in rays)
        assert tight == tuple(i for i, p in enumerate(points) if value(u, p) == c)
        span = [[a - b for a, b in zip(points[i], points[tight[0]])] for i in tight]
        span += [list(r) for r in rays if value(u, r) == 0]
        assert rank(span) == d - 1
    return faces


@pytest.mark.parametrize("d", [2, 3])
def test_faces_of_box_and_simplex(d):
    rng = random.Random(600 + d)
    sides = [rng.randint(1, 5) for _ in range(d)]
    faces = check_faces(with_interior(rng, box(sides), 5), (), d)
    assert len(faces) == 2 * d
    # Half of the box normals point down a coordinate axis.
    assert sum(1 for u, _, _ in faces if min(u) < 0) == d
    faces = check_faces(with_interior(rng, corner_simplex(sides), 5), (), d)
    assert len(faces) == d + 1


@pytest.mark.parametrize("seed", range(10))
def test_faces_random_polytopes_and_polyhedra(seed):
    rng = random.Random(700 + seed)
    for d in (2, 3):
        pts = list({tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(7)})
        check_faces(pts, (), d)
        unit = [tuple(int(j == i) for j in range(d)) for i in range(d)]
        nonneg = [tuple(abs(x) for x in p) for p in pts]
        faces = check_faces(nonneg, unit, d)
        assert all(min(u) >= 0 for u, _, _ in faces)
