"""The closed-form Z[sqrt 2] kernel against the Gram matrix summed entry
by entry: 2 on the diagonal, -sqrt(2) off it."""

import itertools
import random

import pytest

from coxkit import zroot2
from coxkit.roots import RootSystem


def _gram_form(u, v):
    """B'(u, v) as the double sum of G[i][j] * u_i * v_j, with its own
    Z[sqrt 2] products."""
    a = b = 0
    for i, (p, q) in enumerate(u):
        for j, (r, s) in enumerate(v):
            x, y = p * r + 2 * q * s, p * s + q * r   # u_i * v_j
            if i == j:
                a, b = a + 2 * x, b + 2 * y
            else:   # -sqrt(2) * (x + y*sqrt(2)) = -2y - x*sqrt(2)
                a, b = a - 2 * y, b - x
    return (a, b)


def _unit(i):
    return tuple((1, 0) if j == i else (0, 0) for j in range(3))


def _reflect_by_gram(i, v):
    c = _gram_form(v, _unit(i))
    return tuple((x - c[0], y - c[1]) if j == i else (x, y)
                 for j, (x, y) in enumerate(v))


@pytest.fixture(scope="module")
def root_vectors(ctx):
    rs = RootSystem(ctx)
    roots = {rs.root_from(v, g) for v in ctx.ball(6) for g in "rst"}
    return sorted({rs.vector(a) for a in roots})


@pytest.fixture(scope="module")
def arbitrary_vectors():
    rng = random.Random(20)
    return [tuple((rng.randint(-60, 60), rng.randint(-60, 60)) for _ in range(3))
            for _ in range(150)]


def test_form_matches_the_gram_sum_on_root_vectors(root_vectors):
    assert len(root_vectors) > 50
    for u in root_vectors:
        for v in root_vectors:
            assert zroot2.form(u, v) == _gram_form(u, v), (u, v)


def test_form_matches_the_gram_sum_on_arbitrary_vectors(arbitrary_vectors):
    for u in arbitrary_vectors:
        for v in arbitrary_vectors:
            assert zroot2.form(u, v) == _gram_form(u, v), (u, v)


def test_reflect_is_the_gram_reflection_and_an_involution(root_vectors,
                                                           arbitrary_vectors):
    for v in root_vectors + arbitrary_vectors:
        for i in range(3):
            image = zroot2.reflect(i, v)
            assert image == _reflect_by_gram(i, v), (i, v)
            assert zroot2.reflect(i, image) == v


def _vector_sign_by_lists(v):
    """The list-and-generator definition of vector_sign, kept as its oracle."""
    signs = [zroot2.sign(c) for c in v]
    if all(s >= 0 for s in signs) and any(s > 0 for s in signs):
        return 1
    if all(s <= 0 for s in signs) and any(s < 0 for s in signs):
        return -1
    return 0


# per sign, scalars of that sign, mixed-sign pairs among them
SCALARS_BY_SIGN = {1: [(1, 0), (0, 1), (3, -2), (-1, 1)],
                   -1: [(-1, 0), (0, -1), (1, -1), (-3, 2)],
                   0: [(0, 0)]}


def test_vector_sign_matches_the_list_definition_on_every_sign_triple():
    assert all(zroot2.sign(x) == sgn
               for sgn, xs in SCALARS_BY_SIGN.items() for x in xs)
    checked = 0
    for signs in itertools.product((-1, 0, 1), repeat=3):
        want = (1 if min(signs) >= 0 and max(signs) > 0 else
                -1 if max(signs) <= 0 and min(signs) < 0 else 0)
        for v in itertools.product(*(SCALARS_BY_SIGN[s] for s in signs)):
            assert zroot2.vector_sign(v) == _vector_sign_by_lists(v) == want, v
            checked += 1
    assert checked == (4 + 4 + 1) ** 3
