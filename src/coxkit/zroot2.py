"""Exact arithmetic in Z[sqrt(2)] and the scaled bilinear form of the
geometric representation of the rank-3 Coxeter group with all m = 4.

A scalar a + b*sqrt(2) is a plain int pair (a, b).  Root vectors are
3-tuples of such pairs over the simple basis (e_r, e_s, e_t).  All form
values use B' = 2*B, so the Gram matrix is 2 on the diagonal and -sqrt(2)
off it; with that scaling every reflection image of an integer vector
stays in Z[sqrt(2)]^3 and no fractions ever appear.
"""

from __future__ import annotations

ZERO = (0, 0)
ONE = (1, 0)
SQRT2 = (0, 1)

Scalar = tuple[int, int]
Vector = tuple[Scalar, Scalar, Scalar]


def add(x: Scalar, y: Scalar) -> Scalar:
    return (x[0] + y[0], x[1] + y[1])


def sub(x: Scalar, y: Scalar) -> Scalar:
    return (x[0] - y[0], x[1] - y[1])


def neg(x: Scalar) -> Scalar:
    return (-x[0], -x[1])


def mul(x: Scalar, y: Scalar) -> Scalar:
    a, b = x
    c, d = y
    return (a * c + 2 * b * d, a * d + b * c)


def sign(x: Scalar) -> int:
    """Exact sign of a + b*sqrt(2)."""
    a, b = x
    if a == 0 and b == 0:
        return 0
    if a >= 0 and b >= 0:
        return 1
    if a <= 0 and b <= 0:
        return -1
    # mixed signs: compare a^2 with 2 b^2
    if a > 0:  # b < 0
        return 1 if a * a > 2 * b * b else (-1 if a * a < 2 * b * b else 0)
    return -1 if a * a > 2 * b * b else (1 if a * a < 2 * b * b else 0)


def is_zero(x: Scalar) -> bool:
    return x == ZERO


def vsub(u: Vector, v: Vector) -> Vector:
    return (sub(u[0], v[0]), sub(u[1], v[1]), sub(u[2], v[2]))


def vneg(u: Vector) -> Vector:
    return (neg(u[0]), neg(u[1]), neg(u[2]))


def vscale(c: Scalar, u: Vector) -> Vector:
    return (mul(c, u[0]), mul(c, u[1]), mul(c, u[2]))


# B'(e_i, e_j): 2 on the diagonal, -sqrt(2) off it.
_DIAG = (2, 0)
_OFF = (0, -1)


def form(u: Vector, v: Vector) -> Scalar:
    """B'(u, v) = 2*B(u, v), exact in Z[sqrt(2)]."""
    total = ZERO
    for i in range(3):
        for j in range(3):
            g = _DIAG if i == j else _OFF
            total = add(total, mul(g, mul(u[i], v[j])))
    return total


def basis(i: int) -> Vector:
    e = [ZERO, ZERO, ZERO]
    e[i] = ONE
    return (e[0], e[1], e[2])


def reflect(i: int, v: Vector) -> Vector:
    """Image of v under the simple reflection fixing e_i-perp.

    rho_i(v) = v - 2B(v, e_i) e_i = v - B'(v, e_i) e_i.
    """
    c = form(v, basis(i))
    out = list(v)
    out[i] = sub(out[i], c)
    return (out[0], out[1], out[2])


def vector_sign(v: Vector) -> int:
    """+1 if all coordinates >= 0 (not all zero), -1 if all <= 0, else 0.

    Every root vector of the geometric representation is one or the other.
    """
    signs = [sign(c) for c in v]
    if all(s >= 0 for s in signs) and any(s > 0 for s in signs):
        return 1
    if all(s <= 0 for s in signs) and any(s < 0 for s in signs):
        return -1
    return 0
