"""Exact arithmetic in Z[sqrt(2)] and the scaled bilinear form of the
geometric representation of the rank-3 Coxeter group with all m = 4.

A scalar a + b*sqrt(2) is a plain int pair (a, b).  Root vectors are
3-tuples of such pairs over the simple basis (e_r, e_s, e_t).  All form
values use B' = 2*B, so the Gram matrix is 2 on the diagonal and -sqrt(2)
off it; with that scaling every reflection image of an integer vector
stays in Z[sqrt(2)]^3 and no fractions ever appear.

Summing the Gram matrix entry by entry gives the closed form

    B'(u, v) = 2S - sqrt(2)*(sum(u)*sum(v) - S),   S = sum of u_i*v_i,

which form() evaluates on the int pairs directly.  With v = e_i it reads
B'(u, e_i) = 2u_i - sqrt(2)*(the sum of the other two coordinates), so a
reflection needs only additions.
"""

from __future__ import annotations

ZERO = (0, 0)
ONE = (1, 0)
SQRT2 = (0, 1)

Scalar = tuple[int, int]
Vector = tuple[Scalar, Scalar, Scalar]


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


def vsub(u: Vector, v: Vector) -> Vector:
    return (sub(u[0], v[0]), sub(u[1], v[1]), sub(u[2], v[2]))


def vneg(u: Vector) -> Vector:
    return (neg(u[0]), neg(u[1]), neg(u[2]))


def vscale(c: Scalar, u: Vector) -> Vector:
    return (mul(c, u[0]), mul(c, u[1]), mul(c, u[2]))


def vsum(u: Vector) -> Scalar:
    """The sum of u's coordinates; B'(u, (-1, -1, -1)) = (2*sqrt(2) - 2)*vsum(u)."""
    (a0, b0), (a1, b1), (a2, b2) = u
    return (a0 + a1 + a2, b0 + b1 + b2)


def form(u: Vector, v: Vector) -> Scalar:
    """B'(u, v) = 2*B(u, v) = 2S - sqrt(2)*T, exact in Z[sqrt(2)]:
    S = s0 + s1*sqrt(2) is the sum of the u_i*v_i, T = t0 + t1*sqrt(2) is
    sum(u)*sum(v) - S, and sqrt(2)*T = 2*t1 + t0*sqrt(2)."""
    (a0, b0), (a1, b1), (a2, b2) = u
    (c0, d0), (c1, d1), (c2, d2) = v
    s0 = a0 * c0 + a1 * c1 + a2 * c2 + 2 * (b0 * d0 + b1 * d1 + b2 * d2)
    s1 = a0 * d0 + a1 * d1 + a2 * d2 + b0 * c0 + b1 * c1 + b2 * c2
    p0, p1, q0, q1 = a0 + a1 + a2, b0 + b1 + b2, c0 + c1 + c2, d0 + d1 + d2
    t0 = p0 * q0 + 2 * p1 * q1 - s0
    t1 = p0 * q1 + p1 * q0 - s1
    return (2 * s0 - 2 * t1, 2 * s1 - t0)


def basis(i: int) -> Vector:
    e = [ZERO, ZERO, ZERO]
    e[i] = ONE
    return (e[0], e[1], e[2])


def reflect(i: int, v: Vector) -> Vector:
    """Image of v under the simple reflection fixing e_i-perp.

    rho_i(v) = v - B'(v, e_i) e_i with B'(v, e_i) = 2v_i - sqrt(2)*(p + q*sqrt(2)),
    p + q*sqrt(2) the sum of the other two coordinates; so the new
    coordinate i is (2q - a) + (p - b)*sqrt(2) for v_i = a + b*sqrt(2).
    """
    (a, b), (c, d), (e, f) = v[i], v[i - 1], v[i - 2]
    return v[:i] + ((2 * (d + f) - a, c + e - b),) + v[i + 1:]


def vector_sign(v: Vector) -> int:
    """+1 if all coordinates >= 0 (not all zero), -1 if all <= 0, else 0.

    Every root vector of the geometric representation is one or the other.
    """
    x, y, z = sign(v[0]), sign(v[1]), sign(v[2])
    if x >= 0 and y >= 0 and z >= 0:
        return 1 if x or y or z else 0
    if x <= 0 and y <= 0 and z <= 0:
        return -1
    return 0
