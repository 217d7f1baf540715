"""Growth series of the (4,4,4) Coxeter group, from Steinberg's formula.

For a Coxeter system (W, S), Steinberg's formula sums over the subsets J
of S that generate a finite group W_J (R. Steinberg, *Endomorphisms of
linear algebraic groups*, Mem. AMS 80, 1968):

    1/W(t) = sum over spherical J of (-1)^|J| t^N_J / W_J(t),

where W(t) is the growth series (the coefficient of t^n counts the
elements of length n) and N_J is the length of the longest element of
W_J.  In type (4,4,4) the spherical subsets are the empty set, the three
generators (W_J = 1+t, N_J = 1) and the three pairs (dihedral of order 8,
W_J = Q = (1+t)(1+t+t^2+t^3), N_J = 4), so

    1/W(t) = 1 - 3t/(1+t) + 3t^4/Q = P/Q,  P = 1 - t - t^2 - t^3 + t^4,

and W(t) = Q/P.  The coefficients follow from Q = P W(t) by an integer
recurrence.  The module shares no code with the word-problem solver in
coxkit.coxeter, so it can serve as that solver's ball oracle.
"""

from __future__ import annotations

# coefficients of t^0, t^1, ... in the numerator and denominator of W(t)
Q = (1, 2, 2, 2, 1)
P = (1, -1, -1, -1, 1)


def sphere_sizes(radius: int) -> list[int]:
    """a_0, ..., a_radius: the number of elements of each length."""
    a: list[int] = []
    for n in range(radius + 1):
        # P[0] = 1, so a_n = q_n - sum_{k >= 1} p_k a_{n-k}
        v = Q[n] if n < len(Q) else 0
        for k in range(1, min(n, len(P) - 1) + 1):
            v -= P[k] * a[n - k]
        a.append(v)
    return a


def ball_size(radius: int) -> int:
    """The number of elements of length at most radius."""
    return sum(sphere_sizes(radius))
