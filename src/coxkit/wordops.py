"""Word kernels: braid-move closure and collection.

The braid-move closure is Tits' solution to the word problem in W; the
Coxeter kernel computes products without it and uses it as the
cross-check of every element it enumerates (Coxeter.reduced_words).

Both operate on plain data (str words, int letter sequences, int
bitmasks).  Collection's one use in the program is the pair products
u_k * u_j from which coxkit.blueprint grows each new generator row; the
group's products and inverses are read off those rows.

Collection commutator tables are passed flattened and triangular:
``comm[(j*(j-1)//2 + i)*3]`` is the number of inserted letters (0..2)
for the ordered pair i < j and the next two bytes are the letters
themselves, so the pairs of the first k-1 letters come first.

Termination of collection.  Let I_a count the inversions of the word
whose left (larger) letter is a, and order words by the measure
(I_{k-1}, ..., I_1, length) lexicographically; the measures lie in a
well-ordered set, so no sequence of strictly decreasing steps is
infinite.  Every step rewrites the leftmost violation: the letters
before it increase strictly, so each is smaller than its left letter a.
Cancelling an equal pair a a removes two letters and adds no inversion,
so no I grows and the length falls.  Rewriting a b with b < a into
b m... a, with every m strictly between b and a, removes the inversion
(a, b) and adds only inversions whose left letter is below a: a letter
before the pair is below a, and a new letter m is below a.  No I_c with
c > a changes and I_a falls by one.  So each step strictly decreases the
measure, and collection terminates.  The one hypothesis, b < m < a for
every inserted letter, is checked at every insertion and raises
CollectionOrderError when it fails; it is a raise, so ``python -O``
keeps it.
"""

from __future__ import annotations


class CollectionOrderError(ValueError):
    """An inserted commutator letter was not strictly between the swapped pair."""


def braid_closure(word: str) -> frozenset[str]:
    """All words reachable from ``word`` by braid moves abab <-> baba.

    For a reduced input this is the full set of reduced expressions of the
    element (Tits' word theorem; every m equals 4 here).
    """
    seen = {word}
    stack = [word]
    while stack:
        w = stack.pop()
        n = len(w)
        for i in range(n - 3):
            a = w[i]
            b = w[i + 1]
            if a != b and w[i + 2] == a and w[i + 3] == b:
                v = w[:i] + b + a + b + a + w[i + 4:]
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
    return frozenset(seen)


def _collect(word: list[int], comm: bytes) -> int:
    # the loop behind collect_seq and collect_mul, shared
    # privately so that wrapping one public name (as a tracer does) never
    # sees calls made through another; rewrites ``word`` in place
    while True:
        n = len(word)
        pos = -1
        for i in range(n - 1):
            if word[i] >= word[i + 1]:
                pos = i
                break
        if pos < 0:
            break
        a = word[pos]
        b = word[pos + 1]
        if a == b:
            del word[pos:pos + 2]
        else:
            base = (a * (a - 1) // 2 + b) * 3
            cnt = comm[base]
            mid = [comm[base + 1 + t] for t in range(cnt)]
            for m in mid:
                if not (b < m < a):
                    raise CollectionOrderError(
                        f"insertion {m} not strictly between {b} and {a}")
            word[pos:pos + 2] = [b, *mid, a]
    mask = 0
    for a in word:
        mask |= 1 << a
    return mask


def collect_seq(seq, comm: bytes) -> int:
    """Normal-form bitmask of a product of involutive generators.

    Letters are generator indices, ordered by the crossing order of the
    underlying gallery.  Rules: adjacent equal letters cancel; an
    adjacent descent (j, i) with j > i rewrites to (i, m..., j) where m is
    the commutator insertion for the pair (i, j).  The leftmost violation
    is always rewritten first, which makes the module's termination
    measure strictly decrease.
    """
    return _collect(list(seq), comm)


def _mask_letters(mask: int, k: int) -> list[int]:
    return [i for i in range(k) if mask >> i & 1]


def collect_mul(x: int, y: int, k: int, comm: bytes) -> int:
    """Product of two normal-form masks."""
    return _collect(_mask_letters(x, k) + _mask_letters(y, k), comm)
