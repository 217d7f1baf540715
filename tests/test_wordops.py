import random

import pytest

from coxkit import wordops
from coxkit.wordops import CollectionOrderError


def test_braid_closure_dihedral():
    assert wordops.braid_closure("stst") == frozenset({"stst", "tsts"})
    assert wordops.braid_closure("st") == frozenset({"st"})
    assert wordops.braid_closure("") == frozenset({""})


def test_braid_closure_rank3():
    closure = wordops.braid_closure("rst")
    assert closure == frozenset({"rst"})
    # one move deep inside a longer word
    assert "tstsr" in wordops.braid_closure("ststr")


def entry(i: int, j: int) -> int:
    """The offset of the pair i < j in a triangular commutator table."""
    return (j * (j - 1) // 2 + i) * 3


# the table of four generators, 4*3/2 pairs of three bytes
NOCOMM = bytes(3 * 6)


def test_collect_cancellation():
    assert wordops.collect_seq([0, 0], NOCOMM) == 0
    assert wordops.collect_seq([1, 0, 0, 1], NOCOMM) == 0
    assert wordops.collect_seq([2, 1], NOCOMM) == 0b110


def test_collect_insertion():
    # [u1, u4] = u2 u3 in a 4-generator table
    comm = bytearray(NOCOMM)
    base = entry(0, 3)
    comm[base] = 2
    comm[base + 1] = 1
    comm[base + 2] = 2
    comm = bytes(comm)
    assert wordops.collect_seq([3, 0], comm) == 0b1111
    assert wordops.collect_seq([0, 3], comm) == 0b1001
    # involution squares away
    x = wordops.collect_seq([3, 0, 3, 0], comm)
    assert wordops.collect_seq(
        [i for i in range(4) if x >> i & 1] * 2, comm) == 0


def test_collect_order_violation():
    comm = bytearray(NOCOMM)
    base = entry(0, 1)
    comm[base] = 1
    comm[base + 1] = 3   # not strictly between 0 and 1
    with pytest.raises(CollectionOrderError):
        wordops.collect_seq([1, 0], bytes(comm))


def measure(word: list, k: int) -> tuple:
    """The termination measure of wordops: (I_{k-1}, ..., I_1, length),
    with I_a the number of inversions whose left (larger) letter is a."""
    inv = [0] * k
    for p, a in enumerate(word):
        inv[a] += sum(1 for b in word[p + 1:] if b < a)
    return tuple(inv[k - 1:0:-1]) + (len(word),)


def collect_checked(seq, k: int, comm: bytes) -> int:
    """The collection loop of wordops, rewriting the leftmost violation
    first, with the termination measure checked to fall at every step."""
    word = list(seq)
    prev = measure(word, k)
    while True:
        pos = next((i for i in range(len(word) - 1) if word[i] >= word[i + 1]),
                   None)
        if pos is None:
            return sum(1 << a for a in word)
        a, b = word[pos], word[pos + 1]
        base = entry(b, a)
        word[pos:pos + 2] = [] if a == b else \
            [b, *comm[base + 1:base + 1 + comm[base]], a]
        cur = measure(word, k)
        assert cur < prev, (prev, cur)
        prev = cur


def letters(mask: int, k: int) -> list:
    return [i for i in range(k) if mask >> i & 1]


def test_collect_measure_assertions():
    comm = bytearray(NOCOMM)
    base = entry(0, 3)
    comm[base] = 2
    comm[base + 1] = 1
    comm[base + 2] = 2
    comm = bytes(comm)
    rng = random.Random(1)
    for _ in range(300):
        seq = [rng.randrange(4) for _ in range(rng.randint(0, 10))]
        assert wordops.collect_seq(seq, comm) == collect_checked(seq, 4, comm)
    for x in range(16):
        for y in range(16):
            assert wordops.collect_mul(x, y, 4, comm) \
                == collect_checked(letters(x, 4) + letters(y, 4), 4, comm)


def test_collect_measure_falls_on_the_report_groups(ctx, cache):
    # every pair product u_top * u_j the generator rows of the ball(7)
    # groups are grown from
    for w in ctx.ball(7)[1:]:
        g = cache.group(w)
        k, top = g.k, g.k - 1
        for j in range(top):
            z = wordops.collect_mul(1 << top, 1 << j, k, g._comm)
            assert z == collect_checked([top, j], k, g._comm), (w, j)
    # every element of U_stsr is an involution, so U_stst, which is not
    # abelian, is the one that tells x^-1 from x
    for g in (cache.group("stsr"), cache.group("stst")):
        for x in g.elements():
            assert g.inv(x) == collect_checked(letters(x, g.k)[::-1], g.k, g._comm)
            assert g.mul(x, g.inv(x)) == g.mul(g.inv(x), x) == g.identity


def test_collect_checked_sees_an_insertion_outside_its_pair():
    # u_1 u_0 -> u_0 u_3 u_1: the new inversion (3, 1) raises I_3
    comm = bytearray(NOCOMM)
    comm[entry(0, 1):entry(0, 1) + 2] = (1, 3)
    with pytest.raises(AssertionError, match=r"\(0, 0, 1, 2\), \(1, 0, 0, 3\)"):
        collect_checked([1, 0], 4, bytes(comm))


# run under -O, where an assert would be stripped: the check that
# termination rests on must still stop an insertion outside its pair
ORDER_UNDER_O = """
from coxkit import wordops
comm = bytearray(18)
comm[0:2] = (1, 3)
for collect in (lambda: wordops.collect_seq([1, 0], bytes(comm)),
                lambda: wordops.collect_mul(2, 1, 4, bytes(comm))):
    try:
        collect()
    except wordops.CollectionOrderError as exc:
        print("raised", exc)
"""


def test_collect_order_check_survives_optimize(run_optimized):
    out = run_optimized(ORDER_UNDER_O)
    assert out.returncode == 0
    assert out.stdout.splitlines() == [
        "raised insertion 3 not strictly between 0 and 1"] * 2
