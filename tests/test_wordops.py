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


NOCOMM = bytes(3 * 4 * 4)


def test_collect_cancellation():
    assert wordops.collect_seq([0, 0], 4, NOCOMM) == 0
    assert wordops.collect_seq([1, 0, 0, 1], 4, NOCOMM) == 0
    assert wordops.collect_seq([2, 1], 4, NOCOMM) == 0b110


def test_collect_insertion():
    # [u1, u4] = u2 u3 in a 4-generator table
    comm = bytearray(3 * 16)
    base = (0 * 4 + 3) * 3
    comm[base] = 2
    comm[base + 1] = 1
    comm[base + 2] = 2
    comm = bytes(comm)
    assert wordops.collect_seq([3, 0], 4, comm) == 0b1111
    assert wordops.collect_seq([0, 3], 4, comm) == 0b1001
    # involution squares away
    x = wordops.collect_seq([3, 0, 3, 0], 4, comm)
    assert wordops.collect_seq(
        [i for i in range(4) if x >> i & 1] * 2, 4, comm) == 0


def test_collect_order_violation():
    comm = bytearray(3 * 16)
    base = (0 * 4 + 1) * 3
    comm[base] = 1
    comm[base + 1] = 3   # not strictly between 0 and 1
    with pytest.raises(CollectionOrderError):
        wordops.collect_seq([1, 0], 4, bytes(comm))


def test_collect_measure_assertions():
    comm = bytearray(3 * 16)
    base = (0 * 4 + 3) * 3
    comm[base] = 2
    comm[base + 1] = 1
    comm[base + 2] = 2
    rng = random.Random(1)
    for _ in range(300):
        seq = [rng.randrange(4) for _ in range(rng.randint(0, 10))]
        assert wordops.collect_seq(seq, 4, bytes(comm), check=True) \
            == wordops.collect_seq(seq, 4, bytes(comm), check=False)


# run under -O, where an assert would be stripped: a measure that never
# decreases must still stop the collection
MEASURE_UNDER_O = """
from coxkit import wordops
wordops._measure = lambda word, k: (0,)
try:
    wordops.collect_seq([1, 0], 4, bytes(48), check=True)
except wordops.CollectionMeasureError:
    print("raised")
"""


def test_collect_measure_survives_optimize(run_optimized):
    out = run_optimized(MEASURE_UNDER_O)
    assert out.returncode == 0 and out.stdout.strip() == "raised"
