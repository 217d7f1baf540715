"""Seeded reduced words on a tree product, shared by the tree-product
tests, the normal-form golden battery and the section-4 cross-checks."""

import random


def random_word(product, rng: random.Random, length: int,
                members: dict | None = None) -> list:
    """A random reduced word: a walk on the tree whose letters avoid
    the edge group toward the previous vertex.  members, when given,
    maps every vertex to the set its letters are drawn from."""
    tog = product.tog
    verts = sorted(tog.vertices)
    word = []
    prev = None
    v = rng.choice(verts)
    for _ in range(length):
        G = tog.vertices[v]
        if prev is None:
            banned = {G.identity}
        else:
            banned = set(tog.edge_between(prev, v).endpoint_map(v).values())
        pool = [x for x in G.elements() if x not in banned
                and (members is None or x in members[v])]
        if not pool:
            break
        word.append((v, rng.choice(pool)))
        prev, v = v, rng.choice(tog.neighbors(v))
    return word
