"""The homomorphism oracle of the boundary-map tests: a map checked
against right multiplication by a group's generators.  It imports nothing
from coxkit, so it shares no code with Builder.edge, which proves its
maps by closing their graphs (the graph lemma of coxkit.constructions)."""


def is_homomorphism(group, phi: dict, target) -> bool:
    """Whether phi, a dict on the elements of the finite computable group
    group, is a homomorphism into target: phi(1) = 1 and phi(x * g) =
    phi(x) * phi(g) for every x and every g in group.gens.

    Homomorphisms.  A map phi on E = <g_1, ..., g_k> is a homomorphism
    exactly when phi(x * g_i) = phi(x) * phi(g_i) for all x in E and all
    i.  Then phi(g_1) = phi(1) * phi(g_1) gives phi(1) = 1 by
    cancellation (the trivial group has no g_i, so phi(1) = 1 is checked
    on its own), and induction on the length of a word w over the g_i
    gives phi(x * w) = phi(x) * phi(w): phi(x * w * g_i) =
    phi(x * w) * phi(g_i) = phi(x) * phi(w) * phi(g_i) = phi(x) *
    phi(w * g_i).  Every element of E is such a word.
    """
    return phi[group.identity] == target.identity and all(
        phi[group.mul(x, g)] == target.mul(y, phi[g])
        for x, y in phi.items() for g in group.gens)
