"""Minimal galleries for the tests: a checked constructor, the blueprint
group along any minimal gallery, where the program builds groups along
canonical galleries only, and the per-prefix inversion sequence that
RootSystem.inversion_sequence replaced, kept as its oracle."""

from coxkit.blueprint import BlueprintGroup


def gallery(ctx, word: str) -> str:
    """The minimal gallery of type word; ValueError unless word is reduced."""
    if len(ctx.normalize(word)) != len(word):
        raise ValueError(f"gallery type {word!r} is not reduced")
    return word


def group_along(cache, g: str) -> BlueprintGroup:
    """U_w along the minimal gallery g, not memoized, grown from the
    groups along its prefixes; a canonical prefix is the cache's group."""
    prefix = None
    if g:
        head = g[:-1]
        prefix = cache.group(head) if cache.ctx.normalize(head) == head \
            else group_along(cache, head)
    return BlueprintGroup(cache.ctx, cache.rsys, g, cache.blueprint, prefix)


def inversions_by_prefixes(rs, g: str) -> tuple:
    """Phi(G) in crossing order, each root from its own chamber: walk the
    chambers of g from the identity letter by letter, and take the root
    chamber_i * alpha_(g[i]) at each."""
    chambers = [""]
    for ch in g:
        chambers.append(rs.ctx.mult_gen(chambers[-1], ch))
    return tuple(rs.root_from(chambers[i], g[i]) for i in range(len(g)))
