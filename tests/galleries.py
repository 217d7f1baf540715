"""Minimal galleries for the tests: a checked constructor, left descents
and the paper's shift sG of a gallery, the blueprint group along any
minimal gallery, where the program builds groups along canonical
galleries only, and the per-prefix inversion sequence that
RootSystem.inversion_sequence replaced, kept as its oracle."""

from coxkit.blueprint import BlueprintGroup


def gallery(ctx, word: str) -> str:
    """The minimal gallery of type word; ValueError unless word is reduced."""
    if len(ctx.normalize(word)) != len(word):
        raise ValueError(f"gallery type {word!r} is not reduced")
    return word


def has_left_descent(ctx, w: str, g: str) -> bool:
    """Whether g is a left descent of w (canonical): some reduced word of
    w starts with g."""
    return any(e.startswith(g) for e in ctx.reduced_words(w))


def gallery_shift(ctx, s: str, g: str) -> str:
    """The gallery sG; g must lie in Min_s of its endpoint."""
    if has_left_descent(ctx, ctx.normalize(g), s):
        if not g.startswith(s):
            raise ValueError("gallery not in Min_s: type must start with s")
        return g[1:]
    return s + g


def group_along(cache, g: str) -> BlueprintGroup:
    """U_w along the minimal gallery g, not memoized, grown from the
    groups along its prefixes and certified at each step, as the cache
    certifies the groups it builds; a canonical prefix is the cache's
    group.  BlueprintError if a certificate fails."""
    prefix = None
    if g:
        head = g[:-1]
        prefix = cache.group(head) if cache.ctx.normalize(head) == head \
            else group_along(cache, head)
    grp = BlueprintGroup(cache.ctx, cache.rsys, g, cache.blueprint, prefix)
    grp.certify_order()
    return grp


def inversions_by_prefixes(rs, g: str) -> tuple:
    """Phi(G) in crossing order, each root from its own chamber: walk the
    chambers of g from the identity letter by letter, and take the root
    chamber_i * alpha_(g[i]) at each."""
    chambers = [""]
    for ch in g:
        chambers.append(rs.ctx.mult_gen(chambers[-1], ch))
    return tuple(rs.root_from(chambers[i], g[i]) for i in range(len(g)))
