"""Minimal galleries for the tests: a checked constructor, and the
blueprint group along any minimal gallery, where the program builds
groups along canonical galleries only."""

from coxkit.blueprint import BlueprintGroup
from coxkit.coxeter import Gallery


def gallery(ctx, word: str) -> Gallery:
    """The minimal gallery of type word; ValueError unless word is reduced."""
    if len(ctx.normalize(word)) != len(word):
        raise ValueError(f"gallery type {word!r} is not reduced")
    return Gallery(word)


def group_along(cache, g: Gallery) -> BlueprintGroup:
    """U_w along the minimal gallery g, not memoized, grown from the
    groups along its prefixes; a canonical prefix is the cache's group."""
    prefix = None
    if g.type_word:
        head = g.type_word[:-1]
        prefix = cache.group(head) if cache.ctx.normalize(head) == head \
            else group_along(cache, Gallery(head))
    return BlueprintGroup(cache.ctx, cache.rsys, g, cache.blueprint, prefix)
