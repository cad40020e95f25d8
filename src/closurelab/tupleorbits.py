"""Orbits of a permutation group on tuples of points, read from its chains.

Two injective tuples lie in one G-orbit exactly when their canonical
images, their least images under G, are equal. A canonical image is found
entry by entry from chains rebased at the image so far (PermGroup.chain
with a preferred base), so the state after a prefix of a tuple depends on
that prefix alone. Each group keeps one memo of these states, keyed by
the prefix, and a canonical image resumes from the longest prefix in it:
tuples that share a prefix, as those of a closure backtrack do, share its
chain steps, across every search over the group. The memo holds each
whole tuple's image too, so a repeated tuple costs one dict lookup.
"""

from __future__ import annotations

from .perm import inverse_images
from .stabchain import PermGroup


class _Prefix:
    """The state of the canonical image of a tuple after a prefix of it:
    image, the canonical image of the prefix; us, the transversal elements
    applied so far, in order, whose inverses map the rest of the tuple in
    turn (the inverse of u sends y to u.index(y)); and ids, per point the
    least point of its orbit under the stabilizer of image, or None when
    that stabilizer is trivial and the rest of the tuple is only mapped."""

    __slots__ = ("image", "us", "ids")

    def __init__(self, image: tuple[int, ...], us: tuple, ids: tuple[int, ...] | None):
        self.image = image
        self.us = us
        self.ids = ids


def _canonical_image(G: PermGroup, t: tuple[int, ...]) -> tuple[int, ...]:
    """The least image of the injective tuple t under G.

    Entry by entry: the first entry goes to the least point m_1 of its
    G-orbit, by the inverse of the transversal element of the chain rebased
    at m_1, applied to the whole tuple; the next entry then goes to the least
    point of its orbit under the stabilizer of m_1, and so on. The last entry
    needs no chain: its image is the least point of its orbit. Once the
    stabilizer of the image so far is trivial, the rest of the tuple is
    fixed.

    G's memo maps a tuple either to its image alone, when it was asked for
    whole, or to its _Prefix state, when a longer tuple was; every proper
    prefix of a tuple in the memo is a state in it, up to the first whose
    stabilizer is trivial. So a tuple whose prefix one shorter is in the memo
    costs at most one rebased chain.
    """
    memo = G._tuple_images
    if not memo:
        memo[()] = _Prefix((), (), G.chain().orbit_ids(0))
    t = tuple(t)
    found = memo.get(t)
    if found is not None:
        return found if type(found) is tuple else found.image
    d = len(t) - 1
    while type(state := memo.get(t[:d])) is not _Prefix:
        d -= 1
    image, us, ids = state.image, state.us, state.ids
    for depth in range(d + 1, len(t) + 1):
        x = t[depth - 1]
        for u in us:
            x = u.index(x)
        if ids is None:
            # the stabilizer of image is trivial: the rest is only mapped
            image += (x,)
            continue
        m = ids[x]
        image += (m,)
        if depth < len(t):
            chain = G.chain(preferred_base=image)
            if x != m:
                us += (chain.levels[depth - 1].transversal[x],)
            ids = chain.orbit_ids(depth) if len(chain.levels) > depth else None
            memo[t[:depth]] = _Prefix(image, us, ids)
    memo[t] = image
    return image


def _orbitals(G: PermGroup) -> list[list[int]]:
    """rows[a][b] numbers the orbit of G containing the pair (a, b).

    The number is read from the pair's canonical image (m, m'): m is the
    least point of a's orbit, and m' that of u^-1(b) under the stabilizer
    of m, where u carries m to a. The diagonal (m, m) numbers the orbit of
    the point a.
    """
    n = G.degree
    ids = G.chain().orbit_ids(0)
    number: dict[int, int] = {}
    rows = []
    for a in range(n):
        m = ids[a]
        chain = G.chain(preferred_base=(m,))
        inv = inverse_images(chain.levels[0].transversal[a])
        below = chain.orbit_ids(1)
        rows.append([number.setdefault(m * n + below[inv[b]], len(number)) for b in range(n)])
    return rows
