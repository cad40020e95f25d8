"""Desk-scale subgroup enumeration: the conjugacy classes of subgroups of a
group whose elements can be listed, and which classes lie above which.

Every faithful transitive action of a simple group is on the cosets of a
core-free subgroup, so k_trans stands on this enumeration.
"""

from __future__ import annotations

from math import gcd

from .budget import Budget
from .perm import (
    Permutation,
    compose_images,
    identity_images,
    inverse_images,
    pack_images,
    translation_table,
)
from .stabchain import PermGroup, _orbit, build_chain


def _image(point: int, g: bytes) -> int:
    return g[point]


def subgroups_up_to_conjugacy(G: PermGroup) -> list[PermGroup]:
    """One representative per conjugacy class of subgroups, sorted by
    order: the classes of subgroup_lattice(G), on a fresh Budget()."""
    return subgroup_lattice(G)[0]


def subgroup_lattice(
    G: PermGroup, budget: Budget | None = None
) -> tuple[list[PermGroup], list[tuple[int, ...]]]:
    """One representative per conjugacy class of subgroups, sorted by
    order, and over: over[i] lists the classes j of the proper extensions
    <H_i, x> the scan registers or finds, so H_i lies in a member of class
    j. A class other than G with an empty over list has G as its only
    extension, so it is maximal.

    Starts from the trivial group and closes under single-element extension
    of class representatives, so the trivial group's extensions are the
    cyclic subgroups; every subgroup shows up because it is reachable by
    adjoining generators one at a time along a chain of subgroups.
    Element-set fingerprints deduplicate across classes.

    Elements are packed images (perm.py): x.translate(translation_table(g))
    is x, then g, so closures are _orbit walks with bytes.translate at
    their core, and sorted bytes order as image tuples do. Conjugation by a
    generator of G is one dict lookup per element, so the conjugates of a
    class share their element objects. Past perm.py's bytes line there is
    no table: translation_table raises DegreeLimitError before any element
    is listed.

    The budget (a fresh Budget() when None) is charged before the listing
    starts one node per element for each table of G's size: the listing,
    elems, whole, same and one cmap per generator. So a group whose tables
    exceed what is left of the cap raises BudgetExceededError with nothing
    listed. The scan then charges one node per extension and one per
    element of each conjugate stored, so what the enumeration keeps grows
    with the nodes charged.

    The walk over a class records a conjugator for each conjugate, and the
    Schreier generators at its non-tree edges generate the normalizer
    N_G(H); those outside the group generated so far are kept, moved to
    the canonical member. Since <H, hyh'> = <H, y> for h, h' in H,
    <H, x> = <H, x^k> for k prime to the order of x, and
    <H, y^n> = <H, y>^n for n in N_G(H), an uncovered x marks as covered
    the double cosets HyH of every generator y of <x> and of their
    N_G(H)-conjugates, and is the one element of them extended. A covered
    element gives a conjugate of the subgroup of an earlier one, whose
    class was registered first, so the representatives, their generators
    and the over lists do not depend on the marking. An extension whose
    stabilizer chain reaches the order of G is G, whose element set is at
    hand, so it is never closed up by multiplication. An extension whose
    orbit of point 0 is shorter than G's is proper, so it takes no chain.
    """
    if budget is None:
        budget = Budget()
    N = G.order()
    degree = G.degree
    identity = identity_images(degree)
    packed = [pack_images(g.images) for g in G.generators]
    # the tables refuse a degree past the bytes line before the elements are listed
    inverse_tables = [translation_table(inverse_images(g)) for g in packed]
    # a node per element for each table of G's size built beside the
    # listing, which _element_images charges: elems, whole, same, the cmaps
    for _ in range((3 + len(packed)) * N):
        budget.charge()
    elems = sorted(G._element_images(budget))
    whole = frozenset(elems)
    # per generator g, each element h mapped to g h g^-1: g, then h, then g^-1
    same = {x: x for x in elems}
    cmaps = [
        {h: same[g.translate(translation_table(h)).translate(inv)] for h in elems}
        for g, inv in zip(packed, inverse_tables)
    ]

    # the length of G's orbit of point 0, which only G's extensions reach;
    # a group of degree 0 has neither the point nor an extension
    reach = degree and len(_orbit(0, packed, _image))

    def generated(seed):
        return frozenset(_orbit(identity, list(map(translation_table, seed)), bytes.translate))

    # every member of a known class, mapped to the class's place in reps
    known = {}
    reps = []
    over = []

    def register(H, seed_gens):
        if H in known:
            return known[H]
        # K = c H c^-1 for the conjugator c of K; an edge K -> L = g K g^-1
        # off the walk's tree gives c_L^-1 g c_K in N_G(H)
        conjugator = {H: identity}
        edges = []
        queue = [H]
        for K in queue:
            # a node per element of each conjugate stored
            for _ in K:
                budget.charge()
            for g, cmap in zip(packed, cmaps):
                L = frozenset(map(cmap.__getitem__, K))
                if L in conjugator:
                    edges.append((conjugator[L], g, conjugator[K]))
                else:
                    conjugator[L] = compose_images(g, conjugator[K])
                    queue.append(L)
        known.update(dict.fromkeys(conjugator, len(reps)))
        canon = min(conjugator, key=sorted)
        if len(conjugator) == 1:
            # H is normal: N_G(H) is G
            normalizer = packed
        else:
            kept, norm, size = [], H, N // len(conjugator)
            for c_L, g, c_K in edges:
                if len(norm) == size:
                    break
                n = compose_images(compose_images(inverse_images(c_L), g), c_K)
                if n not in norm:
                    kept.append(n)
                    norm = generated(seed_gens + kept)
            c = conjugator[canon]
            normalizer = [compose_images(compose_images(c, n), inverse_images(c)) for n in kept]
        if canon is not H:
            # regenerate a small generating list for the canonical member
            seed_gens, H = [], {identity}
            for x in sorted(canon):
                if x not in H:
                    seed_gens.append(x)
                    H = generated(seed_gens)
        reps.append((canon, seed_gens, normalizer))
        return known[canon]

    register(frozenset([identity]), [])
    # reps grows while it is walked, as a breadth-first queue
    for H, H_gens, normalizer in reps:
        over.append(set())
        if len(H) == N:
            continue
        tables = list(map(translation_table, H))
        # y -> n y n^-1 for each normalizer generator n
        by_normalizer = [(n, translation_table(inverse_images(n))) for n in normalizer]
        covered = set(H)
        for x in elems:
            if x in covered:
                continue
            budget.charge()
            powers, step = [x], translation_table(x)
            while powers[-1] != identity:
                powers.append(powers[-1].translate(step))
            # mark HyH, a left coset hyH at a time, for the generators
            # y = x^k of <x> and their N_G(H)-conjugates
            queue = [y for k, y in enumerate(powers, 1) if gcd(k, len(powers)) == 1]
            for y in queue:
                if y in covered:
                    continue
                table = translation_table(y)
                for h in H:
                    z = h.translate(table)
                    if z not in covered:
                        covered.update([z.translate(t) for t in tables])
                queue.extend(n.translate(table).translate(inv) for n, inv in by_normalizer)
            K_gens = H_gens + [x]
            # the chain stops once its order reaches N, and that order
            # never exceeds |<H, x>|; only a proper subgroup is closed up.
            # Over the trivial group the extension is <x>, x's powers
            if not H_gens:
                K = frozenset(powers)
            elif (
                len(_orbit(0, K_gens, _image)) == reach
                and build_chain(degree, K_gens, known_order=N).order() == N
            ):
                K = whole
            else:
                K = generated(K_gens)
            c = register(K, K_gens)
            if len(K) < N:
                over[-1].add(c)

    order = sorted(range(len(reps)), key=lambda c: (len(reps[c][0]), sorted(reps[c][0])))
    place = {c: i for i, c in enumerate(order)}
    groups = [
        PermGroup(degree, [Permutation(g) for g in reps[c][1]], known_order=len(reps[c][0]))
        for c in order
    ]
    return groups, [tuple(sorted(place[j] for j in over[c])) for c in order]
