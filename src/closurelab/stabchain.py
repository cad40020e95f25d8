"""Schreier-Sims stabilizer chains and the queries they answer.

A chain for G fixes a base b_0, b_1, ... and stores, per level l, strong
generators of the pointwise stabilizer of b_0..b_{l-1} together with a
transversal for the orbit of b_l under them. Everything else in the
package (order, membership, stabilizers, canonical tuple images, and
through them closures and base sizes) reduces to chain queries. The
canonical images and orbital numbers of tuples, read from rebased chains,
are in tupleorbits.

The construction, build_chain, is Schreier-Sims on generators given as
image sequences, which it packs (perm.pack_images): every chain element is
bytes up to degree 256, composed by one bytes.translate call, and a tuple
above. It verifies, level by level from the bottom, that every Schreier
generator sifts to the identity, adjoining any nontrivial residue as a new
strong generator. One routine, place, inserts every strong generator,
given or found. Above the bytes line, given a bound on the group order
(the order of the group an action is an image of), it first sifts random
elements from a product-replacement walk with a fixed seed instead, and
stops when the product of the orbit lengths reaches the bound. That stop
is a proof: each level's group lies in the stabilizer of its base point in
the level above, so the product is at most the group order, and equals it
only for a complete chain. Ten sifts in a row with no residue before the
bound end the walk, and the build starts over with the full scan, so an
action that is not faithful still gets a verified chain. Either way a chain
is a reproducible function of its generators and bound. Its base may
differ from the full scan's. Orbits, orders, membership and rebased chains
do not depend on it; coset_action's labels read a subgroup's base, and so
could move only for a subgroup above the bytes line given with its order.

One constructor builds every level: _Level(beta, gens, identity) takes
its generators as given and walks the orbit of beta under them (_grow).
A bytes level composes each representative as the walk reaches its point;
a tuple level records the orbit as a Schreier tree and composes a
representative when it is first read, so a search that reads few of a wide
orbit's representatives composes few. Nothing assigns a level's generators
or orbit afterwards. Schreier-Sims replaces a level whose generator list
has grown by a new level on the same list; the one change in place is
_swap growing its new second level's orbit from each generator it adjoins.

One sift, _sift, serves Schreier-Sims and membership alike. It reads the
inverse h of the element g it strips: g sends a base point beta to
h.index(beta), and the inverse of g-then-u^-1 is u-then-h. So no
transversal element is inverted to sift. Schreier-Sims sifts the inverse of
each Schreier generator, inverting one transversal element per orbit point
but the base point that yields a nontrivial one, and turns back only a
nontrivial residue, which becomes a strong generator. A level's next scan
starts at the point where its last one found a residue.

A pointwise stabilizer is never rebuilt from scratch. The chain rebased at
the fixed points already holds it: the levels below that prefix are a
verified chain for the stabilizer (Holt, Eick and O'Brien, Handbook of
Computational Group Theory, 2005, section 4.4), so the stabilizer is that
tail, generated by the tail's strong generators. A group's own chain whose
base already begins with the requested points serves as the rebased chain,
so a stabilizer of a stabilizer along that base costs no build at all.
Every other rebased chain is derived from the group's own chain by base
change (section 4.4.7 there; Butler, Fundamental Algorithms for Permutation
Groups, 1991): each requested point is taken from its level, or inserted
with a trivial orbit, and exchanged with the level above it until it sits
at its position. An exchange, _swap, rebuilds two levels from the orbits
and transversals of the old ones, with no Schreier-Sims, and returns new
level objects: a stabilizer's chain is a tail of its parent's, so the
levels are shared and never changed. So Schreier-Sims runs once per group.
"""

from __future__ import annotations

from itertools import islice
from random import Random

from .budget import DEFAULT_MAX_DEGREE, Budget
from .errors import DegreeLimitError, DegreeMismatchError
from .perm import (
    Images,
    Permutation,
    compose_images,
    identity_images,
    inverse_images,
    pack_images,
)


class _Level:
    """One chain level: base point beta, strong generators gens, the orbit
    of beta under them, and the transversal: the representative u stored
    for a point p satisfies beta^u = p. One breadth-first walk (_grow)
    finds the orbit; FIFO expansion with the generators applied in list
    order keeps it deterministic. Code that asks about membership, size or
    order of the orbit reads orbit, code that needs a representative reads
    transversal[p].

    identity is the packed identity of the degree, the representative of
    beta. A bytes level (identity is bytes) composes each representative as
    the walk reaches its point, and orbit is transversal. A tuple level
    keeps the orbit as a Schreier tree (Holt, Eick and O'Brien 2005, section
    4.1), orbit[p] = (parent, generator) with orbit[beta] = None, and its
    transversal composes a representative when it is first read
    (_Transversal): the same product, parent's representative then the
    generator. Sifting reads the inverse of the element it strips, so no
    transversal element is inverted for it and no inverse is stored."""

    __slots__ = ("beta", "gens", "orbit", "transversal")

    def __init__(self, beta: int, gens: list[Images], identity: Images):
        self.beta = beta
        self.gens = gens
        if type(identity) is bytes:
            self.orbit = self.transversal = {beta: identity}
        else:
            self.orbit = {beta: None}
            self.transversal = _Transversal(self.orbit, beta, identity)
        _grow(self, [beta], gens)


class _Transversal(dict):
    """The representatives of a tuple level composed so far, keyed by point;
    reading a missing point of the orbit tree composes it from its nearest
    stored ancestor down, storing each representative on the path. The walk
    is iterative, as a tree can be as deep as the degree."""

    __slots__ = ("tree",)

    def __init__(self, tree: dict, beta: int, identity: Images):
        super().__init__({beta: identity})
        self.tree = tree

    def __missing__(self, pt: int) -> Images:
        path = []
        while pt not in self:
            parent, g = self.tree[pt]
            path.append((pt, g))
            pt = parent
        u = self[pt]
        for pt, g in reversed(path):
            u = self[pt] = compose_images(u, g)
        return u


def _orbit_ids(gens, degree: int) -> tuple[int, ...]:
    """Per point, the least point of its orbit under the group gens generate."""
    ids = [-1] * degree
    for start in range(degree):
        if ids[start] >= 0:
            continue
        # start is the least point of its orbit by scan order
        ids[start] = start
        orbit = [start]
        for pt in orbit:
            for g in gens:
                img = g[pt]
                if ids[img] < 0:
                    ids[img] = start
                    orbit.append(img)
    return tuple(ids)


def _orbit(start, gens, act) -> dict:
    """Breadth-first orbit of start, where act(x, g) is the image of x under
    g: a dict keyed in order of discovery (start first)."""
    seen = {start: None}
    queue = [start]
    for x in queue:
        for g in gens:
            y = act(x, g)
            if y not in seen:
                seen[y] = None
                queue.append(y)
    return seen


def _grow(level: _Level, queue: list[int], gens) -> None:
    """Extend level's orbit breadth-first from the points queue under gens:
    on a bytes level composing a representative for each point it adds, on
    a tuple level recording the tree edge to it."""
    orbit = level.orbit
    if orbit is level.transversal:
        for pt in queue:
            u = orbit[pt]
            for g in gens:
                img = g[pt]
                if img not in orbit:
                    orbit[img] = compose_images(u, g)
                    queue.append(img)
        return
    for pt in queue:
        for g in gens:
            img = g[pt]
            if img not in orbit:
                orbit[img] = (pt, g)
                queue.append(img)


def _sift(levels, h: Images) -> Images:
    """Sift the element whose inverse is h through levels, reading h: the
    element sends a base point beta to h.index(beta). Return the inverse of
    the residue, which is the identity exactly when the element lies in the
    group the levels describe."""
    for level in levels:
        pt = h.index(level.beta)
        if pt not in level.orbit:
            return h
        if pt != level.beta:
            h = compose_images(level.transversal[pt], h)
    return h


class StabilizerChain:
    """Verified chain of stabilizers with transversals."""

    def __init__(self, degree: int, levels: list[_Level]):
        self.degree = degree
        self.levels = levels
        self._orbit_ids: dict[int, tuple[int, ...]] = {}

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(level.beta for level in self.levels)

    def order(self) -> int:
        n = 1
        for level in self.levels:
            n *= len(level.orbit)
        return n

    def contains_images(self, images) -> bool:
        """Whether images lies in the group: its inverse sifts to the identity."""
        h = inverse_images(pack_images(images))
        return _sift(self.levels, h) == identity_images(self.degree)

    def strong_generators(self) -> list[Images]:
        """All strong generators, deduplicated, level-0 view."""
        seen = []
        have = set()
        for level in self.levels:
            for g in level.gens:
                if g not in have:
                    have.add(g)
                    seen.append(g)
        return seen

    def tail(self, depth: int) -> "StabilizerChain":
        """The chain of the pointwise stabilizer of the first depth base points."""
        return StabilizerChain(self.degree, self.levels[depth:])

    def orbit_ids(self, level_idx: int) -> tuple[int, ...]:
        """Per point, the least point of its orbit under level level_idx's group.

        Level len(levels) is the trivial group (every orbit a singleton).
        Canonical tuple images read the least point of an orbit here.
        """
        cached = self._orbit_ids.get(level_idx)
        if cached is None:
            cached = _orbit_ids(self.tail(level_idx).strong_generators(), self.degree)
            self._orbit_ids[level_idx] = cached
        return cached


def build_chain(degree: int, gens, known_order: int | None = None) -> StabilizerChain:
    """Schreier-Sims for the group the image sequences gens generate on
    0..degree-1, packed on entry.

    known_order is a bound on the group order, such as the order of a group
    the generators are images of; the build stops as soon as the product of
    the basic orbit lengths reaches it. That stop is sound: every level's
    group lies in the stabilizer of its base point in the level above, so
    the product never exceeds the group order, and equals it only when
    every level is the full stabilizer.

    One routine, place, adds every strong generator to its levels: the
    generators first, then each nontrivial residue that _sift leaves. A
    level is rebuilt by its constructor exactly when its generators change.
    With known_order and tuple levels (degree above 256) the residues are
    first those of random elements (Celler, Leedham-Green, Murray, Niemeyer
    and O'Brien 1995; Seress, Permutation Group Algorithms, 2003, section
    4.3), from a product-replacement walk with a fixed seed, so a chain is
    still a function of its generators and known_order. A residue fixes the
    base points above the level where its sift stopped and lies in the
    group, so place puts it into every level from 1 to that one. If ten
    sifts in a row leave no residue before known_order is reached, the
    build starts over without the walk: each Schreier generator of each
    level, from the bottom up, is sifted, which verifies the chain whatever
    its order.
    """
    if degree > DEFAULT_MAX_DEGREE:
        raise DegreeLimitError(f"degree {degree} exceeds guard {DEFAULT_MAX_DEGREE}")
    identity = identity_images(degree)
    packed = [g for g in map(pack_images, gens) if g != identity]

    levels: list[_Level] = []
    # per level, the position in its orbit of the point whose scan last
    # found a residue; the Schreier generators of the points before it sift
    # to the identity through the levels below however those grow, so the
    # next scan of the level starts there, until refresh rebuilds it
    resume: dict[int, int] = {}
    # inverses of the strong generators, cleared with the levels; keyed by
    # id, which is stable because every generator stays in levels until then
    gen_inverses: dict[int, Images] = {}

    def place(g: Images, idx: int) -> int:
        """Add g to levels idx, idx + 1, ... up to the first whose base
        point it moves, opening a level past the end if none; return that
        level."""
        while True:
            if idx == len(levels):
                levels.append(_Level(min(p for p in range(degree) if g[p] != p), [], identity))
            level = levels[idx]
            level.gens.append(g)
            if g[level.beta] != level.beta:
                return idx
            idx += 1

    def refresh(idx: int) -> None:
        levels[idx] = _Level(levels[idx].beta, levels[idx].gens, identity)
        resume[idx] = 0

    def residue(i: int) -> Images | None:
        """The residue of the first Schreier generator of level i that does
        not sift through the levels below it, or None if every one does."""
        level = levels[i]
        below = levels[i + 1 :]
        start = resume[i]
        tree = level.orbit is not level.transversal
        for k, pt in enumerate(islice(level.orbit, start, None), start):
            u = level.transversal[pt]
            u_inv = None
            for s in level.gens:
                # on a tuple level, a tree edge (pt, s) defines the
                # representative of pt^s as u * s: the generator is trivial
                if tree and level.orbit[s[pt]] == (pt, s):
                    continue
                # Schreier generator u * s * inv(rep of pt^s), sifted through
                # its inverse rep * inv(s) * inv(u)
                rep = level.transversal[s[pt]]
                if compose_images(u, s) == rep:
                    continue
                if u_inv is None:
                    # the representative of beta is the identity, its own inverse
                    u_inv = u if pt == level.beta else inverse_images(u)
                s_inv = gen_inverses.get(id(s))
                if s_inv is None:
                    s_inv = gen_inverses[id(s)] = inverse_images(s)
                h = _sift(below, compose_images(compose_images(rep, s_inv), u_inv))
                if h != identity:
                    resume[i] = k
                    return inverse_images(h)
        return None

    def begin() -> StabilizerChain:
        """Discard every level and all scan state, and place the generators."""
        levels.clear()
        resume.clear()
        gen_inverses.clear()
        for g in packed:
            place(g, 0)
        for idx in range(len(levels)):
            refresh(idx)
        return StabilizerChain(degree, levels)

    chain = begin()
    if known_order is not None and type(identity) is not bytes and packed:
        rng = Random(0)
        # at least ten slots, so the walk mixes even from one or two generators
        walk = packed * (10 // len(packed) + 1)
        element = identity
        misses = 0
        while misses < 10 and chain.order() != known_order:
            # product replacement: one slot becomes its product with
            # another, and the element walks on by the new slot
            i, j = rng.sample(range(len(walk)), 2)
            walk[i] = compose_images(walk[i], walk[j])
            element = compose_images(element, walk[i])
            # the inverse of the residue of the inverse of element, itself a
            # random element
            h = _sift(levels, element)
            misses += 1
            if h != identity:
                misses = 0
                stop = place(inverse_images(h), 1)
                for idx in range(1, stop + 1):
                    refresh(idx)
        if chain.order() == known_order:
            return chain
        chain = begin()
    i = len(levels) - 1
    while i >= 0 and (known_order is None or chain.order() != known_order):
        r = residue(i)
        if r is None:
            i -= 1
            continue
        stop = place(r, i + 1)
        for idx in range(i + 1, stop + 1):
            refresh(idx)
        i = stop
    return chain


def _swap(levels: list[_Level], i: int, identity: Images) -> None:
    """Exchange the base points a and b of levels i and i + 1 in place of
    those two levels (deterministic BASESWAP; Holt, Eick and O'Brien 2005,
    section 4.4.7). The new level i is the orbit of b under level i's
    generators. The new level i + 1 starts from level i + 2's generators and
    adjoins, for each point c of level i's orbit not yet in the orbit of a,
    an element of G_i that fixes b and sends a to c, where one exists, until
    the orbit of a has the size |(G_i)_b| / |G_{i+2}|; by the orbit-stabilizer
    theorem its group is then (G_i)_b. The orbit of a grows from each
    adjoined element rather than being walked again. No level object is
    changed, as other chains may share it."""
    lo, hi = levels[i], levels[i + 1]
    a, b = lo.beta, hi.beta
    first = _Level(b, lo.gens, identity)
    target = len(lo.orbit) * len(hi.orbit) // len(first.orbit)
    second = _Level(a, list(levels[i + 2].gens) if i + 2 < len(levels) else [], identity)
    for c in lo.orbit:
        if len(second.orbit) == target:
            break
        if c in second.orbit:
            continue
        # u sends a to c, and v sends b to u^-1(b) fixing a, so v-then-u
        # fixes b and sends a to c
        u = lo.transversal[c]
        x = u.index(b)
        if x in hi.orbit:
            second.gens.append(compose_images(hi.transversal[x], u))
            _grow(second, list(second.orbit), second.gens)
    levels[i : i + 2] = [first, second]


def _rebase(chain: StabilizerChain, key: tuple[int, ...]) -> StabilizerChain:
    """A chain for the same group whose base begins with the points key,
    derived from chain without Schreier-Sims: each point is taken from its
    level, or inserted with a trivial orbit at the first level whose group
    fixes it, and swapped up to its position. Levels past the prefix with a
    trivial orbit are dropped. The levels of chain are shared, not changed."""
    identity = identity_images(chain.degree)
    levels = list(chain.levels)
    for pos, p in enumerate(key):
        j = next((j for j in range(pos, len(levels)) if levels[j].beta == p), None)
        if j is None:
            j = next(
                (j for j in range(pos, len(levels)) if all(g[p] == p for g in levels[j].gens)),
                len(levels),
            )
            levels.insert(j, _Level(p, levels[j].gens if j < len(levels) else [], identity))
        for i in range(j - 1, pos - 1, -1):
            _swap(levels, i, identity)
    levels[len(key) :] = [level for level in levels[len(key) :] if len(level.orbit) > 1]
    return StabilizerChain(chain.degree, levels)


class PermGroup:
    """A permutation group given by generators, with a cached chain.

    Generators are kept exactly as supplied (order, duplicates, identities)
    because induced actions align generator lists positionally; the chain
    ignores identity generators internally.

    known_order is trusted as the group order until a chain exists: order()
    returns it without building one, and the chain, built lazily for
    membership, stabilizers and canonical tuple images, stops as soon as it
    reaches it. So callers pass exact values only.
    """

    def __init__(self, degree: int, generators, name: str | None = None, known_order: int | None = None):
        self.degree = degree
        gens = tuple(generators)
        for g in gens:
            if not isinstance(g, Permutation):
                raise TypeError(f"generator is not a Permutation: {g!r}")
            if g.degree != degree:
                raise DegreeMismatchError(f"generator degree {g.degree} != group degree {degree}")
        self.generators = gens
        self.name = name
        self._known_order = known_order
        self._chain: StabilizerChain | None = None
        self._rebased: dict[tuple[int, ...], StabilizerChain] = {}
        self._orbit_ids: tuple[int, ...] | None = None
        # canonical images of tuples and of their prefixes (tupleorbits)
        self._tuple_images: dict = {}

    @staticmethod
    def trivial(degree: int) -> "PermGroup":
        return PermGroup(degree, (), name="1")

    def chain(self, preferred_base=None) -> StabilizerChain:
        """The group's own chain, or with preferred_base a chain whose base
        begins with those points in order (duplicates dropped), derived
        from the own chain by base swaps and cached."""
        if self._chain is None:
            gens = [g.images for g in self.generators]
            self._chain = build_chain(self.degree, gens, known_order=self._known_order)
        if preferred_base is None:
            return self._chain
        key = tuple(dict.fromkeys(preferred_base))
        for b in key:
            if not 0 <= b < self.degree:
                raise ValueError(f"point {b} outside 0..{self.degree - 1}")
        if self._chain.base[: len(key)] == key:
            return self._chain
        cached = self._rebased.get(key)
        if cached is None:
            cached = self._rebased[key] = _rebase(self._chain, key)
        return cached

    def order(self) -> int:
        if self._chain is None and self._known_order is not None:
            return self._known_order
        return self.chain().order()

    def _has_order(self, bound: int) -> bool:
        """Whether the group has order bound, given that it has at most that
        order (an action's image and the order of the acting group). A chain
        still to be built stops once it reaches bound, and is then complete;
        otherwise it runs to the end. Either way it is kept as the chain."""
        if self._chain is None and self._known_order is None:
            gens = [g.images for g in self.generators]
            self._chain = build_chain(self.degree, gens, known_order=bound)
        return self.order() == bound

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise DegreeMismatchError(f"element degree {p.degree} != group degree {self.degree}")
        return self.chain().contains_images(p.images)

    def _ids(self) -> tuple[int, ...]:
        if self._orbit_ids is None:
            self._orbit_ids = _orbit_ids([g.images for g in self.generators], self.degree)
        return self._orbit_ids

    def orbits(self) -> list[list[int]]:
        """Orbit partition of 0..degree-1; each orbit sorted, sorted by least point."""
        out: dict[int, list[int]] = {}
        for p, least in enumerate(self._ids()):
            out.setdefault(least, []).append(p)
        return list(out.values())

    def is_transitive(self) -> bool:
        return self.degree <= 1 or len(self.orbits()) == 1

    def orbit_of(self, pt: int) -> list[int]:
        if not 0 <= pt < self.degree:
            raise ValueError(f"point {pt} outside 0..{self.degree - 1}")
        ids = self._ids()
        return [p for p in range(self.degree) if ids[p] == ids[pt]]

    def pointwise_stabilizer(self, pts) -> "PermGroup":
        """The subgroup fixing every point of pts: the tail of the chain
        rebased at pts, below its len(pts) prefix levels."""
        pts = list(dict.fromkeys(pts))
        tail = self.chain(preferred_base=pts).tail(len(pts))
        stab = PermGroup(self.degree, [Permutation(g) for g in tail.strong_generators()])
        stab._chain = tail
        return stab

    def _element_images(self, budget: Budget) -> dict:
        """Packed elements, keyed in order of breadth-first discovery. One
        charge of a node per element comes first, so a group larger than
        what is left of budget raises BudgetExceededError before the listing."""
        budget.charge(self.order())
        gens = [pack_images(g.images) for g in self.generators]
        return _orbit(identity_images(self.degree), gens, compose_images)

    def elements(self):
        """All elements in the order of _element_images (identity first),
        charged to a fresh Budget(); order() is the scalable alternative."""
        return [Permutation(x) for x in self._element_images(Budget())]

    def same_group(self, other: "PermGroup") -> bool:
        """Equality as subgroups of the same symmetric group."""
        if self.degree != other.degree:
            return False
        if self.order() != other.order():
            return False
        return all(self.contains(g) for g in other.generators)

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return self.degree == other.degree and all(other.contains(g) for g in self.generators)

    def __repr__(self) -> str:
        label = self.name or f"{len(self.generators)} gens"
        return f"PermGroup(degree={self.degree}, {label})"

