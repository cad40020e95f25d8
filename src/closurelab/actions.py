"""Induced actions and their bookkeeping.

Orbits, block systems and primitivity, quotient actions on blocks, actions
on k-subsets and on partitions into equal parts, coset actions, restrictions
to invariant subsets, and disjoint unions. The subgroup classes whose coset
actions k_trans walks are enumerated in lattice.py. Every construction
returns an ActionInstance that remembers where its domain came from, so
downstream reports stay readable.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import comb, factorial

from .budget import DEFAULT_MAX_DEGREE
from .errors import (
    DegreeLimitError,
    DegreeMismatchError,
    IntransitiveActionError,
    InvalidPartitionError,
    NotASubgroupError,
)
from .perm import (
    Domain,
    Images,
    Permutation,
    Record,
    compose_images,
    identity_images,
    pack_images,
    print_cycles,
)
from .stabchain import PermGroup, _orbit


class ActionInstance(Record):
    """A group acting on a labeled domain, with provenance.

    group is the image of the action (a permutation group on the domain);
    source_order is the order of the acting group, so faithfulness and the
    kernel size are always recoverable.
    """

    group: PermGroup
    domain: Domain
    provenance: str
    source_order: int

    def __post_init__(self):
        if self.group.degree != self.domain.size:
            raise DegreeMismatchError(
                f"group degree {self.group.degree} != domain size {self.domain.size}"
            )

    @property
    def degree(self) -> int:
        return self.domain.size

    @property
    def faithful(self) -> bool:
        return self.group._has_order(self.source_order)

    @property
    def kernel_order(self) -> int:
        return self.source_order // self.group.order()

    def __repr__(self) -> str:
        return f"ActionInstance({self.provenance}, degree={self.degree})"


def natural_action(G: PermGroup) -> ActionInstance:
    """G acting on its own points, labeled 1..n."""
    return ActionInstance(G, Domain.natural(G.degree), "natural", G.order())


class BlockSystem(Record):
    """An invariant partition of the domain into blocks.

    Blocks are stored sorted internally and ordered by least point, so equal
    systems compare equal.
    """

    blocks: tuple[tuple[int, ...], ...]
    degree: int

    def __post_init__(self):
        seen = set()
        for block in self.blocks:
            if not block or tuple(sorted(block)) != block:
                raise InvalidPartitionError(f"block {block} is not sorted and nonempty")
            for p in block:
                if p in seen:
                    raise InvalidPartitionError(f"point {p} appears in two blocks")
                seen.add(p)
        if seen != set(range(self.degree)):
            raise InvalidPartitionError("blocks do not cover the domain")
        if list(self.blocks) != sorted(self.blocks, key=lambda b: b[0]):
            raise InvalidPartitionError("blocks must be ordered by least point")
        lookup = {}
        for idx, block in enumerate(self.blocks):
            for p in block:
                lookup[p] = idx
        object.__setattr__(self, "_lookup", lookup)

    @staticmethod
    def from_blocks(blocks, degree: int) -> "BlockSystem":
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        return BlockSystem(canon, degree)

    @staticmethod
    def singletons(degree: int) -> "BlockSystem":
        return BlockSystem(tuple((p,) for p in range(degree)), degree)

    def block_of(self, point: int) -> int:
        return self._lookup[point]

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def labels(self, domain: Domain) -> tuple[str, ...]:
        return tuple(
            "{" + ",".join(domain.labels[p] for p in block) + "}" for block in self.blocks
        )


def is_invariant(G: PermGroup, S: BlockSystem) -> bool:
    for g in G.generators:
        for block in S.blocks:
            j = S.block_of(g(block[0]))
            if {g(p) for p in block} != set(S.blocks[j]):
                return False
    return True


def _check_index(i: int, size: int, what: str) -> int:
    """i if it lies in 0..size-1; else ValueError naming what i indexes,
    i itself and the range. Negative i is refused, not read from the end."""
    if not 0 <= i < size:
        raise ValueError(f"{what} {i} outside 0..{size - 1}")
    return i


def minimal_block_system(A: ActionInstance, seed_pair) -> BlockSystem:
    """Finest invariant partition with both seed points in one block.

    Classical union-find refinement: identify the seeds, then propagate
    every forced identification through the generators. May return the
    universal partition.
    """
    a, b = (_check_index(p, A.degree, "point") for p in seed_pair)
    if a == b:
        raise ValueError("seed points must be distinct")
    G = A.group
    if not G.is_transitive():
        raise IntransitiveActionError("block systems are only formed on transitive actions")
    n = G.degree
    gens = [g.images for g in G.generators]
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = [(a, b)]
    while queue:
        x, y = queue.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        if ry < rx:
            rx, ry = ry, rx
        parent[ry] = rx
        for g in gens:
            queue.append((g[x], g[y]))

    groups: dict[int, list[int]] = {}
    for p in range(n):
        groups.setdefault(find(p), []).append(p)
    return BlockSystem.from_blocks(groups.values(), n)


def _minimal_systems(A: ActionInstance):
    """The minimal block systems of A with a block (0, beta), beta = 1, 2, ...,
    that are not universal."""
    for beta in range(1, A.degree):
        system = minimal_block_system(A, (0, beta))
        if system.num_blocks > 1:
            yield system


def is_primitive(A: ActionInstance) -> bool:
    """Transitive with no nontrivial invariant partition; size-1 domains count."""
    return A.group.is_transitive() and not any(_minimal_systems(A))


def maximal_block_systems(A: ActionInstance) -> list[BlockSystem]:
    """All invariant partitions with more than one block and primitive quotient.

    The singleton partition qualifies exactly when the action itself is
    primitive. Found by coarsening, starting at the singleton partition:
    each system whose quotient is not primitive is replaced by the pullbacks
    of the quotient's minimal systems; ordered by block count, then blocks.
    found maps the blocks of every system visited to the system if it is
    maximal and to None if not, so each system is coarsened once. An
    intransitive action raises IntransitiveActionError from the first
    minimal system sought, on the quotient by the singletons.
    """
    n = A.degree
    if n < 2:
        raise ValueError("maximal block systems need a domain of size at least 2")
    found: dict[tuple[tuple[int, ...], ...], BlockSystem | None] = {}

    def coarsen(system: BlockSystem) -> None:
        if system.blocks in found:
            return
        coarser = list(_minimal_systems(quotient_action(A, system)))
        found[system.blocks] = None if coarser else system
        for qsys in coarser:
            pulled = [[p for j in qblock for p in system.blocks[j]] for qblock in qsys.blocks]
            coarsen(BlockSystem.from_blocks(pulled, n))

    coarsen(BlockSystem.singletons(n))
    return sorted(filter(None, found.values()), key=lambda s: (s.num_blocks, s.blocks))


def _induced(G: PermGroup, points, image_of) -> PermGroup:
    """The image of G on a list of points; image_of(g, x) is the position of
    the image of x under g."""
    return PermGroup(
        len(points), [Permutation(tuple(image_of(g, x) for x in points)) for g in G.generators]
    )


def quotient_action(A: ActionInstance, S: BlockSystem) -> ActionInstance:
    """The action induced on the blocks of an invariant partition."""
    G = A.group
    if S.degree != G.degree:
        raise DegreeMismatchError(f"system degree {S.degree} != action degree {G.degree}")
    if not is_invariant(G, S):
        raise InvalidPartitionError("partition is not invariant under the group")
    group = _induced(G, S.blocks, lambda g, block: S.block_of(g(block[0])))
    domain = Domain(S.labels(A.domain))
    return ActionInstance(group, domain, f"blocks({S.num_blocks}x{len(S.blocks[0])})", A.source_order)


def _blocks(G: PermGroup, k: int):
    """The k-subsets of G's points in combinations order, their labels
    "{1,2}", and per generator the index of each subset's image."""
    subsets = list(combinations(range(G.degree), k))
    index = {s: i for i, s in enumerate(subsets)}
    tables = [
        [index[tuple(sorted([g[p] for p in s]))] for s in subsets]
        for g in (h.images for h in G.generators)
    ]
    labels = ["{" + ",".join(str(p + 1) for p in s) + "}" for s in subsets]
    return subsets, labels, tables


def ksubsets_action(G: PermGroup, k: int) -> ActionInstance:
    """G (natural on n points) acting on all k-element subsets.

    The number of subsets is checked against the point guard before any
    is listed."""
    n = G.degree
    if not 1 <= k <= n // 2:
        raise ValueError(f"k must satisfy 1 <= k <= n/2, got k={k} with n={n}")
    count = comb(n, k)
    if count > DEFAULT_MAX_DEGREE:
        raise DegreeLimitError(f"degree {count} exceeds guard {DEFAULT_MAX_DEGREE}")
    _, labels, tables = _blocks(G, k)
    group = PermGroup(len(labels), [Permutation(t) for t in tables])
    return ActionInstance(group, Domain(tuple(labels)), f"ksubsets({k})", G.order())


def partitions_action(G: PermGroup, a: int, b: int) -> ActionInstance:
    """G (natural on n = a*b points) acting on partitions into b parts of size a.

    A partition is the sorted tuple of the indices of its blocks among the
    a-subsets in combinations order, so its blocks are ordered by least
    point, and partitions are listed in lexicographic order, each block
    taking the least point left. Its image under a generator is its blocks'
    images from the a-subset table, sorted. The number of partitions,
    n! / ((a!)^b b!), is checked against the point guard before any is
    listed."""
    n = G.degree
    if a < 2 or b < 2:
        raise ValueError(f"need part size >= 2 and part count >= 2, got a={a}, b={b}")
    if n != a * b:
        raise ValueError(f"degree {n} is not a*b = {a * b}")
    count = factorial(n) // (factorial(a) ** b * factorial(b))
    if count > DEFAULT_MAX_DEGREE:
        raise DegreeLimitError(f"degree {count} exceeds guard {DEFAULT_MAX_DEGREE}")
    blocks, block_labels, tables = _blocks(G, a)
    # per least point, the blocks starting there as (bit mask, index)
    starting: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, block in enumerate(blocks):
        starting[block[0]].append((sum(1 << p for p in block), i))
    # partial partitions with the points left, as a bit mask
    level = [((), (1 << n) - 1)]
    for _ in range(b):
        level = [
            (part + (i,), left ^ mask)
            for part, left in level
            for mask, i in starting[(left & -left).bit_length() - 1]
            if mask & left == mask
        ]
    parts = [part for part, _ in level]
    index = {part: i for i, part in enumerate(parts)}
    images = [
        Permutation([index[tuple(sorted([t[i] for i in part]))] for part in parts])
        for t in tables
    ]
    labels = tuple("|".join([block_labels[i] for i in part]) for part in parts)
    return ActionInstance(
        PermGroup(len(parts), images), Domain(labels), f"partitions({a},{b})", G.order()
    )


def _coset_canonical(H_chain, x: Images) -> Images:
    """The element of Hx whose base-image tuple is lexicographically least."""
    y = x
    for level in H_chain.levels:
        best = min(level.orbit, key=lambda gamma: y[gamma])
        if best != level.beta:
            y = compose_images(level.transversal[best], y)
    return y


def coset_action(G: PermGroup, H: PermGroup) -> ActionInstance:
    """G acting on the right cosets of H by right multiplication.

    Cosets are identified by a canonical representative (the element with
    least base-image tuple, via H's chain), enumerated breadth-first and
    then ordered by representative. Faithful exactly when H has trivial
    core in G.
    """
    if H.degree != G.degree:
        raise DegreeMismatchError(f"subgroup degree {H.degree} != group degree {G.degree}")
    if not all(G.contains(h) for h in H.generators):
        raise NotASubgroupError("H has a generator outside G")
    index = G.order() // H.order()
    if index > DEFAULT_MAX_DEGREE:
        raise DegreeLimitError(f"index {index} exceeds guard {DEFAULT_MAX_DEGREE}")
    chain = H.chain()
    # representatives are packed, as they compose with H's chain elements
    gens = [pack_images(g.images) for g in G.generators]

    @cache
    def times(x, g):
        return _coset_canonical(chain, compose_images(x, g))

    ordered = sorted(_orbit(_coset_canonical(chain, identity_images(G.degree)), gens, times))
    pos = {rep: i for i, rep in enumerate(ordered)}
    images = [Permutation(tuple(pos[times(rep, g)] for rep in ordered)) for g in gens]
    labels = tuple("H" + print_cycles(Permutation(rep)) for rep in ordered)
    name = H.name if H.name else "H"
    return ActionInstance(
        PermGroup(len(ordered), images), Domain(labels), f"cosets({name})", G.order()
    )


def restriction(A: ActionInstance, points) -> ActionInstance:
    """The action of the same group on an invariant subset, relabeled 0..|Δ|-1."""
    pts = sorted({_check_index(p, A.degree, "point") for p in points})
    pt_set = set(pts)
    G = A.group
    for g in G.generators:
        for p in pts:
            if g(p) not in pt_set:
                raise ValueError(f"subset is not invariant: generator moves {p} outside")
    pos = {p: i for i, p in enumerate(pts)}
    labels = tuple(A.domain.labels[p] for p in pts)
    tag = "{" + ",".join(labels) + "}" if len(pts) <= 12 else f"{len(pts)} points"
    group = _induced(G, pts, lambda g, p: pos[g(p)])
    return ActionInstance(group, Domain(labels), f"restriction({tag})", A.source_order)


def union(instances) -> ActionInstance:
    """Disjoint union of actions of one group, acting diagonally.

    Generator lists must align positionally (that is what "same group"
    means here); labels gain a summand prefix "i:".
    """
    instances = list(instances)
    if not instances:
        raise ValueError("union needs at least one action")
    num_gens = len(instances[0].group.generators)
    source = instances[0].source_order
    for inst in instances[1:]:
        if len(inst.group.generators) != num_gens:
            raise ValueError("union summands have mismatched generator counts")
        if inst.source_order != source:
            raise ValueError("union summands disagree on the acting group's order")
    total = sum(inst.degree for inst in instances)
    images = []
    for j in range(num_gens):
        img: list[int] = []
        offset = 0
        for inst in instances:
            g = inst.group.generators[j]
            img.extend(offset + g(p) for p in range(inst.degree))
            offset += inst.degree
        images.append(Permutation(tuple(img)))
    labels = tuple(
        f"{i + 1}:{label}"
        for i, inst in enumerate(instances)
        for label in inst.domain.labels
    )
    tag = ", ".join(inst.provenance for inst in instances)
    return ActionInstance(PermGroup(total, images), Domain(labels), f"union({tag})", source)


def actions_equivalent(a: ActionInstance, b: ActionInstance) -> bool:
    """Whether two transitive actions of one group are the same up to relabeling.

    Decided on the disjoint union: the actions are equivalent exactly when
    the stabilizer of a point on the first side fixes some point on the
    second side (equal degrees force the two point stabilizers to coincide,
    which is the usual stabilizer-conjugacy criterion).
    """
    if not a.group.is_transitive() or not b.group.is_transitive():
        raise IntransitiveActionError("equivalence is defined for transitive actions")
    if a.degree != b.degree:
        return False
    stab = union([a, b]).group.pointwise_stabilizer([0])
    return any(all(g(p) == p for g in stab.generators) for p in range(a.degree, 2 * a.degree))


def transitivity_degree(G: PermGroup) -> int:
    """Largest m such that G is m-transitive (0 if intransitive).

    Read off the chain with base 0, 1, ..., n-1: level j holds the orbit
    of j under the pointwise stabilizer of 0, ..., j-1, so G is
    m-transitive exactly when the first m levels have orbits of sizes n,
    n-1, ..., n-m+1. m-transitivity does not depend on which points are
    fixed, so this one chain decides it; the closure backtrack reads the
    same chain.
    """
    n = G.degree
    levels = G.chain(preferred_base=range(n)).levels
    m = 0
    while m < n and len(levels[m].orbit) == n - m:
        m += 1
    return m


def setwise_block_stabilizer(A: ActionInstance, S: BlockSystem, block_indices) -> PermGroup:
    """Subgroup of A.group mapping each listed block to itself: on the
    disjoint union of A and its action on the blocks, the pointwise
    stabilizer of the listed blocks, restricted to the points of A."""
    n = A.degree
    fixed = [n + _check_index(j, S.num_blocks, "block index") for j in block_indices]
    stab = union([A, quotient_action(A, S)]).group.pointwise_stabilizer(fixed)
    return PermGroup(n, [Permutation(h.images[:n]) for h in stab.generators])
