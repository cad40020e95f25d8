"""Brute-force oracles for the test suite.

Everything here is written against raw image tuples, independently of the
package under test, and favors exhaustive enumeration over cleverness.
Degrees are expected to stay small (<= 8 or so).
"""

from itertools import combinations, permutations


def mul(p, q):
    """Apply p, then q."""
    return tuple(q[i] for i in p)


def inv(p):
    out = [0] * len(p)
    for i, img in enumerate(p):
        out[img] = i
    return tuple(out)


def brute_elements(gens, degree, limit=500_000):
    """Every element of <gens> by breadth-first closure, as image tuples."""
    ident = tuple(range(degree))
    elems = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in elems:
                    assert len(elems) < limit, "group too large for brute enumeration"
                    elems.add(y)
                    new.append(y)
        frontier = new
    return elems


def brute_transporter(elems, src, dst):
    """Least element (in image-tuple order) mapping src onto dst, or None."""
    for e in sorted(elems):
        if all(e[s] == d for s, d in zip(src, dst)):
            return e
    return None


def brute_pointwise_stabilizer(elems, pts):
    return {e for e in elems if all(e[p] == p for p in pts)}


def brute_setwise_stabilizer(elems, block):
    block = set(block)
    return {e for e in elems if {e[p] for p in block} == block}


def brute_orbits(gens, degree):
    seen = [False] * degree
    out = []
    for start in range(degree):
        if seen[start]:
            continue
        orbit = [start]
        seen[start] = True
        head = 0
        while head < len(orbit):
            pt = orbit[head]
            head += 1
            for g in gens:
                img = g[pt]
                if not seen[img]:
                    seen[img] = True
                    orbit.append(img)
        out.append(sorted(orbit))
    return out


def brute_tuple_orbits(elems, degree, k):
    """The orbit under elems of each injective k-tuple (of every injective
    tuple of all points when k exceeds the degree), keyed by the tuple."""
    tuples = list(permutations(range(degree), min(k, degree)))
    table = {t: set() for t in tuples}
    for e in elems:
        for t in tuples:
            table[t].add(tuple(e[i] for i in t))
    return table


def brute_keeps_tuple_orbits(table, h):
    """Whether h sends every tuple of a brute_tuple_orbits table inside
    its own orbit."""
    return all(tuple(h[i] for i in t) in orbit for t, orbit in table.items())


def brute_k_closure(elems, degree, k):
    """All h in Sym(degree) preserving every orbit on injective k-tuples.

    Direct filtration: tabulate the orbit of each injective k-tuple, then
    keep the permutations h whose action sends every tuple inside its own
    orbit table row.
    """
    table = brute_tuple_orbits(elems, degree, k)
    return {h for h in permutations(range(degree)) if brute_keeps_tuple_orbits(table, h)}


def brute_transitivity_degree(elems, degree):
    m = 0
    while m < degree:
        target = 1
        for i in range(m + 1):
            target *= degree - i
        tup = tuple(range(m + 1))
        orbit = {tuple(e[i] for i in tup) for e in elems}
        if len(orbit) != target:
            break
        m += 1
    return m


def brute_min_base(elems, degree):
    """(size, witness) of a smallest base, checking all smaller sizes fail."""
    for size in range(degree + 1):
        for pts in combinations(range(degree), size):
            if len(brute_pointwise_stabilizer(elems, pts)) == 1:
                return size, pts
    raise AssertionError("no base found, group is not faithful on its domain")


def _set_partitions(items):
    """All partitions of items, each a list of lists."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def brute_invariant_partitions(gens, degree):
    """All invariant partitions with more than one block (singletons included).

    Each partition is returned as a frozenset of frozensets of points.
    """
    out = set()
    for part in _set_partitions(range(degree)):
        if len(part) == 1:
            continue
        blocks = {frozenset(b) for b in part}
        ok = True
        for g in gens:
            for b in blocks:
                if frozenset(g[p] for p in b) not in blocks:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.add(frozenset(blocks))
    return out


def brute_block_systems(gens, degree):
    """Invariant partitions with 1 < #blocks < degree (proper and nontrivial)."""
    return {
        p for p in brute_invariant_partitions(gens, degree) if len(p) < degree
    }


def brute_is_primitive(gens, degree):
    if degree == 1:
        return True
    if brute_orbits(gens, degree) != [list(range(degree))]:
        return False
    return not brute_block_systems(gens, degree)


def brute_maximal_block_systems(gens, degree):
    """Invariant partitions with more than one block and primitive quotient."""
    out = set()
    for part in brute_invariant_partitions(gens, degree):
        blocks = sorted(sorted(b) for b in part)
        pos = {}
        for i, b in enumerate(blocks):
            for p in b:
                pos[p] = i
        qgens = [tuple(pos[g[b[0]]] for b in blocks) for g in gens]
        if brute_is_primitive(qgens, len(blocks)):
            out.add(part)
    return out


def brute_subgroups(elems):
    """Every subgroup of the given element set, as frozensets of tuples.

    Grown by repeatedly extending known subgroups with single elements;
    complete because any subgroup arises by adjoining generators one at a
    time starting from a cyclic seed.
    """
    elems = set(elems)
    degree = len(next(iter(elems)))
    ident = tuple(range(degree))

    def generated(seed):
        out = {ident}
        frontier = [ident]
        while frontier:
            new = []
            for x in frontier:
                for g in seed:
                    y = mul(x, g)
                    if y not in out:
                        out.add(y)
                        new.append(y)
            frontier = new
        return frozenset(out)

    subgroups = {frozenset([ident])}
    frontier = list(subgroups)
    while frontier:
        new = []
        for H in frontier:
            for x in elems:
                if x in H:
                    continue
                K = generated(set(H) | {x})
                if K not in subgroups:
                    subgroups.add(K)
                    new.append(K)
        frontier = new
    return subgroups


def brute_conjugacy_classes_of_subgroups(elems):
    """Subgroup classes as frozensets of frozensets, conjugating by everything."""
    subgroups = brute_subgroups(elems)
    classes = set()
    seen = set()
    for H in subgroups:
        if H in seen:
            continue
        cls = set()
        for g in elems:
            gi = inv(g)
            cls.add(frozenset(mul(mul(gi, h), g) for h in H))
        cls = frozenset(cls)
        seen.update(cls)
        classes.add(cls)
    return classes


def brute_simplicity_defect(gens, degree):
    """Why <gens> is not nonabelian simple, or None when it is.

    "trivial", "abelian", or the set of orders of the proper normal
    closures; the normal closure of x is the group its conjugacy class
    generates, and both are enumerated element by element.
    """
    elems = brute_elements(gens, degree)
    if len(elems) == 1:
        return "trivial"
    if all(mul(a, b) == mul(b, a) for a in gens for b in gens):
        return "abelian"
    ident = tuple(range(degree))
    seen = {ident}
    proper = set()
    for x in sorted(elems):
        if x in seen:
            continue
        cls = {mul(mul(inv(g), x), g) for g in elems}
        seen |= cls
        closure = brute_elements(sorted(cls), degree)
        if len(closure) < len(elems):
            proper.add(len(closure))
    return proper or None


def _info_bound(order, degree):
    t, cap = 0, 1
    while cap < order:
        cap *= degree
        t += 1
    return t


def reference_base_search(elems, degree):
    """(size, witness, visits, sets) of the exact base search, written out
    on element sets and without skipping point sets already searched.

    The same search as the package's: seeded by the greedy base (least
    point of a longest orbit, the first such orbit on ties) and done if
    that meets the information bound; else depth first over the least
    point of each nontrivial orbit of the stabilizer, cut when the path
    plus the information bound cannot beat the best size. visits counts
    the calls of the search, and sets the distinct point sets they fix.
    """
    witness = []
    H = set(elems)
    while len(H) > 1:
        witness.append(max(brute_orbits(H, degree), key=len)[0])
        H = brute_pointwise_stabilizer(H, witness[-1:])
    if len(witness) == _info_bound(len(elems), degree):
        return len(witness), tuple(witness), 0, 0
    best = [len(witness), tuple(witness)]
    path = []
    visits = []

    def dfs(H):
        visits.append(frozenset(path))
        if len(H) == 1:
            best[:] = [len(path), tuple(path)]
            return
        orbs = [o for o in brute_orbits(H, degree) if len(o) > 1]
        if len(path) + _info_bound(len(H), max(map(len, orbs))) >= best[0]:
            return
        for orbit in orbs:
            path.append(orbit[0])
            dfs(brute_pointwise_stabilizer(H, orbit[:1]))
            path.pop()

    dfs(set(elems))
    return best[0], best[1], len(visits), len(set(visits))
