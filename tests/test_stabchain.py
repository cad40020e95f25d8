"""Stabilizer chains against brute-force enumeration."""

import hashlib
import sys
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from closurelab import stabchain
from closurelab.actions import ksubsets_action, natural_action, partitions_action, restriction
from closurelab.budget import DEFAULT_MAX_DEGREE
from closurelab.catalog import alternating, catalog_group, dihedral, symmetric
from closurelab.closure import closure_spectrum
from closurelab.errors import DegreeLimitError
from closurelab.perm import Permutation, parse_cycles
from closurelab.stabchain import PermGroup, build_chain
from closurelab.tupleorbits import _canonical_image, _orbitals

from oracles import (
    brute_elements,
    brute_orbits,
    brute_pointwise_stabilizer,
    brute_transporter,
)
from test_harness import generator_sets


def group(degree, *cycle_texts, name=None):
    return PermGroup(degree, [parse_cycles(t, degree) for t in cycle_texts], name=name)


def S4():
    return group(4, "(1 2)", "(1 2 3 4)", name="S4")


def A5():
    return group(5, "(1 2 3)", "(1 2 3 4 5)", name="A5")


def test_order_of_small_groups():
    cases = [
        (group(6, "(1 2 3 4 5 6)"), 6),
        (S4(), 24),
        (group(4, "(1 2 3)", "(2 3 4)"), 12),
        (group(4, "(1 2 3 4)", "(1 3)"), 8),
        (A5(), 60),
        (group(5, "(1 2)", "(1 2 3 4 5)"), 120),
        (group(4, "(1 2)(3 4)", "(1 3)(2 4)"), 4),
        (group(5, "(1 2)", "(3 4 5)"), 6),
    ]
    for G, expected in cases:
        assert G.order() == expected
        gens = [g.images for g in G.generators]
        assert len(brute_elements(gens, G.degree)) == expected


def test_membership_agrees_with_enumeration():
    from itertools import permutations

    for G in (S4(), group(4, "(1 2 3)", "(2 3 4)"), group(4, "(1 2 3 4)", "(1 3)")):
        elems = brute_elements([g.images for g in G.generators], G.degree)
        for images in permutations(range(G.degree)):
            assert G.contains(Permutation(images)) == (images in elems)


def test_trivial_group():
    G = PermGroup.trivial(5)
    assert G.order() == 1
    assert G.contains(Permutation.identity(5))
    assert not G.contains(parse_cycles("(1 2)", 5))


def test_identity_generators_are_kept_but_ignored():
    e = Permutation.identity(4)
    G = PermGroup(4, [e, parse_cycles("(1 2)", 4), e])
    assert len(G.generators) == 3
    assert G.order() == 2


def test_orbits_match_brute():
    G = group(7, "(1 2)", "(3 4 5)", "(6 7)")
    gens = [g.images for g in G.generators]
    assert G.orbits() == brute_orbits(gens, 7)
    assert G.orbits() == [[0, 1], [2, 3, 4], [5, 6]]
    assert not G.is_transitive()
    assert A5().is_transitive()


def test_elements_enumeration():
    G = S4()
    got = {p.images for p in G.elements()}
    assert got == brute_elements([g.images for g in G.generators], 4)
    with pytest.raises(DegreeLimitError):
        A5().elements(limit=10)


def test_chain_base_prefix_is_respected():
    G = A5()
    chain = G.chain(preferred_base=[2, 0])
    assert chain.base[:2] == (2, 0)
    assert chain.order() == 60
    # duplicate points collapse
    chain2 = G.chain(preferred_base=[2, 2, 0])
    assert chain2.base[:2] == (2, 0)


def test_chain_with_known_order_hint():
    G = A5()
    hinted = build_chain(5, [g.images for g in G.generators], known_order=60)
    assert hinted.order() == 60
    assert hinted.contains_images(parse_cycles("(1 2 3)", 5).images)
    assert not hinted.contains_images(parse_cycles("(1 2)", 5).images)


def test_degree_guard():
    with pytest.raises(DegreeLimitError):
        build_chain(DEFAULT_MAX_DEGREE + 1, [])


def _tuples(level):
    """A level's generators and transversal with every element as a tuple,
    whichever representation the chain stores, reading the representative of
    every orbit point."""
    gens = [tuple(g) for g in level.gens]
    return gens, {pt: tuple(level.transversal[pt]) for pt in level.orbit}


def _level_digests(chain):
    return [
        hashlib.sha256(
            repr((level.beta, gens, sorted(trans.items()))).encode()
        ).hexdigest()[:16]
        for level in chain.levels
        for gens, trans in [_tuples(level)]
    ]


# Node counts of the searches depend on the transversal representatives;
# these pins hold every level of each chain and of one rebased chain.
PINNED_LEVELS = [
    (
        lambda: catalog_group("A5").group,
        (4, 1),
        ["9752f2191f872106", "ded641e2fddf7d7a", "e0b88028300511e7"],
        ["814adddd34ab37c1", "d3e14fb70e2ade52", "babd6b5d5fb6f9c6"],
    ),
    (
        lambda: catalog_group("PSL(2,7)").group,
        (7, 3),
        ["f9d0b0e90c62e1b5", "d06b10bb05b6341f", "fc59cd7cf15923ca"],
        ["1bc4442bd8b0fceb", "62fbd75174e91ba0", "197b68f2491fe62c"],
    ),
    (
        lambda: catalog_group("M11").group,
        (10, 4),
        ["e71523d4445bde2f", "6b5fbd34f4bccca9", "082c717c3d70101f", "3ece317a28146e3b"],
        ["ab671c0136b3cd5c", "67b776d04313fc2b", "fbad5f9891c6c31b", "a36f77948340723d"],
    ),
    (
        lambda: ksubsets_action(symmetric(7), 2).group,
        (20, 7),
        [
            "e6e6bd3b62448629",
            "f04afd8b6455b957",
            "0cfb9b147d08cff3",
            "88f8c983ad8e1dd3",
            "d03f214fe9929883",
        ],
        [
            "2ad1cd1824a3cd7f",
            "a50e49acfbd8c7d0",
            "98ff20aec141ba99",
            "bcfd544da495475e",
            "ebb749bbb1fc30e8",
        ],
    ),
]


@pytest.mark.parametrize("make,prefix,own,rebased", PINNED_LEVELS)
def test_chain_levels_are_pinned(make, prefix, own, rebased):
    G = make()
    assert _level_digests(G.chain()) == own
    assert _level_digests(G.chain(preferred_base=prefix)) == rebased


def test_chain_of_degenerate_generator_lists():
    a, b = (g.images for g in A5().generators)
    e = tuple(range(5))
    plain = build_chain(5, [a, b])
    padded = build_chain(5, [e, a, a, e, b])
    assert padded.order() == plain.order() == 60
    assert padded.base == plain.base
    assert [_tuples(level)[1] for level in padded.levels] == [
        _tuples(level)[1] for level in plain.levels
    ]
    assert all(e not in _tuples(level)[0] for level in padded.levels)


def test_chain_with_a_forced_base_of_fixed_points():
    e = tuple(range(5))
    # the trivial group with a forced base: one level per point, each trivial
    forced = PermGroup.trivial(5).chain(preferred_base=(2, 0))
    assert forced.base == (2, 0)
    assert [_tuples(level)[1] for level in forced.levels] == [{2: e}, {0: e}]
    assert forced.order() == 1
    for G in (PermGroup.trivial(5), A5()):
        with pytest.raises(ValueError):
            G.chain(preferred_base=(5,))
        with pytest.raises(ValueError):
            G.chain(preferred_base=(0, -1))
        with pytest.raises(ValueError):
            G.pointwise_stabilizer([5])


def _check_rebased(G, prefix, elems):
    # the rebased chain against the brute element set: its base begins with
    # the prefix, and level i holds the orbit of its base point under the
    # stabilizer of the base points before it, with transversal elements and
    # generators from that stabilizer
    chain = G.chain(preferred_base=prefix)
    key = tuple(dict.fromkeys(prefix))
    base = chain.base
    assert base[: len(key)] == key
    assert len(set(base)) == len(base)
    assert chain.order() == len(elems)
    for i, level in enumerate(chain.levels):
        stab = brute_pointwise_stabilizer(elems, base[:i])
        assert set(level.orbit) == {e[level.beta] for e in stab}
        gens, trans = _tuples(level)
        for pt, u in trans.items():
            assert u[level.beta] == pt
            assert u in stab
        assert all(g in stab for g in gens)
    H = G.pointwise_stabilizer(prefix)
    assert {p.images for p in H.elements()} == brute_pointwise_stabilizer(elems, key)


@settings(max_examples=80, deadline=None)
@given(generator_sets(max_degree=7), st.data())
def test_rebased_chains_match_brute(G, data):
    n = G.degree
    points = st.integers(min_value=0, max_value=n - 1)
    prefix = data.draw(st.lists(points, min_size=1, max_size=3))
    elems = brute_elements([g.images for g in G.generators], n)
    _check_rebased(G, prefix, elems)
    # rebasing a stabilizer, which shares levels with its parent's chains,
    # leaves those chains as they were
    H = G.pointwise_stabilizer(prefix[:1])
    more = data.draw(st.lists(points, min_size=1, max_size=3))
    _check_rebased(H, more, brute_pointwise_stabilizer(elems, prefix[:1]))
    _check_rebased(G, prefix, elems)
    _check_rebased(G, more, elems)


def _embedded(images, n):
    """images on n points, followed by 256 fixed points: past the degree up
    to which chains store their elements as bytes."""
    return tuple(images) + tuple(range(n, n + 256))


def _check_same_chain(small, big, n):
    # the bytes chain and the tuple chain of the embedded group: the same
    # base, orbits in the same order, and elements that agree on 0..n-1
    assert big.base == small.base
    # (the tuple chain composes its representatives when they are read, the
    # bytes chain as it walks its orbits)
    for lo, hi in zip(small.levels, big.levels, strict=True):
        assert list(hi.orbit) == list(lo.orbit)
        assert all(type(lo.transversal[pt]) is bytes for pt in lo.orbit)
        assert all(type(hi.transversal[pt]) is tuple for pt in hi.orbit)
        lo_gens, lo_trans = _tuples(lo)
        assert [g[:n] for g in hi.gens] == lo_gens
        assert [hi.transversal[pt][:n] for pt in hi.orbit] == list(lo_trans.values())


@settings(max_examples=60, deadline=None)
@given(generator_sets(max_degree=7), st.data())
def test_bytes_and_tuple_chains_match(G, data):
    n = G.degree
    big = PermGroup(n + 256, [Permutation(_embedded(g.images, n)) for g in G.generators])
    _check_same_chain(G.chain(), big.chain(), n)
    # members as words in the generators, and arbitrary permutations
    words = st.lists(st.sampled_from(G.generators), max_size=6) if G.generators else st.just([])
    arbitrary = data.draw(st.lists(st.permutations(range(n)), max_size=4))
    drawn = [Permutation(p) for p in arbitrary]
    for word in data.draw(st.lists(words, min_size=1, max_size=4)):
        p = Permutation(range(n))
        for g in word:
            p = p * g
        drawn.append(p)
    for p in drawn:
        embedded = Permutation(_embedded(p.images, n))
        assert big.contains(embedded) == G.contains(p)
    points = st.integers(min_value=0, max_value=n - 1)
    prefix = data.draw(st.lists(points, min_size=1, max_size=3))
    _check_same_chain(G.chain(preferred_base=prefix), big.chain(preferred_base=prefix), n)


@pytest.mark.parametrize("n,kind", [(256, bytes), (257, tuple)])
def test_chains_on_either_side_of_the_bytes_line(n, kind):
    rotation = Permutation([(i + 1) % n for i in range(n)])
    reflection = Permutation([-i % n for i in range(n)])
    swap = Permutation([1, 0] + list(range(2, n)))
    cyclic = PermGroup(n, [rotation])
    assert cyclic.order() == n
    level = cyclic.chain().levels[0]
    assert all(type(level.transversal[pt]) is kind for pt in level.orbit)
    assert cyclic.contains(rotation * rotation * rotation)
    assert not cyclic.contains(swap)
    assert not cyclic.contains(reflection)
    assert cyclic.pointwise_stabilizer([0]).order() == 1
    # the dihedral group: the stabilizer of 0 is generated by the reflection
    dihedral = PermGroup(n, [rotation, reflection])
    assert dihedral.order() == 2 * n
    assert dihedral.contains(reflection * rotation)
    assert not dihedral.contains(swap)
    H = dihedral.pointwise_stabilizer([0])
    assert H.order() == 2
    assert [Permutation(g.images) for g in H.generators] == [reflection]
    assert all(type(g.images) is tuple for g in H.generators)
    assert H.contains(reflection) and not H.contains(rotation)


def test_tuple_transversals_compose_paths_longer_than_the_recursion_limit():
    # with its order known, the chain of a cyclic group walks its one orbit
    # and composes no representative; the tree path from 0 to n - 1 has
    # n - 1 edges
    n = 1500
    assert n - 1 > sys.getrecursionlimit()
    rotation = Permutation([(i + 1) % n for i in range(n)])
    power = Permutation([(i + n - 1) % n for i in range(n)])
    swap = Permutation([1, 0] + list(range(2, n)))
    cyclic = PermGroup(n, [rotation], known_order=n)
    level = cyclic.chain().levels[0]
    assert (len(level.orbit), len(level.transversal)) == (n, 1)
    assert level.transversal[n - 1] == power.images
    assert len(level.transversal) == n
    # membership composes the representatives it reads, from a fresh chain
    fresh = PermGroup(n, [rotation], known_order=n)
    assert fresh.contains(power * power)
    assert not fresh.contains(swap)
    assert fresh.contains(rotation) and fresh.contains(power)


@pytest.mark.parametrize("n,kind", [(256, bytes), (257, tuple)])
def test_elements_on_either_side_of_the_bytes_line(n, kind):
    # one walk lists the elements, packed as bytes or as tuples by degree
    G = dihedral(n)
    assert all(type(x) is kind for x in G._element_images())
    got = [p.images for p in G.elements()]
    assert len(got) == 2 * n
    assert set(got) == brute_elements([g.images for g in G.generators], n)


@pytest.mark.parametrize(
    "make",
    [
        lambda: catalog_group("A5").group,
        lambda: catalog_group("PSL(2,7)").group,
        lambda: catalog_group("M11").group,
        lambda: ksubsets_action(symmetric(7), 2).group,
    ],
    ids=["A5", "PSL(2,7)", "M11", "S7 on pairs"],
)
def test_rebased_chains_of_catalog_groups_match_brute(make):
    G = make()
    n = G.degree
    elems = brute_elements([g.images for g in G.generators], n)
    for prefix in ([n - 1], [1, 0], [n - 1, 2, n - 1], [3, n - 2, 0], [0, 1, 2]):
        _check_rebased(G, prefix, elems)


def test_chain_is_deterministic():
    G1, G2 = A5(), A5()
    c1, c2 = G1.chain(), G2.chain()
    assert c1.base == c2.base
    # generators and transversals, keys and elements alike
    assert [_tuples(level) for level in c1.levels] == [_tuples(level) for level in c2.levels]


@pytest.mark.parametrize(
    "make",
    [
        lambda: ksubsets_action(catalog_group("M24").group, 2),
        lambda: ksubsets_action(catalog_group("M22").group, 3),
        lambda: ksubsets_action(catalog_group("M11").group, 4),
        lambda: partitions_action(catalog_group("M12").group, 6, 2),
        lambda: ksubsets_action(alternating(12), 4),
        lambda: ksubsets_action(symmetric(12), 4),
        lambda: ksubsets_action(symmetric(14), 3),
        lambda: partitions_action(alternating(10), 2, 5),
        lambda: partitions_action(symmetric(10), 2, 5),
        lambda: catalog_group("D600"),
    ],
    ids=[
        "M24 on pairs",
        "M22 on 3-sets",
        "M11 on 4-sets",
        "M12 on 6+6 partitions",
        "A12 on 4-sets",
        "S12 on 4-sets",
        "S14 on 3-sets",
        "A10 on 5 pairs",
        "S10 on 5 pairs",
        "D600",
    ],
)
def test_chains_stopped_at_a_known_order_match_the_full_scan(make):
    # the chain stopped at the known order against the chain that sifts
    # every Schreier generator: the same order, each holds the other's
    # strong generators, and rebased at one base prefix, the same orbit at
    # every level; and the stopped chain is the same on a second build
    A = make()
    gens = [g.images for g in A.group.generators]
    scan = build_chain(A.degree, gens)
    stopped = build_chain(A.degree, gens, known_order=A.source_order)
    assert type(scan.levels[0].gens[0]) is tuple
    assert scan.order() == stopped.order() == A.source_order
    assert all(stopped.contains_images(g) for g in scan.strong_generators())
    assert all(scan.contains_images(g) for g in stopped.strong_generators())
    key = tuple(dict.fromkeys(stopped.base + scan.base))
    a, b = stabchain._rebase(scan, key), stabchain._rebase(stopped, key)
    assert a.base[: len(key)] == b.base[: len(key)] == key
    assert [set(level.orbit) for level in a.levels] == [set(level.orbit) for level in b.levels]
    again = build_chain(A.degree, gens, known_order=A.source_order)
    assert again.base == stopped.base
    assert [level.gens for level in again.levels] == [level.gens for level in stopped.levels]


def test_a_chain_whose_known_order_is_not_reached_is_still_verified():
    # C2 x S24 on 26 points, acting on its orbit of the 276 pairs inside
    # the S24 part: the C2 acts trivially there, so no chain reaches the
    # order of the acting group
    S24 = symmetric(24)
    gens = [Permutation(tuple(g.images) + (24, 25)) for g in S24.generators]
    G = PermGroup(26, gens + [Permutation(tuple(range(24)) + (25, 24))])
    pairs = ksubsets_action(G, 2)
    A = restriction(pairs, pairs.group.orbit_of(0))
    assert A.degree == 276 and A.source_order == 2 * factorial(24)
    assert not A.faithful
    assert A.kernel_order == 2
    assert A.group.order() == factorial(24)
    # the random sifts end short of the bound, and the build starts over
    # with the full scan, so the chain is the full scan's
    chain = A.group.chain()
    scan = build_chain(276, [g.images for g in A.group.generators])
    assert chain.base == scan.base
    assert [level.gens for level in chain.levels] == [level.gens for level in scan.levels]
    # a bound of twice the order: the chain is built to the end
    B = partitions_action(symmetric(10), 2, 5).group
    assert not B._has_order(2 * factorial(10))
    assert B.order() == factorial(10)


def test_pointwise_stabilizer_matches_brute():
    for G in (S4(), A5(), group(6, "(1 2 3 4 5 6)", "(2 6)(3 5)")):
        elems = brute_elements([g.images for g in G.generators], G.degree)
        for pts in ([0], [1], [0, 1], [2, 0], [0, 1, 2]):
            H = G.pointwise_stabilizer(pts)
            want = brute_pointwise_stabilizer(elems, pts)
            assert H.order() == len(want)
            assert {p.images for p in H.elements()} == want


def test_pointwise_stabilizer_of_nothing_is_whole_group():
    G = S4()
    assert G.pointwise_stabilizer([]).order() == 24


def test_pointwise_stabilizer_builds_no_chain_past_the_groups_own(monkeypatch):
    calls = []
    real = stabchain.build_chain

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    G = A5()
    G.order()
    assert G.chain().base[:2] == (0, 2)
    monkeypatch.setattr(stabchain, "build_chain", counting)
    # the chain's base already begins with the points: its tail, no build
    H = G.pointwise_stabilizer([0, 0])
    assert H.order() == 12
    assert H.pointwise_stabilizer([2]).order() == 3
    assert calls == []
    # a point off the base is swapped into it, also for a stabilizer
    assert G.pointwise_stabilizer([1]).order() == 12
    assert H.pointwise_stabilizer([1]).order() == 3
    assert G.pointwise_stabilizer([4, 1, 3]).order() == 1
    assert calls == []


def test_orbit_of_rejects_points_out_of_range():
    # -3 once returned the orbit of point 1, and 4 raised a bare IndexError
    G = group(4, "(1 2)")
    assert G.orbit_of(1) == [0, 1]
    for p in (-3, 4):
        with pytest.raises(ValueError, match=f"point {p} outside 0..3"):
            G.orbit_of(p)


def _check_against_brute(H, want, degree):
    assert H.order() == len(want)
    for images in permutations(range(degree)):
        assert H.contains(Permutation(images)) == (images in want)
    orbits = brute_orbits(list(want), degree)
    assert H.orbits() == orbits
    for orbit in orbits:
        for p in orbit:
            assert H.orbit_of(p) == orbit
    for src in permutations(range(degree), min(2, degree)):
        for dst in permutations(range(degree), len(src)):
            same = _canonical_image(H, src) == _canonical_image(H, dst)
            assert same == (brute_transporter(want, src, dst) is not None)


@settings(max_examples=30, deadline=None)
@given(
    generator_sets(),
    st.lists(st.integers(min_value=0, max_value=5), max_size=4),
    st.lists(st.integers(min_value=0, max_value=5), max_size=2),
)
def test_derived_stabilizer_matches_brute(G, first, second):
    n = G.degree
    first = [p % n for p in first]
    second = [p % n for p in second]
    elems = brute_elements([g.images for g in G.generators], n)
    H = G.pointwise_stabilizer(first)
    _check_against_brute(H, brute_pointwise_stabilizer(elems, first), n)
    K = H.pointwise_stabilizer(second)
    _check_against_brute(K, brute_pointwise_stabilizer(elems, first + second), n)


@settings(max_examples=30, deadline=None)
@given(generator_sets(), st.lists(st.integers(min_value=0, max_value=5), max_size=3))
def test_answers_after_chain_rebuilds_match_brute(G, pts):
    # a rebase derives a new chain that shares levels with the group's own;
    # the group's answers after it must be those from before it
    n = G.degree
    elems = brute_elements([g.images for g in G.generators], n)
    _check_against_brute(G, elems, n)
    pts = [p % n for p in pts]
    H = G.pointwise_stabilizer(pts)
    _check_against_brute(H, brute_pointwise_stabilizer(elems, pts), n)
    _check_against_brute(G, elems, n)


def _check_transporters_against_brute(lengths):
    # two tuples share a canonical image exactly when some element of the
    # group (a transporter) carries one to the other
    for G in (A5(), group(6, "(1 2 3 4 5 6)", "(2 6)(3 5)")):
        elems = brute_elements([g.images for g in G.generators], G.degree)
        for k in lengths:
            tuples = list(permutations(range(G.degree), k))
            images = {t: _canonical_image(G, t) for t in tuples}
            for src in tuples:
                assert images[src] == min(tuple(e[p] for p in src) for e in elems)
                for dst in tuples:
                    want = brute_transporter(elems, src, dst)
                    assert (images[src] == images[dst]) == (want is not None)


def test_transporter_agrees_with_brute_search():
    _check_transporters_against_brute((1, 2))


def test_transporter_on_longer_tuples():
    _check_transporters_against_brute((3,))


@settings(max_examples=60, deadline=None)
@given(generator_sets(), st.data())
def test_canonical_image_is_the_least_image(G, data):
    n = G.degree
    length = data.draw(st.integers(min_value=1, max_value=min(4, n)))
    src = tuple(data.draw(st.permutations(range(n)))[:length])
    dst = tuple(data.draw(st.permutations(range(n)))[:length])
    elems = brute_elements([g.images for g in G.generators], n)
    image = _canonical_image(G, src)
    assert image == min(tuple(e[p] for p in src) for e in elems)
    same = image == _canonical_image(G, dst)
    assert same == (brute_transporter(elems, src, dst) is not None)


@settings(max_examples=40, deadline=None)
@given(generator_sets(max_degree=5), st.randoms(use_true_random=False))
def test_canonical_images_do_not_depend_on_the_memo(G, rng):
    # the closure chain fills G's memo of tuples and prefixes; images asked
    # for afterwards in any order must be those of a fresh copy of G, with no
    # memo, and the least images. All tuples of lengths 1 to 4 are asked,
    # so those whose image's stabilizer is trivial before the last entry are
    # among them wherever G has any
    closure_spectrum(natural_action(G))
    n = G.degree
    elems = brute_elements([g.images for g in G.generators], n)
    tuples = [t for k in range(1, min(4, n) + 1) for t in permutations(range(n), k)]
    rng.shuffle(tuples)
    for t in tuples:
        image = _canonical_image(G, t)
        assert image == _canonical_image(PermGroup(n, G.generators), t)
        assert image == min(tuple(e[p] for p in t) for e in elems)


@settings(max_examples=40, deadline=None)
@given(generator_sets())
def test_orbital_numbers_match_canonical_images(G):
    rows = _orbitals(G)
    images = {}
    for a in range(G.degree):
        for b in range(G.degree):
            image = _canonical_image(G, (a, b) if a != b else (a,))
            assert images.setdefault(rows[a][b], image) == image
    assert len(set(images.values())) == len(images)


def test_same_group_and_subgroup_checks():
    S = S4()
    other = group(4, "(1 2 3 4)", "(1 2)")
    assert S.same_group(other)
    A = group(4, "(1 2 3)", "(2 3 4)")
    assert A.is_subgroup_of(S)
    assert not S.is_subgroup_of(A)
    assert not A.same_group(S)
