"""Induced actions, block systems, and subgroup enumeration."""

import json
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closurelab import actions, lattice, stabchain
from closurelab.actions import (
    ActionInstance,
    BlockSystem,
    actions_equivalent,
    coset_action,
    is_invariant,
    is_primitive,
    ksubsets_action,
    maximal_block_systems,
    minimal_block_system,
    natural_action,
    partitions_action,
    quotient_action,
    restriction,
    setwise_block_stabilizer,
    transitivity_degree,
    union,
)
from closurelab.budget import Budget
from closurelab.catalog import alternating, catalog_group, symmetric
from closurelab.errors import (
    BudgetExceededError,
    DegreeLimitError,
    IntransitiveActionError,
    InvalidPartitionError,
    NotASubgroupError,
)
from closurelab.lattice import subgroup_lattice, subgroups_up_to_conjugacy
from closurelab.perm import Permutation, parse_cycles
from closurelab.stabchain import PermGroup

from oracles import (
    brute_conjugacy_classes_of_subgroups,
    brute_block_systems,
    brute_elements,
    brute_is_primitive,
    brute_maximal_block_systems,
    brute_setwise_stabilizer,
    brute_transitivity_degree,
    inv,
    mul,
)
from test_harness import generator_sets


def group(degree, *cycle_texts, name=None):
    return PermGroup(degree, [parse_cycles(t, degree) for t in cycle_texts], name=name)


def D8():
    return group(4, "(1 2 3 4)", "(1 3)", name="D8")


def C6():
    return group(6, "(1 2 3 4 5 6)", name="C6")


def A5():
    return group(5, "(1 2 3)", "(1 2 3 4 5)", name="A5")


def S5():
    return group(5, "(1 2)", "(1 2 3 4 5)", name="S5")


def as_sets(system):
    return frozenset(frozenset(b) for b in system.blocks)


def test_orbits_of_small_action():
    A = natural_action(group(3, "(1 2)"))
    assert A.group.orbits() == [[0, 1], [2]]
    assert natural_action(group(4, "(1 2 3)", "(2 3 4)")).group.orbits() == [[0, 1, 2, 3]]


def test_minimal_block_system_diagonals():
    A = natural_action(D8())
    S = minimal_block_system(A, (0, 2))
    assert S.blocks == ((0, 2), (1, 3))
    assert S.block_of(3) == 1
    assert S.labels(A.domain) == ("{1,3}", "{2,4}")
    assert is_invariant(A.group, S)


def test_minimal_block_system_cyclic_cosets():
    A = natural_action(C6())
    S = minimal_block_system(A, (0, 2))
    assert S.blocks == ((0, 2, 4), (1, 3, 5))


def test_minimal_block_system_primitive_gives_universal():
    A = natural_action(A5())
    for beta in range(1, 5):
        assert minimal_block_system(A, (0, beta)).num_blocks == 1


def test_minimal_block_system_validation():
    with pytest.raises(ValueError):
        minimal_block_system(natural_action(D8()), (2, 2))
    with pytest.raises(IntransitiveActionError):
        minimal_block_system(natural_action(group(4, "(1 2)")), (0, 1))


def test_is_primitive():
    assert is_primitive(natural_action(group(4, "(1 2)", "(1 2 3 4)")))
    assert not is_primitive(natural_action(D8()))
    assert is_primitive(ksubsets_action(A5(), 2))
    assert not is_primitive(natural_action(group(4, "(1 2)")))
    assert is_primitive(natural_action(PermGroup.trivial(1)))


CATALOG_UP_TO_8 = (
    [f"{family}{n}" for family in "SC" for n in range(2, 9)]
    + [f"A{n}" for n in range(3, 9)]
    + [f"D{n}" for n in range(3, 9)]
    + ["PSL(2,2)", "PSL(2,3)", "PSL(2,4)", "PSL(2,5)", "PSL(2,7)", "PSL(3,2)"]
)


def _check_block_systems(A):
    G = A.group
    gens = [g.images for g in G.generators]
    assert is_primitive(A) == brute_is_primitive(gens, G.degree)
    if G.degree < 2 or not G.is_transitive():
        return
    systems = maximal_block_systems(A)
    assert {as_sets(S) for S in systems} == brute_maximal_block_systems(gens, G.degree)
    keys = [(S.num_blocks, S.blocks) for S in systems]
    assert keys == sorted(set(keys))


def test_maximal_block_systems_match_brute():
    # every catalog action of degree at most 8, and a few induced ones
    S4, A4 = symmetric(4), catalog_group("A4").group
    for A in [catalog_group(name) for name in CATALOG_UP_TO_8] + [
        ksubsets_action(S4, 2),
        partitions_action(S4, 2, 2),
        ksubsets_action(A4, 2),
    ]:
        _check_block_systems(A)


@settings(max_examples=150, deadline=None)
@given(generator_sets(max_degree=7))
def test_block_systems_match_brute(G):
    _check_block_systems(natural_action(G))


def test_maximal_block_systems_of_c6():
    systems = maximal_block_systems(natural_action(C6()))
    assert [S.blocks for S in systems] == [
        ((0, 2, 4), (1, 3, 5)),
        ((0, 3), (1, 4), (2, 5)),
    ]


def test_maximal_block_systems_visit_each_system_once(monkeypatch):
    # C60 on 60 points has one block system with more than one block per
    # block size 1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30; each is coarsened once
    quotients = []
    real = actions.quotient_action

    def counting(A, S):
        quotients.append(S.blocks)
        return real(A, S)

    monkeypatch.setattr(actions, "quotient_action", counting)
    systems = maximal_block_systems(catalog_group("C60"))
    assert [S.num_blocks for S in systems] == [2, 3, 5]
    assert len(quotients) == len(set(quotients)) == 11


def test_maximal_block_systems_of_d8():
    # exhaustive enumeration leaves exactly the diagonal pairing
    systems = maximal_block_systems(natural_action(D8()))
    assert [S.blocks for S in systems] == [((0, 2), (1, 3))]


def test_primitive_action_lists_singleton_system():
    A = natural_action(A5())
    systems = maximal_block_systems(A)
    assert len(systems) == 1
    assert systems[0].num_blocks == A.degree
    assert is_primitive(A) == any(S.num_blocks == A.degree for S in maximal_block_systems(A))


def test_quotient_action_collapses_blocks():
    A = natural_action(D8())
    S = minimal_block_system(A, (0, 2))
    Q = quotient_action(A, S)
    assert Q.degree == 2
    assert Q.group.order() == 2
    assert Q.domain.labels == ("{1,3}", "{2,4}")
    assert Q.degree * len(S.blocks[0]) == A.degree
    assert not Q.faithful
    assert Q.kernel_order == 4


def test_quotient_by_singletons_is_the_action_itself():
    A = natural_action(A5())
    Q = quotient_action(A, BlockSystem.singletons(5))
    assert Q.group.order() == 60
    assert Q.faithful


def test_quotient_rejects_non_invariant_partition():
    A = natural_action(D8())
    bad = BlockSystem.from_blocks([[0, 1], [2, 3]], 4)
    with pytest.raises(InvalidPartitionError):
        quotient_action(A, bad)


def test_ksubsets_action_shape():
    A = ksubsets_action(S5(), 2)
    assert A.degree == 10
    assert A.domain.labels[0] == "{1,2}"
    assert A.group.order() == 120
    assert A.faithful
    B = ksubsets_action(group(6, "(1 2)", "(1 2 3 4 5 6)"), 3)
    assert B.degree == 20
    with pytest.raises(ValueError):
        ksubsets_action(S5(), 3)


def test_partitions_action_shapes():
    S6 = group(6, "(1 2)", "(1 2 3 4 5 6)")
    A = partitions_action(S6, 2, 3)
    assert A.degree == 15
    assert "|" in A.domain.labels[0]
    B = partitions_action(S6, 3, 2)
    assert B.degree == 10
    A6 = group(6, "(1 2 3)", "(2 3 4 5 6)")
    assert partitions_action(A6, 2, 3).group.is_transitive()
    with pytest.raises(ValueError):
        partitions_action(S5(), 2, 3)


def _brute_ksubsets(G, k):
    """The k-subset action built point by point: each subset's image is
    looked up by sorting the images of its points."""
    subsets = list(combinations(range(G.degree), k))
    index = {s: i for i, s in enumerate(subsets)}
    images = [
        tuple(index[tuple(sorted(g(p) for p in s))] for s in subsets) for g in G.generators
    ]
    labels = tuple("{" + ",".join(str(p + 1) for p in s) + "}" for s in subsets)
    return labels, images, f"ksubsets({k})"


def _brute_partitions(G, a, b):
    """The partition action built point by point: partitions listed
    recursively as tuples of blocks, each image found by sorting the sorted
    image blocks."""
    parts = []

    def rec(remaining, blocks):
        if not remaining:
            parts.append(tuple(blocks))
            return
        for rest in combinations(remaining[1:], a - 1):
            block = (remaining[0],) + rest
            rec([p for p in remaining if p not in block], blocks + [block])

    rec(list(range(G.degree)), [])
    index = {part: i for i, part in enumerate(parts)}
    images = [
        tuple(
            index[tuple(sorted(tuple(sorted(g(p) for p in block)) for block in part))]
            for part in parts
        )
        for g in G.generators
    ]
    labels = tuple(
        "|".join("{" + ",".join(str(p + 1) for p in block) + "}" for block in part)
        for part in parts
    )
    return labels, images, f"partitions({a},{b})"


@pytest.mark.parametrize("family,n,shape", [
    ("S", 4, (2, 2)),
    ("S", 6, (2, 3)),
    ("S", 6, (3, 2)),
    ("A", 8, (2, 4)),
    ("A", 8, (4, 2)),
    ("S", 9, (3, 3)),
    ("S", 10, (2, 5)),
    ("S", 10, (5, 2)),
    ("A", 10, (2, 5)),
    ("S", 11, (3,)),
    ("A", 13, (2,)),
], ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else str(v))
def test_partition_and_subset_actions_match_the_brute_construction(family, n, shape):
    # point order, labels, generator images and provenance are what reports,
    # goldens and relabeled benchmark inputs read, so the block tables must
    # give exactly what the point-by-point construction gives
    G = symmetric(n) if family == "S" else alternating(n)
    if len(shape) == 1:
        A, want = ksubsets_action(G, *shape), _brute_ksubsets(G, *shape)
    else:
        A, want = partitions_action(G, *shape), _brute_partitions(G, *shape)
    assert (A.domain.labels, [g.images for g in A.group.generators], A.provenance) == want
    assert (A.degree, A.source_order) == (len(want[0]), G.order())


def test_induced_actions_refuse_their_degree_before_listing(monkeypatch):
    # C(20, 5) = 15,504 subsets, 12! / (2^6 6!) = 10,395 partitions and
    # C(30, 15) = 155,117,520 subsets are over the 5,000-point guard; each is
    # refused from its count, before a single subset is listed
    def listing(*args):
        raise AssertionError("subsets listed before the degree was checked")

    monkeypatch.setattr(actions, "combinations", listing)
    with pytest.raises(DegreeLimitError, match="degree 15504 exceeds guard 5000"):
        ksubsets_action(symmetric(20), 5)
    with pytest.raises(DegreeLimitError, match="degree 155117520 exceeds guard 5000"):
        ksubsets_action(symmetric(30), 15)
    with pytest.raises(DegreeLimitError, match="degree 10395 exceeds guard 5000"):
        partitions_action(symmetric(12), 2, 6)
    with pytest.raises(DegreeLimitError, match="degree 5775 exceeds guard 5000"):
        partitions_action(symmetric(12), 4, 3)


def test_partitions_action_is_a_genuine_action():
    S6 = group(6, "(1 2)", "(1 2 3 4 5 6)")
    A = partitions_action(S6, 2, 3)
    # the image order equals |S6| (faithful for n=6, parts of size 2)
    assert A.group.order() == 720


def test_coset_action_recovers_natural_degree():
    G = A5()
    H = group(5, "(1 2 3)", "(2 3 4)")  # A4 fixing point 5
    A = coset_action(G, H)
    assert A.degree == 5
    assert A.group.order() == 60
    assert A.faithful
    assert A.group.is_transitive()
    assert A.group.pointwise_stabilizer([0]).order() == 12


def test_coset_action_degree_twelve():
    G = A5()
    H = group(5, "(1 2 3 4 5)")
    A = coset_action(G, H)
    assert A.degree == 12
    assert A.group.is_transitive()
    assert A.faithful


def test_coset_action_with_normal_subgroup_is_unfaithful():
    S3 = group(3, "(1 2)", "(1 2 3)")
    A3 = group(3, "(1 2 3)")
    A = coset_action(S3, A3)
    assert A.degree == 2
    assert not A.faithful
    assert A.kernel_order == 3


def test_coset_action_rejects_non_subgroup():
    with pytest.raises(NotASubgroupError):
        coset_action(A5(), group(5, "(1 2)"))


def test_restriction_and_union_round_trip():
    G = A5()
    nat = natural_action(G)
    pairs = ksubsets_action(G, 2)
    U = union([nat, pairs])
    assert U.degree == 15
    assert [len(o) for o in U.group.orbits()] == [5, 10]
    assert U.domain.labels[0] == "1:1"
    assert U.domain.labels[5] == "2:{1,2}"
    back = restriction(U, range(5, 15))
    assert back.degree == 10
    assert back.group.same_group(pairs.group)
    assert back.domain.labels == tuple("2:" + l for l in pairs.domain.labels)


def test_restriction_rejects_non_invariant_subset():
    with pytest.raises(ValueError):
        restriction(natural_action(A5()), [0, 1])


def test_restriction_rejects_points_out_of_range():
    # on D4, point 4 once raised a bare IndexError and point -1 was read as
    # point 3, then blamed for leaving the subset
    A = natural_action(D8())
    for pts, bad in (([0, 1, 2, 3, 4], 4), ([-1], -1)):
        with pytest.raises(ValueError, match=f"point {bad} outside 0..3"):
            restriction(A, pts)


def test_union_validates_generator_counts():
    with pytest.raises(ValueError):
        union([natural_action(A5()), natural_action(group(5, "(1 2 3)"))])


def test_two_copies_of_natural_are_equivalent():
    G = A5()
    assert actions_equivalent(natural_action(G), natural_action(G))
    assert actions_equivalent(natural_action(G), coset_action(G, group(5, "(1 2 3)", "(2 3 4)")))
    assert not actions_equivalent(natural_action(G), ksubsets_action(G, 2))


def test_inequivalent_actions_of_same_degree():
    # S6 natural vs S6 on cosets of PGL(2,5): same degree, different actions
    S6 = group(6, "(1 2)", "(1 2 3 4 5 6)")
    # PGL(2,5) on the projective line 0,1,2,3,4,inf labeled 1..6:
    # z+1, -1/z, 2z
    H = group(6, "(1 2 3 4 5)", "(1 6)(2 5)", "(2 3 5 4)")
    assert H.order() == 120
    A = coset_action(S6, H)
    assert A.degree == 6
    assert not actions_equivalent(natural_action(S6), A)


def _check_setwise_stabilizer(A, S, indices):
    """setwise_block_stabilizer against the intersection of the brute
    setwise stabilizers of the listed blocks."""
    G = A.group
    want = brute_elements([g.images for g in G.generators], G.degree)
    for j in indices:
        want &= brute_setwise_stabilizer(want, S.blocks[j])
    H = setwise_block_stabilizer(A, S, indices)
    assert {p.images for p in H.elements()} == want


def _every_block_list(S):
    """Every list of distinct block indices, as block_lemma_check's combo."""
    for size in range(S.num_blocks + 1):
        yield from combinations(range(S.num_blocks), size)


def test_setwise_block_stabilizer_matches_brute():
    for G in (D8(), C6()):
        A = natural_action(G)
        S = minimal_block_system(A, (0, 2))
        for indices in _every_block_list(S):
            _check_setwise_stabilizer(A, S, indices)


def test_setwise_block_stabilizer_on_s4_pairs():
    # one system: the three pairs of complementary pairs
    A = ksubsets_action(symmetric(4), 2)
    gens = [g.images for g in A.group.generators]
    systems = [BlockSystem.from_blocks(part, 6) for part in brute_block_systems(gens, 6)]
    assert [S.num_blocks for S in systems] == [3]
    for S in systems:
        for indices in _every_block_list(S):
            _check_setwise_stabilizer(A, S, indices)
        # repeated and unordered indices name the same blocks
        _check_setwise_stabilizer(A, S, [1, 0, 1])


@st.composite
def imprimitive_groups(draw):
    """A group preserving a partition into b blocks of size a (a * b <= 7,
    a, b >= 2), with its points relabeled at random."""
    a, b = draw(st.sampled_from([(2, 2), (2, 3), (3, 2)]))
    n = a * b
    relabel = draw(st.permutations(range(n)))
    gens = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        blocks = draw(st.permutations(range(b)))
        within = [draw(st.permutations(range(a))) for _ in range(b)]
        images = [0] * n
        for i in range(b):
            for r in range(a):
                images[relabel[i * a + r]] = relabel[blocks[i] * a + within[i][r]]
        gens.append(Permutation(tuple(images)))
    return PermGroup(n, gens)


@settings(max_examples=60, deadline=None)
@given(imprimitive_groups(), st.data())
def test_setwise_block_stabilizer_matches_brute_on_imprimitive_groups(G, data):
    A = natural_action(G)
    gens = [g.images for g in G.generators]
    for part in brute_block_systems(gens, G.degree):
        S = BlockSystem.from_blocks(part, G.degree)
        indices = data.draw(st.lists(st.integers(0, S.num_blocks - 1), max_size=3))
        _check_setwise_stabilizer(A, S, indices)


def test_setwise_block_stabilizer_rejects_non_invariant_partition():
    bad = BlockSystem.from_blocks([[0, 1], [2, 3]], 4)
    with pytest.raises(InvalidPartitionError):
        setwise_block_stabilizer(natural_action(D8()), bad, [0])


def test_block_entry_points_reject_indices_out_of_range(monkeypatch):
    # D4 on the square, blocks the diagonals {0, 2} and {1, 3}: block -1 once
    # gave the stabilizer of point 3 (order 2) and block 2 named an auxiliary
    # point; seed point -1 read as point 3 and seed point 4 raised IndexError
    A = natural_action(D8())
    S = minimal_block_system(A, (0, 2))
    assert S.blocks == ((0, 2), (1, 3))

    def no_work(*args):
        raise AssertionError("work done before the indices were checked")

    monkeypatch.setattr(actions, "is_invariant", no_work)
    monkeypatch.setattr(actions, "union", no_work)
    monkeypatch.setattr(PermGroup, "is_transitive", no_work)
    for j in (-1, 2):
        with pytest.raises(ValueError, match=f"block index {j} outside 0..1"):
            setwise_block_stabilizer(A, S, [0, j])
    for p in (-1, 4):
        with pytest.raises(ValueError, match=f"point {p} outside 0..3"):
            minimal_block_system(A, (0, p))


def test_maximal_block_systems_refuse_intransitive_actions():
    with pytest.raises(IntransitiveActionError, match="only formed on transitive actions"):
        maximal_block_systems(natural_action(group(4, "(1 2)")))


def test_subgroup_classes_of_a5():
    reps = subgroups_up_to_conjugacy(A5())
    assert [H.order() for H in reps] == [1, 2, 3, 4, 5, 6, 10, 12, 60]


def test_subgroup_classes_of_s3_and_a4():
    S3 = group(3, "(1 2)", "(1 2 3)")
    assert [H.order() for H in subgroups_up_to_conjugacy(S3)] == [1, 2, 3, 6]
    A4 = group(4, "(1 2 3)", "(2 3 4)")
    assert [H.order() for H in subgroups_up_to_conjugacy(A4)] == [1, 2, 3, 4, 12]
    # the trivial group has one class, also on no points at all
    for degree in (0, 1):
        assert subgroup_lattice(PermGroup(degree, [Permutation(range(degree))]))[1] == [()]


def test_subgroup_classes_match_brute_enumeration():
    for G in (group(4, "(1 2)", "(1 2 3 4)"), group(4, "(1 2 3)", "(2 3 4)")):
        elems = brute_elements([g.images for g in G.generators], G.degree)
        want = brute_conjugacy_classes_of_subgroups(elems)
        reps = subgroups_up_to_conjugacy(G)
        assert len(reps) == len(want)
        rep_sets = [frozenset(p.images for p in H.elements()) for H in reps]
        for cls in want:
            assert sum(1 for r in rep_sets if r in cls) == 1


@pytest.mark.parametrize("name,total", [
    ("S4", 30), ("A5", 59), ("S5", 156), ("PSL(2,7)", 179), ("A6", 501), ("A7", 3786),
])
def test_class_sizes_add_up_to_the_number_of_subgroups(name, total):
    # a class has |G : N_G(H)| members; N_G(H) is found here by conjugating
    # H's generators by every element of G, not by the enumeration's own
    # walk, and the totals are the published numbers of subgroups. S4 and
    # S5 have normal classes besides 1 and G: A4, V4 and A5
    G = catalog_group(name).group
    elems = brute_elements([g.images for g in G.generators], G.degree)
    found = 0
    for H in subgroups_up_to_conjugacy(G):
        members = {p.images for p in H.elements()}
        gens = [h.images for h in H.generators]
        normalizer = sum(all(mul(mul(inv(g), h), g) in members for h in gens) for g in elems)
        found += len(elems) // normalizer
    assert found == total


@pytest.mark.parametrize("name", ["S4", "A5", "S5", "PSL(2,7)", "A6"])
def test_subgroup_lattice_records_overgroups_and_maximal_classes(name):
    # over[i] holds class j only if a conjugate of H_j contains H_i, checked
    # on element sets; a class other than G is maximal, so that its coset
    # action is primitive, exactly when the scan found no proper extension;
    # every overgroup class comes later and is larger, so k_trans, walking
    # the list backwards, meets each class after its overgroups
    G = catalog_group(name).group
    elems = brute_elements([g.images for g in G.generators], G.degree)
    classes, over = subgroup_lattice(G)
    assert [H.generators for H in classes] == [
        H.generators for H in subgroups_up_to_conjugacy(G)
    ]
    sets = [frozenset(p.images for p in H.elements()) for H in classes]
    top = len(classes) - 1
    assert len(sets[top]) == len(elems) and over[top] == ()
    for i, above in enumerate(over[:top]):
        for j in above:
            assert i < j < top
            assert classes[j].order() > classes[i].order()
            assert any(sets[i] <= {mul(mul(inv(g), k), g) for k in sets[j]} for g in elems)
        assert is_primitive(coset_action(G, classes[i])) == (not above)


def _forbid_listing(monkeypatch, why):
    """Fail the test if the walk that lists a group's elements starts."""

    def listing(*args, **kwargs):
        raise AssertionError(why)

    monkeypatch.setattr(stabchain, "_orbit", listing)


def test_subgroup_enumeration_respects_bound(monkeypatch):
    # S7 has order 5040 and two generators; before the walk lists any
    # element, the enumeration charges one node per element for each of its
    # six tables of that size (the listing, elems, whole, same and two
    # cmaps), so a cap one short of 6 * 5040 stops it there
    G = symmetric(7)
    assert (G.order(), len(G.generators)) == (5040, 2)
    _forbid_listing(monkeypatch, "elements listed before the budget was charged")
    budget = Budget(6 * 5040 - 1)
    with pytest.raises(BudgetExceededError, match="node budget"):
        subgroup_lattice(G, budget)
    assert budget.nodes == 6 * 5040
    # a cap of the six tables itself lets the listing start
    with pytest.raises(AssertionError, match="listed before the budget"):
        subgroup_lattice(G, Budget(6 * 5040))


def test_subgroup_enumeration_charges_what_it_stores(monkeypatch):
    # the enumeration keeps every subgroup as a set of its elements, and
    # charges a node per element of each, in one call per subgroup: A5's 59
    # subgroups hold 1 + 15*2 + 10*3 + 5*4 + 6*5 + 10*6 + 5*12 + 6*10 + 60
    # = 351, S4's 30 hold 1 + 9*2 + 4*3 + 3*4 + 4 + 3*4 + 4*6 + 3*8 + 12 + 24
    # = 143
    stored = []
    charge = Budget.charge

    def counted(self, n=1, partial=None):
        if sys._getframe(1).f_code.co_name == "register":
            stored.append(n)
        charge(self, n, partial)

    monkeypatch.setattr(Budget, "charge", counted)
    for G, subgroups, elements in [(catalog_group("A5").group, 59, 351), (symmetric(4), 30, 143)]:
        stored.clear()
        budget = Budget()
        subgroup_lattice(G, budget)
        assert (len(stored), sum(stored)) == (subgroups, elements)
        # the rest: six tables of G's size, then one node per extension
        assert budget.nodes - elements > 6 * G.order()


def test_subgroup_enumeration_refuses_degree_above_256(monkeypatch):
    # a 257-cycle has order 257, well within the default budget, but its
    # points do not fit in a byte; the refusal comes before any element is
    # listed
    G = PermGroup(257, [Permutation(tuple(range(1, 257)) + (0,))])
    assert G.order() == 257
    _forbid_listing(monkeypatch, "elements listed before the degree was checked")
    with pytest.raises(DegreeLimitError, match="256"):
        subgroups_up_to_conjugacy(G)


PINNED_SUBGROUPS = Path(__file__).parent / "subgroup_representatives.json"


def _pinned_group(name):
    return symmetric(4) if name == "S4" else catalog_group(name).group


@pytest.mark.parametrize("name", ["A5", "A6", "PSL(2,7)", "PSL(2,8)", "S4"])
def test_subgroup_representatives_are_pinned(name):
    # (order, generator images) of every representative: the generators of
    # the extension that first registered the class, conjugated to its
    # canonical member
    want = json.loads(PINNED_SUBGROUPS.read_text(encoding="utf-8"))[name]
    reps = subgroups_up_to_conjugacy(_pinned_group(name))
    got = [[H.order(), [list(g.images) for g in H.generators]] for H in reps]
    assert got == want


def _count_closures(monkeypatch, sizes):
    """Record the size of every subgroup the enumeration closes up by
    multiplication: the _orbit walks that compose elements by bytes.translate.
    The listing of G's elements is not one of them; it is walked in
    stabchain. Callers assert that some closure was counted, so a change of
    the act cannot pass a cap vacuously."""
    real = lattice._orbit

    def counting(start, gens, act, *args):
        out = real(start, gens, act, *args)
        if act is bytes.translate:
            sizes.append(len(out))
        return out

    monkeypatch.setattr(lattice, "_orbit", counting)


def test_subgroup_enumeration_skips_double_cosets(monkeypatch):
    closures = []
    _count_closures(monkeypatch, closures)
    chains = []
    real = lattice.build_chain

    def counting(degree, gens, **kwargs):
        chains.append(len(stabchain._orbit(0, gens, lambda p, g: g[p])))
        return real(degree, gens, **kwargs)

    monkeypatch.setattr(lattice, "build_chain", counting)
    assert len(subgroups_up_to_conjugacy(catalog_group("A6").group)) == 22
    # the extensions <H, x> of a nontrivial H, one per N_G(H)-orbit of the
    # double cosets HxH and cyclic subgroup <x>; those whose chain already
    # has the order of the group are not closed up. Only an extension that
    # moves point 0 over all 6 points can be the group, so only those take
    # a chain: 42 of the 133 do not. The trivial group's extensions are the
    # cyclic subgroups, read off the powers of x, so they take no chain and
    # no closure. The other closures grow a normalizer by a kept Schreier
    # generator: 16 of them, beside 74 extension closures
    assert chains and set(chains) == {6}
    assert len(chains) <= 133 - 42
    assert 0 < len(closures) <= 90


@pytest.mark.parametrize("name", ["S4", "A5", "PSL(2,7)", "A6"])
def test_representative_generators_build_the_canonical_member(name):
    # the generators close up, by brute force, to the conjugate whose sorted
    # element tuple is the least of the class
    G = _pinned_group(name)
    elements = [g.images for g in G.elements()]
    for H in subgroups_up_to_conjugacy(G):
        members = brute_elements([g.images for g in H.generators], G.degree)
        assert len(members) == H.order()
        least = min(sorted(mul(mul(inv(g), h), g) for h in members) for g in elements)
        assert sorted(members) == least


@pytest.mark.parametrize("name", ["S4", "A5", "A6", "PSL(2,7)", "PSL(2,8)"])
def test_subgroup_lattice_does_not_depend_on_the_marking(monkeypatch, name):
    # a class is first registered at an uncovered element, so a scan that
    # marks no double coset as covered extends by more elements but registers
    # each class from the same extension
    G = _pinned_group(name)

    def lattice_of():
        budget = Budget()
        reps, over = subgroup_lattice(G, budget)
        return [[g.images for g in H.generators] for H in reps], over, budget.nodes

    *marked, nodes = lattice_of()
    # no power of x is then a generator of <x>, so no element is marked,
    # and the scan charges a node for each further extension
    monkeypatch.setattr(lattice, "gcd", lambda a, b: 0)
    *unmarked, more = lattice_of()
    assert unmarked == marked
    assert more > nodes


@pytest.mark.parametrize("name", ["A6", "PSL(2,7)"])
def test_subgroup_enumeration_never_closes_up_to_the_group(monkeypatch, name):
    G = catalog_group(name).group
    sizes = []
    _count_closures(monkeypatch, sizes)
    reps = subgroups_up_to_conjugacy(G)
    assert reps[-1].order() == G.order()
    # G's element set is already at hand; only proper subgroups are closed
    assert sizes and max(sizes) < G.order()


@pytest.mark.parametrize("G,unfaithful", [
    (group(3, "(1 2)", "(1 2 3)"), 2),
    (group(4, "(1 2 3)", "(2 3 4)"), 2),
    (symmetric(4), 4),
    (D8(), 5),
    (C6(), 3),
    (A5(), 1),
], ids=["S3", "A4", "S4", "D8", "C6", "A5"])
def test_class_core_orders_are_exact(G, unfaithful):
    # the core of H is the kernel of G on the cosets of H, so the action is
    # faithful exactly when a chain of its image, built afresh, reaches the
    # order of G, and the image's own order is |G| / |core| either way
    seen = 0
    for H in subgroups_up_to_conjugacy(G):
        A = coset_action(G, H)
        fresh = PermGroup(A.degree, A.group.generators)
        assert A.faithful == (fresh.order() == G.order())
        assert A.group.order() == fresh.order()
        seen += not A.faithful
    assert seen == unfaithful


def test_transitivity_degree():
    cases = [
        (group(5, "(1 2 3 4 5)", "(1 2 3)"), 3),
        (group(5, "(1 2 3 4 5)", "(1 2)"), 5),
        (group(4, "(1 2 3 4)"), 1),
        (group(4, "(1 2 3 4)", "(1 3)"), 1),
        (group(4, "(1 2)"), 0),
        (PermGroup.trivial(1), 1),
    ]
    for G, want in cases:
        assert transitivity_degree(G) == want
        elems = brute_elements([g.images for g in G.generators], G.degree)
        assert brute_transitivity_degree(elems, G.degree) == want
    assert transitivity_degree(ksubsets_action(A5(), 2).group) == 1


@settings(max_examples=60, deadline=None)
@given(generator_sets())
def test_transitivity_degree_matches_brute(G):
    elems = brute_elements([g.images for g in G.generators], G.degree)
    assert transitivity_degree(G) == brute_transitivity_degree(elems, G.degree)
