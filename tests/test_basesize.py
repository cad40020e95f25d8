"""Exact and greedy base sizes, pair bases, and partition-action checks."""

import random

import pytest

from closurelab import stabchain
from closurelab.actions import (
    coset_action,
    ksubsets_action,
    minimal_block_system,
    natural_action,
    partitions_action,
    quotient_action,
    union,
)
from closurelab.basesize import (
    BaseRecord,
    exact_base_size,
    greedy_base,
    halasi_base,
    partition_base_check,
)
from closurelab.budget import Budget
from closurelab.catalog import alternating, dihedral, mathieu, symmetric
from closurelab.errors import BudgetExceededError, DegreeLimitError, NotFaithfulError
from closurelab.perm import Permutation, parse_cycles
from closurelab.stabchain import PermGroup

from oracles import brute_elements, brute_min_base, reference_base_search


def group(degree, *texts):
    return PermGroup(degree, tuple(parse_cycles(t, degree) for t in texts))


def test_exact_base_size_matches_brute_force():
    cases = [
        natural_action(alternating(5)),
        natural_action(symmetric(4)),
        natural_action(dihedral(4)),
        natural_action(group(4, "(1 2)(3 4)", "(1 3)(2 4)")),
        natural_action(group(6, "(1 2 3 4 5 6)")),
        natural_action(group(5, "(1 2)", "(3 4 5)")),
        ksubsets_action(alternating(5), 2),
        ksubsets_action(symmetric(5), 2),
    ]
    for A in cases:
        rec = exact_base_size(A)
        elems = brute_elements([g.images for g in A.group.generators], A.degree)
        want_size, _ = brute_min_base(elems, A.degree)
        assert rec.size == want_size
        assert rec.exhaustive
        assert A.group.pointwise_stabilizer(rec.witness).order() == 1
        assert len(rec.witness) == rec.size


def _random_product(rng):
    """A direct product on 4 to 8 points: the points are cut into two to
    four blocks, and each block of two or more points gets two random
    shuffles as generators. Several orbits let one point set be reached
    by more than one path of the base search."""
    degree = rng.randint(4, 8)
    cuts = sorted(rng.sample(range(1, degree), rng.randint(1, 3)))
    points = rng.sample(range(degree), degree)
    blocks = [points[a:b] for a, b in zip([0] + cuts, cuts + [degree])]
    gens = []
    for block in blocks * 2:
        images = list(range(degree))
        for src, dst in zip(block, rng.sample(block, len(block))):
            images[src] = dst
        gens.append(Permutation(tuple(images)))
    return PermGroup(degree, gens)


def test_exact_base_size_matches_the_search_without_skips():
    rng = random.Random(3)
    searched = skipped = 0
    for _ in range(40):
        G = _random_product(rng)
        for A in (natural_action(G), ksubsets_action(G, 2)):
            elems = brute_elements([g.images for g in A.group.generators], A.degree)
            size, witness, visits, sets = reference_base_search(elems, A.degree)
            budget = Budget()
            assert exact_base_size(A, budget) == BaseRecord(size, witness, True)
            # one node per point set: every set is searched, and only once
            assert budget.nodes == sets <= visits
            searched += visits > 0
            skipped += sets < visits
    # 38 of the 80 actions reach the search, and 4 of those skip a set
    assert searched >= 30 and skipped >= 3


def test_a_leaf_child_is_never_cut_by_its_parent():
    # S4 on the cosets of three subgroups of order 4. The search reaches a
    # stabilizer with two regular orbits, so both children are leaves of
    # the same size, and the second one's witness is the one recorded
    G = symmetric(4)
    subgroups = [
        group(4, "(1 2)(3 4)", "(1 3)(2 4)"),
        group(4, "(3 4)", "(1 2)"),
        group(4, "(1 2)(3 4)", "(1 3 2 4)"),
    ]
    A = union([coset_action(G, H) for H in subgroups])
    elems = brute_elements([g.images for g in A.group.generators], A.degree)
    size, witness, _, sets = reference_base_search(elems, A.degree)
    budget = Budget()
    assert exact_base_size(A, budget) == BaseRecord(size, witness, True)
    assert budget.nodes == sets


def test_exact_base_size_is_deterministic():
    A = ksubsets_action(symmetric(6), 2)
    assert exact_base_size(A) == exact_base_size(A)


def test_ksubsets_base_sizes():
    assert exact_base_size(ksubsets_action(symmetric(5), 2)).size == 3
    assert exact_base_size(ksubsets_action(alternating(5), 2)).size == 2
    assert exact_base_size(ksubsets_action(symmetric(6), 2)).size == 4
    assert exact_base_size(ksubsets_action(alternating(6), 2)).size == 3
    assert exact_base_size(ksubsets_action(symmetric(6), 3)).size == 3


def test_exact_base_size_composes_few_representatives_above_the_bytes_line():
    # S10 on its 945 partitions into five pairs: a tuple chain composes a
    # representative only when it is read. The build stops at the order of
    # S10 after 14 random elements, whose sifts read 87 of level 0 (the
    # tree paths to the points they strip), and the search reads no other
    A = partitions_action(symmetric(10), 2, 5)
    assert exact_base_size(A).size == 3
    level = A.group.chain().levels[0]
    assert (len(level.transversal), len(level.orbit)) == (87, 945)


def test_greedy_base_is_a_base_and_flags_tightness():
    A5 = natural_action(alternating(5))
    rec = greedy_base(A5)
    assert rec.size == 3
    assert rec.witness == (0, 1, 2)
    assert rec.exhaustive  # 5^2 < 60, so 3 meets the lower bound

    S6 = natural_action(symmetric(6))
    rec6 = greedy_base(S6)
    assert rec6.size == 5
    assert not rec6.exhaustive  # bound is 4, greedy cannot prove 5 minimal
    exact6 = exact_base_size(S6)
    assert exact6.size == 5 and exact6.exhaustive


def test_regular_actions_have_base_size_one():
    for G in (group(6, "(1 2 3 4 5 6)"), group(4, "(1 2)(3 4)", "(1 3)(2 4)")):
        rec = exact_base_size(natural_action(G))
        assert rec.size == 1
        assert rec.exhaustive


def test_trivial_group_has_empty_base():
    rec = exact_base_size(natural_action(PermGroup.trivial(3)))
    assert rec == BaseRecord(size=0, witness=(), exhaustive=True)


def test_unfaithful_action_is_rejected():
    D4 = dihedral(4)
    S = minimal_block_system(natural_action(D4), (0, 2))
    # the capped faithfulness check still reports the kernel
    for Q in (quotient_action(natural_action(D4), S), partitions_action(symmetric(4), 2, 2)):
        assert not Q.faithful
        assert Q.kernel_order == 4
        with pytest.raises(NotFaithfulError):
            exact_base_size(Q)
        with pytest.raises(NotFaithfulError):
            greedy_base(Q)


def test_capped_faithfulness_check_leaves_a_complete_chain(monkeypatch):
    caps = []
    real = stabchain.build_chain

    def counting(*args, **kwargs):
        caps.append(kwargs.get("known_order"))
        return real(*args, **kwargs)

    A = ksubsets_action(alternating(6), 2)
    odd = ksubsets_action(symmetric(6), 2).group.generators[0]
    monkeypatch.setattr(stabchain, "build_chain", counting)
    assert A.faithful
    assert caps == [360]
    G = A.group
    assert G.order() == A.source_order == 360
    gens = G.generators
    for g in gens:
        for h in gens:
            assert G.contains(g * h)
            assert G.contains(g * h * g)
    assert not G.contains(odd)
    # every query above read the one chain the check built
    assert caps == [360]


def test_children_cut_by_their_parent_build_no_chain(monkeypatch):
    builds = []
    real = stabchain.build_chain

    def counting(*args, **kwargs):
        builds.append(kwargs.get("known_order"))
        return real(*args, **kwargs)

    A = ksubsets_action(symmetric(9), 2)
    monkeypatch.setattr(stabchain, "build_chain", counting)
    budget = Budget()
    rec = exact_base_size(A, budget)
    assert (rec.size, rec.exhaustive) == (6, True)
    # the node count of the search that builds every child's chain (36 builds)
    assert budget.nodes == 34
    # the one build is the capped faithfulness check; every stabilizer the
    # search expands is rebased from it by base swaps
    assert builds == [362880]


def test_budget_caps_give_the_full_result_or_raise_with_a_base():
    A = ksubsets_action(symmetric(6), 2)
    full_budget = Budget()
    full = exact_base_size(A, full_budget)
    assert full.exhaustive and full_budget.nodes > 1
    for cap in range(full_budget.nodes + 1):
        budget = Budget(cap)
        try:
            rec = exact_base_size(A, budget)
        except BudgetExceededError as exc:
            rec = exc.partial
            assert not rec.exhaustive
            assert len(rec.witness) == rec.size >= full.size
            assert A.group.pointwise_stabilizer(rec.witness).order() == 1
        else:
            assert rec == full
            assert cap == full_budget.nodes
        assert budget.nodes <= cap + 1


def test_budget_exhaustion_falls_back_to_greedy_quality():
    A = ksubsets_action(symmetric(6), 2)
    with pytest.raises(BudgetExceededError) as info:
        exact_base_size(A, budget=Budget(2))
    rec = info.value.partial
    greedy = greedy_base(A)
    assert rec == BaseRecord(greedy.size, greedy.witness, exhaustive=False)
    assert rec.size >= exact_base_size(A).size
    assert A.group.pointwise_stabilizer(rec.witness).order() == 1


def test_mathieu23_greedy_and_exact():
    A = mathieu("M23")
    greedy = greedy_base(A)
    assert greedy.size <= 7
    rec = exact_base_size(A)
    assert rec.size == 6
    assert rec.exhaustive
    assert A.group.pointwise_stabilizer(rec.witness).order() == 1


def test_halasi_base_small_cases():
    assert halasi_base(6) == ((1, 2), (2, 3), (4, 5), (5, 6))
    assert halasi_base(5) == ((1, 2), (2, 3), (1, 5))


def test_halasi_base_sizes_and_validity():
    from itertools import combinations

    sizes = {5: 3, 6: 4, 7: 4, 8: 5, 9: 6}
    for n, size in sizes.items():
        pairs = halasi_base(n)
        assert len(pairs) == size
        m, r = divmod(n, 3)
        assert len(pairs) == 2 * m + (1 if r == 2 else 0)
        A = ksubsets_action(symmetric(n), 2)
        combos = list(combinations(range(n), 2))
        idx = [combos.index((p - 1, q - 1)) for p, q in pairs]
        assert A.group.pointwise_stabilizer(idx).order() == 1
    with pytest.raises(ValueError):
        halasi_base(4)


def test_partition_base_check_six_points():
    rec = partition_base_check(6, 2, 3)
    assert rec.sym.size == 4 and rec.alt.size == 3
    assert rec.sym_equality_expected and rec.sym_equality_observed
    assert rec.consistent
    rec2 = partition_base_check(6, 3, 2)
    assert rec2.sym.size == 4 and rec2.alt.size == 3
    assert rec2.consistent


def test_partition_base_check_eight_points():
    rec = partition_base_check(8, 2, 4)
    assert rec.sym.size == 3
    assert not rec.sym_equality_observed and not rec.sym_equality_expected
    assert rec.consistent


def test_partition_base_check_validates_shape():
    with pytest.raises(ValueError):
        partition_base_check(6, 2, 2)
    with pytest.raises(NotFaithfulError):
        partition_base_check(4, 2, 2)
    # no cap on n: S9 on 3 blocks of 3 (280 points) runs, and S12 on 3
    # blocks of 4 (5,775 points) meets the point guard
    rec = partition_base_check(9, 3, 3)
    assert (rec.sym.size, rec.alt.size, rec.consistent) == (3, 3, True)
    with pytest.raises(DegreeLimitError):
        partition_base_check(12, 4, 3)
