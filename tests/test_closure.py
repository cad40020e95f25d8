"""Closure backtrack, closure chains, and the structural certificates."""

import sys
from itertools import product
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from closurelab import closure as closure_module, stabchain
from closurelab.actions import (
    BlockSystem,
    coset_action,
    ksubsets_action,
    natural_action,
    union,
)
from closurelab.basesize import exact_base_size, greedy_base
from closurelab.budget import Budget
from closurelab.catalog import (
    alternating,
    catalog_group,
    cyclic,
    dihedral,
    mathieu,
    symmetric,
)
from closurelab.classical import psl_projective
from closurelab.closure import (
    KTransCertificate,
    KTransEntry,
    _closure_index,
    _closure_witness,
    block_lemma_check,
    closure_spectrum,
    complete_lemma_check,
    intransitive_certificate,
    k_closure,
    k_trans,
    require_nonabelian_simple,
    restriction_lemma_check,
)
from closurelab.errors import BudgetExceededError, SimplicityError
from closurelab.lattice import subgroup_lattice, subgroups_up_to_conjugacy
from closurelab.perm import Permutation, parse_cycles
from closurelab.stabchain import PermGroup

from oracles import (
    brute_elements,
    brute_k_closure,
    brute_keeps_tuple_orbits,
    brute_simplicity_defect,
    brute_tuple_orbits,
)
from test_actions import _forbid_listing
from test_budget import Recorded
from test_harness import generator_sets


def group(degree, *cycle_texts):
    return PermGroup(degree, [parse_cycles(t, degree) for t in cycle_texts])


def test_closure_backtrack_goes_deeper_than_the_recursion_limit():
    # the search holds one frame per assigned point on a stack of its own
    A = catalog_group("C1000")
    assert A.degree >= sys.getrecursionlimit()
    assert k_closure(A, 2).order() == 1000


def closure_order(G, k):
    return k_closure(natural_action(G), k).order()


def test_k_closure_matches_brute_force():
    cases = [
        alternating(4),
        dihedral(4),
        cyclic(5),
        group(5, "(1 2)(3 4 5)"),
        group(4, "(1 2)(3 4)", "(1 3)(2 4)"),
        group(5, "(1 2 3)", "(4 5)"),
        ksubsets_action(symmetric(4), 2).group,
        ksubsets_action(alternating(4), 2).group,
    ]
    for G in cases:
        elems = brute_elements([g.images for g in G.generators], G.degree)
        for k in range(1, min(G.degree, 5)):
            H = k_closure(natural_action(G), k)
            expected = brute_k_closure(elems, G.degree, k)
            assert {h.images for h in H.elements()} == expected


def test_k_closure_known_orders():
    assert closure_order(alternating(4), 2) == 24
    assert closure_order(alternating(4), 3) == 12
    assert closure_order(dihedral(4), 2) == 8
    assert closure_order(cyclic(5), 2) == 5
    S4_pairs = ksubsets_action(symmetric(4), 2)
    assert k_closure(S4_pairs, 2).order() == 48
    assert k_closure(S4_pairs, 3).order() == 24
    A4_pairs = ksubsets_action(alternating(4), 2)
    assert k_closure(A4_pairs, 2).order() == 24
    A5 = natural_action(alternating(5))
    assert k_closure(A5, 3).order() == 120
    assert k_closure(A5, 4).order() == 60


def test_k_closure_growth_produces_new_elements():
    A = ksubsets_action(symmetric(4), 2)
    H = k_closure(A, 2)
    assert A.group.is_subgroup_of(H)
    assert not H.is_subgroup_of(A.group)


def test_k_closure_shortcuts():
    # k = 1: direct product of symmetric groups on the orbits
    G = group(5, "(1 2 3)(4 5)")
    H = k_closure(natural_action(G), 1)
    assert H.order() == 12
    assert H.contains(parse_cycles("(1 2)", 5))
    # k at least the degree: the group itself
    D = dihedral(4)
    assert k_closure(natural_action(D), 4).same_group(D)
    assert k_closure(natural_action(D), 9).same_group(D)
    # k-transitive group: full symmetric group without search
    H = k_closure(natural_action(alternating(5)), 2)
    assert H.same_group(symmetric(5))


def test_k_closure_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        k_closure(natural_action(cyclic(3)), 0)


def test_k_closure_is_deterministic():
    A = ksubsets_action(symmetric(4), 2)
    first = k_closure(A, 2)
    second = k_closure(A, 2)
    assert tuple(g.images for g in first.generators) == tuple(
        g.images for g in second.generators
    )


def test_k_closure_budget_carries_partial_result():
    A = ksubsets_action(symmetric(4), 2)
    with pytest.raises(BudgetExceededError) as info:
        k_closure(A, 2, budget=Budget(2))
    partial = info.value.partial
    assert partial is not None
    assert A.group.is_subgroup_of(partial)
    assert partial.is_subgroup_of(k_closure(A, 2))


def test_k_closure_budget_caps_give_the_closure_or_a_partial_subgroup():
    A = ksubsets_action(alternating(5), 2)
    full_budget = Budget()
    full = k_closure(A, 2, full_budget)
    assert full_budget.nodes == 19
    for cap in range(full_budget.nodes + 1):
        budget = Budget(cap)
        try:
            closure = k_closure(A, 2, budget)
        except BudgetExceededError as exc:
            partial = exc.partial
            assert A.group.is_subgroup_of(partial)
            assert partial.is_subgroup_of(full)
        else:
            assert closure.same_group(full)
        assert budget.nodes <= cap + 1


def test_spectrum_budget_caps_give_the_spectrum_or_raise_with_a_prefix():
    # the closure steps charge one budget; once it is spent, no later step
    # charges past it
    A = ksubsets_action(symmetric(6), 2)
    full, outcomes = _every_cap(lambda b: closure_spectrum(A, budget=b), 16)
    for out in outcomes:
        if isinstance(out, BudgetExceededError):
            done = len(out.partial.entries)
            assert done < len(full.entries)
            assert out.partial.entries == full.entries[:done]
            assert out.partial.minimal_k is None
        else:
            assert out == full


@pytest.mark.parametrize("name,k,nodes",[("M22", 6, 164), ("M23", 7, 165), ("M24", 8, 166)])
def test_mathieu_bplus1_closure_is_cheap(name, k, nodes):
    A = catalog_group(name)
    assert exact_base_size(A).size + 1 == k
    budget = Budget()
    H = k_closure(A, k, budget=budget)
    assert H.same_group(A.group)
    # every node is settled by the witness or by chain lookups, never a search
    assert budget.nodes == nodes


def test_psl28_pair_closure_prunes_on_orbitals():
    # PSL(2,8) on the 36 pairs of the projective line is its own 2-closure;
    # forward checking on orbitals keeps the walk to a few dozen nodes
    A = ksubsets_action(catalog_group("PSL(2,8)").group, 2)
    budget = Budget()
    H = k_closure(A, 2, budget=budget)
    assert H.same_group(A.group)
    assert budget.nodes == 52


@settings(max_examples=40, deadline=None)
@given(generator_sets(max_degree=7), st.integers(min_value=1, max_value=3))
def test_k_closure_order_matches_a_fresh_chain(G, k):
    H = k_closure(natural_action(G), k)
    fresh = stabchain.build_chain(G.degree, [g.images for g in H.generators])
    assert H.order() == fresh.order()


@pytest.mark.parametrize(
    "G,k,order",
    [
        (cyclic(24), 1, factorial(24)),
        (psl_projective(2, 23).group, 2, factorial(24)),
        (group(7, "(1 2 3)(4 5)", "(6 7)"), 1, 6 * 2 * 2),
    ],
)
def test_symmetric_closure_order_builds_no_chain(monkeypatch, G, k, order):
    # the k = 1 and k-transitive shortcuts carry their order
    H = k_closure(natural_action(G), k)
    calls = []
    real = stabchain.build_chain

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(stabchain, "build_chain", counting)
    assert H.order() == order
    assert calls == []
    # membership still builds the chain, and it agrees with the known order
    assert H.contains(parse_cycles("(1 2)", G.degree))
    assert calls == [1]
    assert H.chain().order() == order


@settings(max_examples=40, deadline=None)
@given(generator_sets(), st.integers(min_value=2, max_value=4))
def test_k_closure_matches_brute_force_on_random_groups(G, k):
    elems = brute_elements([g.images for g in G.generators], G.degree)
    H = k_closure(natural_action(G), k)
    assert {h.images for h in H.elements()} == brute_k_closure(elems, G.degree, k)


def test_closure_spectrum_a5():
    report = closure_spectrum(natural_action(alternating(5)))
    assert [e.order for e in report.entries] == [120, 120, 120, 60]
    assert report.minimal_k == 4
    assert [e.k for e in report.entries] == [1, 2, 3, 4]


def test_closure_spectrum_a6():
    report = closure_spectrum(natural_action(alternating(6)))
    assert [e.order for e in report.entries] == [720, 720, 720, 720, 360]
    assert report.minimal_k == 5


def test_closure_spectrum_small_groups():
    assert closure_spectrum(natural_action(group(2, "(1 2)"))).minimal_k == 1
    for degree in (0, 1):
        trivial = closure_spectrum(natural_action(PermGroup.trivial(degree)))
        assert [(e.k, e.order) for e in trivial.entries] == [(1, 1)]
        assert trivial.minimal_k == 1
    d4 = closure_spectrum(natural_action(dihedral(4)))
    assert [e.order for e in d4.entries] == [24, 8]
    assert d4.minimal_k == 2
    s3 = closure_spectrum(natural_action(symmetric(3)))
    assert s3.minimal_k == 1


@settings(max_examples=40, deadline=None)
@given(generator_sets(max_degree=6).map(natural_action))
@example(natural_action(alternating(5)))
@example(ksubsets_action(symmetric(4), 2))
@example(natural_action(group(5, "(1 2)(3 4 5)")))
@example(psl_projective(2, 7))
def test_closure_spectrum_chain_is_monotone(A):
    # the walk has no cap of its own; the chain still bottoms out by one past
    # a base size, and the budget holds exactly the nodes of its steps
    budget = Budget()
    report = closure_spectrum(A, budget=budget)
    orders = [e.order for e in report.entries]
    assert all(a >= b for a, b in zip(orders, orders[1:]))
    assert all(a % b == 0 for a, b in zip(orders, orders[1:]))
    assert report.minimal_k is not None
    assert orders[-1] == A.group.order()
    assert report.minimal_k <= exact_base_size(natural_action(A.group)).size + 1
    assert budget.nodes == sum(e.nodes for e in report.entries)


def test_closure_spectrum_respects_k_max():
    report = closure_spectrum(natural_action(alternating(5)), k_max=2)
    assert len(report.entries) == 2
    assert report.minimal_k is None


def test_closure_spectrum_entry_generators_regenerate():
    report = closure_spectrum(ksubsets_action(symmetric(4), 2))
    for entry in report.entries:
        assert PermGroup(6, entry.generators).order() == entry.order


def test_closure_spectrum_budget_exhaustion_is_recorded():
    # k = 1 to 3 are shortcuts that charge nothing; the k = 4 backtrack runs out
    with pytest.raises(BudgetExceededError, match="stopped at k 4") as info:
        closure_spectrum(natural_action(alternating(5)), budget=Budget(2))
    report = info.value.partial
    assert [(e.k, e.order, e.nodes) for e in report.entries] == [
        (1, 120, 0),
        (2, 120, 0),
        (3, 120, 0),
    ]
    assert report.minimal_k is None


def test_closure_spectrum_budget_is_shared_by_its_steps():
    # k = 3 would take 12 nodes after the 19 of k = 2
    budget = Budget(25)
    with pytest.raises(BudgetExceededError) as info:
        closure_spectrum(ksubsets_action(alternating(5), 2), budget=budget)
    report = info.value.partial
    assert [(e.k, e.order, e.nodes) for e in report.entries] == [
        (1, 3628800, 0),
        (2, 120, 19),
    ]
    assert report.minimal_k is None
    assert budget.nodes == 26


def test_closure_spectrum_charges_exactly_its_steps():
    # a base search on S6 on pairs would charge nodes (greedy gives 4, the
    # information bound 3); the walk runs none, so the budget holds the
    # nodes of its closure steps and nothing else
    A = ksubsets_action(symmetric(6), 2)
    budget = Budget()
    report = closure_spectrum(A, budget=budget)
    assert report.minimal_k == 2
    assert budget.nodes == sum(e.nodes for e in report.entries) == 16


def test_k_trans_honours_a_time_budget():
    with pytest.raises(BudgetExceededError):
        k_trans(alternating(5), 12, budget=Budget(max_seconds=1e-6))


def test_k_trans_exhaustion_keeps_the_finished_actions():
    # the subgroup enumeration takes 735 nodes; then the walks run
    # narrowest first: degrees 5, 6 and 10 take 0, 10 and 18 nodes, and the
    # degree-12 one would take 22 more
    with pytest.raises(BudgetExceededError) as info:
        k_trans(alternating(5), 12, budget=Budget(735 + 30))
    cert = info.value.partial
    assert isinstance(cert, KTransCertificate)
    assert not cert.certified
    # no wider class is walked by need, so its bounds come after every
    # walk and the partial holds none
    assert [(e.degree, e.kind, e.value) for e in cert.entries] == [
        (5, "exact", 4), (6, "exact", 3), (10, "exact", 3),
    ]


def test_psl27_is_3_closed_on_the_projective_line():
    A = psl_projective(2, 7)
    assert k_closure(A, 2).order() == 40320
    assert k_closure(A, 3).same_group(A.group)


def test_k_trans_a5():
    value, cert = k_trans(alternating(5), 12)
    assert value == 4
    assert cert.certified
    exact = {e.degree: e.value for e in cert.entries if e.kind == "exact"}
    assert exact == {5: 4, 6: 3, 10: 3, 12: 3}
    assert all(e.value <= 4 for e in cert.entries if e.kind == "bound")


def test_k_trans_m11():
    # M11 has order 7920; its enumeration runs on the default budget
    value, cert = k_trans(catalog_group("M11").group, 12)
    assert (value, cert.certified) == (5, True)


def test_k_trans_s3():
    value, cert = k_trans(symmetric(3), 6)
    assert value == 2
    assert cert.certified
    # faithful transitive actions: the natural one and the free one
    assert {e.degree for e in cert.entries} == {3, 6}


def _count_canonical_lookups(monkeypatch):
    """A list that grows by one per rebased chain (PermGroup.chain with a
    preferred base) asked for inside a canonical image."""
    lookups, inside = [], []
    real_chain = stabchain.PermGroup.chain
    real_image = closure_module._canonical_image

    def chain(self, preferred_base=None):
        if preferred_base is not None and inside:
            lookups.append(1)
        return real_chain(self, preferred_base)

    def image(G, t):
        inside.append(1)
        try:
            return real_image(G, t)
        finally:
            inside.pop()

    monkeypatch.setattr(stabchain.PermGroup, "chain", chain)
    monkeypatch.setattr(closure_module, "_canonical_image", image)
    return lookups


@pytest.mark.parametrize(
    "name,degree_bound,value,cap", [("A6", 15, 5, 310), ("PSL(2,7)", 24, 3, 75)]
)
def test_k_trans_canonical_images_share_prefixes(monkeypatch, name, degree_bound, value, cap):
    # every closure backtrack over a group resumes its canonical images from
    # the longest prefix memoised on the group (302 lookups on A6, 69 on
    # PSL(2,7)); rebuilding every prefix from the first entry took 2,676 and
    # 616 with the generators of that time. The count follows the class
    # generators, which label the cosets of each action
    lookups = _count_canonical_lookups(monkeypatch)
    assert k_trans(catalog_group(name).group, degree_bound)[0] == value
    assert 0 < len(lookups) <= cap


@pytest.mark.parametrize("name", ["A6", "M11", "PSL(2,8)"])
def test_canonical_image_with_a_memoised_prefix_costs_one_lookup(monkeypatch, name):
    G = catalog_group(name).group
    n = G.degree
    lookups = _count_canonical_lookups(monkeypatch)
    image = closure_module._canonical_image
    # tuples of length 2 to 5, up to and past the base (3 for PSL(2,8), 4
    # for A6 and M11)
    for k in range(2, 6):
        for start in range(0, n, 2):
            t = tuple((start + s) % n for s in (0, 2, 1, 5, 3)[:k])
            other = next(p for p in range(n) if p not in t)
            # the prefix asked for whole costs one chain to resume from
            fresh = PermGroup(n, G.generators)
            image(fresh, t[:-1])
            del lookups[:]
            image(fresh, t)
            assert len(lookups) <= 1
            # the prefix held as the state of a tuple that extends it, none
            fresh = PermGroup(n, G.generators)
            image(fresh, t[:-1] + (other,))
            del lookups[:]
            image(fresh, t)
            assert not lookups


@pytest.mark.parametrize("G,degree_bound", [(symmetric(3), 6), (symmetric(4), 8)])
def test_k_trans_skips_exactly_the_unfaithful_classes(G, degree_bound):
    # faithfulness read from a chain of each coset image built afresh,
    # independent of the chain k_trans asks through ActionInstance.faithful
    want = []
    for H in subgroups_up_to_conjugacy(G):
        image = coset_action(G, H).group
        if image.degree > 1 and PermGroup(image.degree, image.generators).order() == G.order():
            want.append((image.degree, H.order()))
    _, cert = k_trans(G, degree_bound)
    assert sorted((e.degree, e.point_stabilizer_order) for e in cert.entries) == sorted(want)
    assert all(e.kind == ("exact" if e.degree <= degree_bound else "bound") for e in cert.entries)


@pytest.mark.parametrize("name,degree_bound", [
    ("S4", 8), ("S4", 4), ("A5", 12), ("A5", 6), ("S5", 10), ("S5", 5),
    ("PSL(2,7)", 14), ("PSL(2,7)", 24), ("A6", 15), ("A6", 10),
])
def test_k_trans_inherited_bounds_hold(name, degree_bound):
    # a class inherits an overgroup's base, so the exact base size of its
    # own action is at most the bound less one; entries are matched to
    # classes by point stabilizer order, and every class of that order must
    # meet the bound
    G = catalog_group(name).group
    _, cert = k_trans(G, degree_bound)
    inherited = [e for e in cert.entries if e.source != "own"]
    assert inherited and all(e.kind == "bound" for e in inherited)
    bound = {}
    for e in inherited:
        bound[e.point_stabilizer_order] = min(e.value, bound.get(e.point_stabilizer_order, e.value))
    for H in subgroups_up_to_conjugacy(G):
        if H.order() in bound:
            assert exact_base_size(coset_action(G, H)).size <= bound[H.order()] - 1


@pytest.mark.parametrize("name,degree_bound,built", [
    ("A5", 12, 5), ("A6", 15, 6), ("PSL(2,7)", 24, 9), ("PSL(2,8)", 36, 4),
])
def test_k_trans_builds_few_coset_actions(monkeypatch, name, degree_bound, built):
    # every class within the degree bound has its action built; a wider one
    # only when no overgroup's base brings its bound down to the exact
    # maximum, which happens on PSL(2,7) alone: its maximal classes give 4
    degrees = []
    real = closure_module.coset_action

    def counting(G, H):
        degrees.append(G.order() // H.order())
        return real(G, H)

    monkeypatch.setattr(closure_module, "coset_action", counting)
    k_trans(catalog_group(name).group, degree_bound)
    assert len(degrees) == built
    assert any(d > degree_bound for d in degrees) == (name == "PSL(2,7)")


def test_k_trans_trivial_group():
    # the one class is the group itself, whose one-point action walks to 1;
    # at bound 0 it is wider than the bound and takes its own base, of size
    # 0, whose bound 1 exceeds the exact maximum 0, so it is walked by need
    for degree_bound in (10, 0):
        value, cert = k_trans(PermGroup.trivial(1), degree_bound)
        assert value == 1
        assert cert == KTransCertificate(
            k=1,
            certified=True,
            entries=(KTransEntry(1, 1, "exact", 1, "own"),),
            note="exact on all actions within the degree bound; no upper bound exceeds the maximum",
        )


def test_k_trans_walks_a_wider_class_by_need():
    # S3's natural action walks to 1, so the free action's bound 2 (its own
    # base of 1, plus one) exceeds the maximum and it is walked
    value, cert = k_trans(symmetric(3), 3)
    assert (value, cert.certified) == (2, True)
    assert [(e.degree, e.kind, e.value) for e in cert.entries] == [(3, "exact", 1), (6, "exact", 2)]
    # PSL(2,13)'s degree-28 and degree-42 classes inherit 4 from the
    # degree-14 class's greedy base of 3, and their own greedy bases are no
    # smaller; their walks give 3, which then dominates every bound
    # the subgroup enumeration takes 16,261 of its 16,605 nodes
    budget = Budget()
    value, cert = k_trans(catalog_group("PSL(2,13)").group, 14, budget)
    assert (value, cert.certified, budget.nodes) == (3, True, 16261 + 344)
    exact = [(e.degree, e.value) for e in cert.entries if e.kind == "exact"]
    assert exact == [(14, 3), (28, 3), (42, 3)]
    assert all(e.value <= 3 for e in cert.entries)


@pytest.mark.parametrize("name,degree_bound,k", [
    ("S4", 8, 3), ("S5", 10, 4), ("S6", 15, 5), ("A5", 12, 4), ("A6", 15, 5),
    ("PSL(2,7)", 14, 3), ("PSL(2,8)", 36, 4), ("PSL(2,11)", 12, 3), ("PSL(2,13)", 14, 3),
])
def test_k_trans_answer_does_not_depend_on_the_degree_bound(name, degree_bound, k):
    G = catalog_group(name).group
    for bound in (1, degree_bound):
        value, cert = k_trans(G, bound)
        assert (value, cert.k, cert.certified) == (k, k, True)


@pytest.mark.parametrize("name", ["S4", "S5", "A5", "PSL(2,7)", "A6", "PSL(2,8)"])
def test_k_trans_decision_walk_matches_the_closure_chain(name):
    # every faithful coset action, at every degree: the base each class
    # records as k_trans does (its own greedy base or an overgroup's,
    # whichever is smaller) bounds the minimal closure index, and the walk
    # down from it gives the index the upward closure chain finds
    G = catalog_group(name).group
    classes, over = subgroup_lattice(G)
    size = {}
    for i in reversed(range(len(classes))):
        A = coset_action(G, classes[i])
        if not A.faithful:
            continue
        size[i] = min([greedy_base(A).size] + [size[j] for j in over[i] if j in size])
        minimal_k = closure_spectrum(A).minimal_k
        assert size[i] + 1 >= minimal_k
        assert _closure_index(A, size[i], Budget()) == minimal_k
    assert size


@pytest.mark.parametrize("name,degree_bound", [("A5", 12), ("PSL(2,7)", 14)])
def test_k_trans_exact_values_have_a_witness_one_below(name, degree_bound):
    # the entries follow the faithful classes in the order k_trans takes
    # them; an exact value v > 1 rests on a permutation outside G that
    # keeps every orbit of G on injective (v - 1)-tuples, checked by brute
    # force on the tuples
    G = catalog_group(name).group
    _, cert = k_trans(G, degree_bound)
    actions = [coset_action(G, H) for H in reversed(subgroups_up_to_conjugacy(G))]
    actions = [A for A in actions if A.faithful]
    assert [(A.degree, A.group.order() // A.degree) for A in actions] == [
        (e.degree, e.point_stabilizer_order) for e in cert.entries
    ]
    checked = 0
    for A, e in zip(actions, cert.entries):
        if e.kind != "exact" or e.value == 1:
            continue
        w = _closure_witness(A, e.value - 1, Budget())
        elems = brute_elements([g.images for g in A.group.generators], A.degree)
        assert w is not None and w.images not in elems
        table = brute_tuple_orbits(elems, A.degree, e.value - 1)
        assert brute_keeps_tuple_orbits(table, w.images)
        checked += 1
    assert checked == sum(e.kind == "exact" for e in cert.entries)


def test_require_nonabelian_simple():
    require_nonabelian_simple(alternating(5))
    require_nonabelian_simple(psl_projective(2, 7).group)
    # two disjoint 64-cycles: abelian of order 4096, rejected from its
    # commuting generators before any listing, so on no budget at all
    cycles = group(128, *(f"({' '.join(map(str, r))})" for r in (range(1, 65), range(65, 129))))
    assert cycles.order() == 4096
    for G in [symmetric(4), cyclic(6), alternating(4), PermGroup.trivial(3), cycles]:
        with pytest.raises(SimplicityError):
            require_nonabelian_simple(G)
    with pytest.raises(SimplicityError):
        require_nonabelian_simple(cycles, Budget(0))


def sl25_on_vectors():
    # SL(2,5) on the 24 nonzero row vectors of GF(5)^2 in lexicographic
    # order, acting on the right (v -> vM); its centre {I, -I} has order 2
    vectors = [v for v in product(range(5), repeat=2) if v != (0, 0)]
    index = {v: i for i, v in enumerate(vectors)}

    def act(M):
        return Permutation(
            tuple(
                index[((x * M[0][0] + y * M[1][0]) % 5, (x * M[0][1] + y * M[1][1]) % 5)]
                for x, y in vectors
            )
        )

    return PermGroup(24, [act(((2, 4), (4, 1))), act(((0, 4), (1, 1)))])


def test_simplicity_check_rejects_sl25():
    # a perfect group with a central normal subgroup: the normal closure of
    # -I has order 2, and -I is one conjugacy class on its own
    G = sl25_on_vectors()
    assert G.order() == 120
    with pytest.raises(SimplicityError):
        require_nonabelian_simple(G)
    A = natural_action(G)
    with pytest.raises(SimplicityError):
        intransitive_certificate(union([A, A]), 2)


@pytest.mark.parametrize("name", ["C1", "C5", "C6", "S3", "D4", "A4", "S4", "D5", "A5", "S5",
                                  "PSL(2,7)", "SL(2,5)", "A6", "S6"])
def test_simplicity_check_matches_brute_normal_closures(name):
    # the check raises exactly when the brute oracle finds a defect, and
    # names a proper normal closure the oracle also found
    G = sl25_on_vectors() if name == "SL(2,5)" else catalog_group(name).group
    defect = brute_simplicity_defect([g.images for g in G.generators], G.degree)
    if defect is None:
        require_nonabelian_simple(G)
        return
    with pytest.raises(SimplicityError) as info:
        require_nonabelian_simple(G)
    if isinstance(defect, set):
        assert str(info.value) in {
            f"normal closure of a conjugacy class has order {m}, proper in {G.order()}"
            for m in defect
        }
    else:
        assert str(info.value) == {
            "trivial": "the trivial group is not nonabelian simple",
            "abelian": "group is abelian",
        }[defect]


def test_simplicity_check_above_the_bytes_line():
    # at degree 257 the elements are tuples; the walk still reaches the
    # rotations, whose class spans the cyclic subgroup of order 257
    with pytest.raises(SimplicityError, match="order 257, proper in 514"):
        require_nonabelian_simple(dihedral(257))


def test_simplicity_check_refuses_groups_above_the_budget(monkeypatch):
    # A8 has order 20160, and its check lists every element on the default
    # budget; it charges two nodes per element first (the listing and the
    # set of elements seen), so a cap below 40320 refuses A8 before any is
    # listed, in the words the subgroup enumeration uses. The enumeration's
    # first charge is its five tables beside the listing, for A8's two
    # generators, in one call
    require_nonabelian_simple(alternating(8))
    _forbid_listing(monkeypatch, "elements listed before the budget was charged")
    with pytest.raises(BudgetExceededError, match="40320 > 40319") as check:
        require_nonabelian_simple(alternating(8), Budget(40319))
    with pytest.raises(BudgetExceededError) as enumeration:
        subgroup_lattice(alternating(8), Budget(40319))
    assert str(enumeration.value) == str(check.value).replace("40320", str(5 * 20160))
    with pytest.raises(AssertionError, match="listed before the budget"):
        require_nonabelian_simple(alternating(8), Budget(40320))


def test_intransitive_certificate_checks_simplicity_on_its_budget(monkeypatch):
    # two copies of A5: the simplicity check charges 120 nodes before it
    # lists an element, so 59 or 119 stop it with nothing listed
    nat = natural_action(alternating(5))
    _forbid_listing(monkeypatch, "elements listed before the budget was charged")
    for cap in (59, 119):
        budget = Budget(cap)
        with pytest.raises(BudgetExceededError):
            intransitive_certificate(union([nat, nat]), 4, budget=budget)
        assert budget.nodes == cap + 1


def test_intransitive_certificate_two_natural_copies():
    nat = natural_action(alternating(5))
    U = union([nat, nat])
    verdict = intransitive_certificate(U, 4)
    assert verdict.status == "certified"
    assert verdict.orbit_count == 2
    # dual route: the closure computed directly on the union agrees
    assert k_closure(U, 4).same_group(U.group)


def test_intransitive_certificate_mixed_degrees():
    nat = natural_action(alternating(5))
    pairs = ksubsets_action(alternating(5), 2)
    verdict = intransitive_certificate(union([nat, pairs]), 4)
    assert verdict.status == "certified"


def test_intransitive_certificate_detects_transitive_cross_stabilizer():
    A5 = alternating(5)
    sub10 = next(S for S in subgroups_up_to_conjugacy(A5) if S.order() == 10)
    six = coset_action(A5, sub10)
    verdict = intransitive_certificate(union([natural_action(A5), six]), 4)
    assert verdict.status == "hypothesis-fails"
    assert verdict.failing_pair == (0, 1)


def test_intransitive_certificate_names_a_witness_outside_an_orbit_image():
    # A5 on the 6 cosets of its order-10 subgroup is 2-transitive, so the
    # 2-closure of each copy is S6; the stabilizer hypothesis holds
    A5 = alternating(5)
    sub10 = next(S for S in subgroups_up_to_conjugacy(A5) if S.order() == 10)
    six = coset_action(A5, sub10)
    verdict = intransitive_certificate(union([six, six]), 2)
    assert verdict.status == "per-orbit-closure-fails"
    assert verdict.failing_orbit == 0
    cycles = verdict.detail[verdict.detail.index("(") : verdict.detail.rindex(")") + 1]
    assert not six.group.contains(parse_cycles(cycles, 6))


def test_intransitive_certificate_input_screening():
    with pytest.raises(ValueError):
        intransitive_certificate(natural_action(alternating(5)), 2)
    not_simple = union([natural_action(symmetric(4)), natural_action(symmetric(4))])
    with pytest.raises(SimplicityError):
        intransitive_certificate(not_simple, 2)
    abelian = natural_action(group(5, "(1 2)(3 4 5)"))
    with pytest.raises(SimplicityError):
        intransitive_certificate(abelian, 2)


def test_complete_lemma_check_m11():
    report = complete_lemma_check(mathieu("M11"), 4, out_trivial=True, maximal_in_alt=True)
    assert report.status == "confirmed"
    assert report.transitivity == 4
    assert report.closure_order_at_k == 39916800
    assert report.closure_order_at_k_plus_1 == 7920
    w = report.witness
    assert w is not None
    assert sum(1 for p in range(11) if w(p) != p) == 2
    assert not mathieu("M11").group.contains(w)


def test_complete_lemma_check_guards():
    a5 = natural_action(alternating(5))
    assert complete_lemma_check(a5, 3, out_trivial=True, maximal_in_alt=True).status == (
        "hypotheses-not-applicable"
    )
    s4 = natural_action(symmetric(4))
    assert complete_lemma_check(s4, 3, out_trivial=True, maximal_in_alt=True).status == (
        "hypotheses-not-applicable"
    )
    wrong_k = complete_lemma_check(mathieu("M11"), 3, out_trivial=True, maximal_in_alt=True)
    assert wrong_k.status == "hypotheses-fail"
    assert wrong_k.transitivity == 4
    unattested = complete_lemma_check(mathieu("M11"), 4, out_trivial=False, maximal_in_alt=True)
    assert unattested.status == "hypotheses-fail"


def _closures_share_one_budget(check, per_closure_nodes):
    """check(budget) runs the closures; each fits the cap, their sum does not."""
    total = sum(per_closure_nodes)
    assert max(per_closure_nodes) <= total - 1
    with pytest.raises(BudgetExceededError):
        check(Budget(total - 1))
    budget = Budget(total)
    check(budget)
    assert budget.nodes == total


def test_intransitive_certificate_closures_share_one_budget():
    nat = natural_action(alternating(5))
    pairs = ksubsets_action(alternating(5), 2)
    U = union([nat, pairs])
    # the simplicity check charges two nodes per element of A5 first
    _closures_share_one_budget(lambda b: intransitive_certificate(U, 4, budget=b), [120, 6, 12])


def test_block_lemma_check_closures_share_one_budget():
    c6 = natural_action(cyclic(6))
    S = BlockSystem.from_blocks([[0, 3], [1, 4], [2, 5]], 6)
    _closures_share_one_budget(lambda b: block_lemma_check(c6, S, 2, budget=b), [6, 3])


def test_restriction_lemma_check_closures_share_one_budget():
    nat = natural_action(alternating(5))
    pairs = ksubsets_action(alternating(5), 2)
    U = union([nat, pairs])
    _closures_share_one_budget(lambda b: restriction_lemma_check(U, 3, budget=b), [20, 12])


def test_complete_lemma_check_charges_the_given_budget():
    # the (k+1)-closure search takes 19 nodes; a second check on the same
    # budget finds too few left
    A = psl_projective(2, 7)
    budget = Budget(30)
    first = complete_lemma_check(A, 2, out_trivial=True, maximal_in_alt=True, budget=budget)
    assert first.status == "confirmed"
    assert budget.nodes == 19
    with pytest.raises(BudgetExceededError):
        complete_lemma_check(A, 2, out_trivial=True, maximal_in_alt=True, budget=budget)


def _every_cap(run, nodes):
    """The uncapped result of run(budget), which must take nodes nodes, and
    the outcome at every cap 0..nodes: the result, or the error raised."""
    full_budget = Recorded()
    full = run(full_budget)
    assert full_budget.nodes == nodes
    outcomes = []
    for cap in range(nodes + 1):
        budget = Budget(cap)
        try:
            outcomes.append(run(budget))
        except BudgetExceededError as exc:
            outcomes.append(exc)
        # a capped run counts the full run's charges up to the first that
        # overruns the cap, so the nodes before that charge are at most cap
        assert budget.nodes == min((t for t in full_budget.totals if t > cap), default=nodes)
    assert outcomes[-1] == full
    assert outcomes[0] != full
    return full, outcomes


def test_k_trans_budget_caps_give_the_answer_or_an_uncertified_partial():
    # the subgroup enumerations take 735 nodes on A5 and 312 on S4; then on
    # S4/8 the natural action's walk charges no node, the three wider walks
    # 8, 10 and 12. A cap that stops the enumeration gives a partial with
    # no entries.
    for G, degree_bound, nodes in [(alternating(5), 12, 735 + 50), (symmetric(4), 8, 312 + 30)]:
        full, outcomes = _every_cap(lambda b: k_trans(G, degree_bound, budget=b), nodes)
        for out in outcomes:
            if isinstance(out, BudgetExceededError):
                assert not out.partial.certified
                assert set(out.partial.entries) <= set(full[1].entries)
            else:
                assert out == full
        assert outcomes[0].partial.entries == ()
        assert "subgroup enumeration stopped" in str(outcomes[0])
    # PSL(2,13)/14: after the enumeration's 16,261 nodes, the degree-14 walk
    # takes 125 nodes, and the degree-28 walk by need stops after 75 more
    with pytest.raises(BudgetExceededError, match="degree-28") as info:
        k_trans(catalog_group("PSL(2,13)").group, 14, budget=Budget(16261 + 200))
    cert = info.value.partial
    assert not cert.certified
    assert cert.entries == (KTransEntry(14, 78, "exact", 3, "own"),)


def _a5_natural_plus_pairs():
    a5 = alternating(5)
    return union([natural_action(a5), ksubsets_action(a5, 2)])


def _d6_block_lemma(blocks, k):
    S = BlockSystem.from_blocks(blocks, 6)
    return lambda b: block_lemma_check(natural_action(dihedral(6)), S, k, budget=b)


@pytest.mark.parametrize("run,nodes", [
    (_d6_block_lemma([[0, 2, 4], [1, 3, 5]], 2), 6),
    (_d6_block_lemma([[0, 3], [1, 4], [2, 5]], 3), 6),
    (lambda b: intransitive_certificate(_a5_natural_plus_pairs(), 4, budget=b), 120 + 18),
    (lambda b: restriction_lemma_check(_a5_natural_plus_pairs(), 3, budget=b), 32),
    (lambda b: complete_lemma_check(
        mathieu("M11"), 4, out_trivial=True, maximal_in_alt=True, budget=b), 32),
], ids=["block-D6-2blocks", "block-D6-3blocks", "intransitive-A5", "restriction-A5",
        "complete-M11"])
def test_lemma_check_budget_caps_give_the_answer_or_raise(run, nodes):
    full, outcomes = _every_cap(run, nodes)
    assert all(isinstance(out, BudgetExceededError) or out == full for out in outcomes)


def test_complete_lemma_check_confirms_psl27():
    # the conclusion holds for this exactly 2-transitive degree-8 action
    report = complete_lemma_check(psl_projective(2, 7), 2, out_trivial=True, maximal_in_alt=True)
    assert report.status == "confirmed"
    assert report.closure_order_at_k == 40320
    assert report.closure_order_at_k_plus_1 == 168


def test_complete_lemma_check_reports_a_failed_prediction():
    # A5 on pairs is exactly 1-transitive, but its 2-closure is S5 on
    # pairs, of order 120, not the group
    report = complete_lemma_check(
        ksubsets_action(alternating(5), 2), 1, out_trivial=True, maximal_in_alt=True
    )
    assert report.status == "prediction-fails"
    assert (report.transitivity, report.closure_order_at_k) == (1, factorial(10))
    assert report.closure_order_at_k_plus_1 == 120
    assert report.witness == parse_cycles("(1 2)", 10)


def test_block_lemma_checks_faithfulness_where_two_blocks_fix_nothing():
    # S3 regular on 6 points: each of the 3 blocks has a stabilizer of
    # order 2, and two of them meet trivially
    s3 = natural_action(group(6, "(1 2 3)(4 6 5)", "(1 4)(2 5)(3 6)"))
    S = BlockSystem.from_blocks([[0, 3], [1, 5], [2, 4]], 6)
    record = block_lemma_check(s3, S, 2)
    assert record.faithful_ok is True
    assert record.holds


def test_block_lemma_on_imprimitive_actions():
    cases = []
    d4 = natural_action(dihedral(4))
    cases.append((d4, BlockSystem.from_blocks([[0, 2], [1, 3]], 4), 2))
    c6 = natural_action(cyclic(6))
    cases.append((c6, BlockSystem.from_blocks([[0, 3], [1, 4], [2, 5]], 6), 2))
    cases.append((c6, BlockSystem.from_blocks([[0, 3], [1, 4], [2, 5]], 6), 3))
    cases.append((c6, BlockSystem.from_blocks([[0, 2, 4], [1, 3, 5]], 6), 2))
    s4p = ksubsets_action(symmetric(4), 2)
    cases.append((s4p, BlockSystem.from_blocks([[0, 5], [1, 4], [2, 3]], 6), 2))
    for A, S, k in cases:
        record = block_lemma_check(A, S, k)
        assert record.preserved
        assert record.quotient_ok
        assert record.restriction_ok
        assert record.holds


def test_block_lemma_rejects_out_of_range_k():
    d4 = natural_action(dihedral(4))
    S = BlockSystem.from_blocks([[0, 2], [1, 3]], 4)
    with pytest.raises(ValueError):
        block_lemma_check(d4, S, 1)
    with pytest.raises(ValueError):
        block_lemma_check(d4, S, 3)


def test_restriction_lemma_on_orbit_unions():
    nat = natural_action(alternating(5))
    pairs = ksubsets_action(alternating(5), 2)
    for A, k in [
        (union([nat, nat]), 2),
        (union([nat, pairs]), 3),
        (natural_action(group(5, "(1 2 3)", "(4 5)")), 2),
    ]:
        record = restriction_lemma_check(A, k)
        assert record.orbit_count >= 2
        assert record.holds
    with pytest.raises(ValueError):
        restriction_lemma_check(nat, 2)
