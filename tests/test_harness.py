"""Tests for the verification suites and their report plumbing."""

import pytest
from hypothesis import example, given, settings, strategies as st

from closurelab.actions import ksubsets_action, natural_action, union
from closurelab.catalog import catalog_group
from closurelab.errors import DegreeLimitError
from closurelab.harness import (
    _ORACLE_POOL,
    Claim,
    SuiteResult,
    filtration_closure_orders,
    run_suite,
    suite_names,
)
from closurelab.perm import Permutation
from closurelab.stabchain import PermGroup

from oracles import brute_elements, brute_k_closure


def test_suite_names_cover_the_registry():
    names = suite_names()
    assert "an-closure" in names
    assert "halasi-bases" in names
    assert "mathieu-complete" in names
    assert "eq1-monotone" in names
    assert "m24-base" in names
    assert len(names) == len(set(names)) == 14


def test_unknown_suite_raises():
    with pytest.raises(ValueError):
        run_suite("no-such-suite")


def test_an_closure_suite_includes_a7(monkeypatch):
    import closurelab.harness as harness
    from closurelab.closure import KTransCertificate

    degrees = []

    def stub(G, degree_bound):
        degrees.append(G.degree)
        return 0, KTransCertificate(k=0, certified=False, entries=(), note="stub")

    monkeypatch.setattr(harness, "k_trans", stub)
    result = run_suite("an-closure")
    assert "a7-ktrans" in [c.claim_id for c in result.claims]
    assert degrees == [5, 6, 7]


def test_partition_suite_passes():
    result = run_suite("partition-bases")
    assert result.passed
    assert result.suite == "partition-bases"
    assert all(c.passed for c in result.claims)
    assert all(c.citation for c in result.claims)


def test_psl_suite_passes():
    result = run_suite("psl-bases")
    assert result.passed
    assert len(result.claims) == 8


def test_symmetric_collapse_suite_passes():
    result = run_suite("symmetric-collapse")
    assert result.passed


def test_block_suite_passes():
    result = run_suite("block-lemma")
    assert result.passed


def test_report_round_trip():
    result = run_suite("partition-bases")
    again = SuiteResult.from_dict(result.to_dict())
    assert again == result
    assert again.passed == result.passed


def test_report_dict_shape():
    result = run_suite("psl-bases")
    data = result.to_dict()
    assert data["suite"] == "psl-bases"
    assert data["passed"] is True
    for row in data["claims"]:
        assert set(row) == {"id", "citation", "expected", "computed", "passed", "elapsed_ms"}


def test_failed_claim_fails_the_suite():
    good = Claim("a", "c", "1", "1", True, 0)
    bad = Claim("b", "c", "1", "2", False, 0)
    assert SuiteResult("s", (good,)).passed
    assert not SuiteResult("s", (good, bad)).passed


def test_suites_are_deterministic():
    first = run_suite("eq1-monotone")
    second = run_suite("eq1-monotone")
    strip = lambda r: [(c.claim_id, c.expected, c.computed, c.passed) for c in r.claims]
    assert strip(first) == strip(second)
    assert first.passed


@pytest.mark.parametrize("k", [0, -1])
def test_filtration_route_rejects_nonpositive_k(k):
    with pytest.raises(ValueError, match="k must be at least 1"):
        filtration_closure_orders(catalog_group("A5"), [k])


def test_filtration_route_refuses_degree_ten_before_any_table(monkeypatch):
    import closurelab.harness as harness

    def no_table(*args):
        raise AssertionError("built an orbit table")

    monkeypatch.setattr(harness, "_tuple_orbits", no_table)
    with pytest.raises(DegreeLimitError, match="10"):
        filtration_closure_orders(natural_action(PermGroup(10, ())), [1])


def _brute_orders(A, k_values):
    elems = brute_elements([g.images for g in A.group.generators], A.degree)
    return [len(brute_k_closure(elems, A.degree, k)) for k in k_values]


def _oracle_cases():
    a4 = natural_action(catalog_group("A4").group)
    return [
        pytest.param(catalog_group(name), [1, 2, 3, 4], id=name)
        for name in ("C6", "D4", "A4", "A5")
    ] + [
        pytest.param(ksubsets_action(catalog_group("S4").group, 2), [1, 2, 3], id="S4-pairs"),
        pytest.param(union([a4, a4]), [1, 2, 3], id="A4-twice"),
        pytest.param(natural_action(PermGroup(4, ())), [1, 2, 3], id="no-generators"),
        pytest.param(natural_action(PermGroup(1, [Permutation((0,))])), [1, 2], id="degree-1"),
        pytest.param(catalog_group("D3"), [2, 3, 4, 7], id="k-past-degree"),
        pytest.param(catalog_group("D4"), [3, 1, 3], id="unordered-repeats"),
    ]


@pytest.mark.parametrize("A,k_values", _oracle_cases())
def test_filtration_route_matches_brute_oracle(A, k_values):
    assert filtration_closure_orders(A, k_values) == _brute_orders(A, k_values)


# Orders for k = 1..4 as the full scan over every permutation computed them.
_PINNED_ORACLE_ORDERS = {
    "C2": [2, 2, 2, 2],
    "C3": [6, 3, 3, 3],
    "C4": [24, 4, 4, 4],
    "C5": [120, 5, 5, 5],
    "C6": [720, 6, 6, 6],
    "C7": [5040, 7, 7, 7],
    "C8": [40320, 8, 8, 8],
    "D2": [4, 4, 4, 4],
    "D3": [6, 6, 6, 6],
    "D4": [24, 8, 8, 8],
    "D5": [120, 10, 10, 10],
    "D6": [720, 12, 12, 12],
    "D7": [5040, 14, 14, 14],
    "D8": [40320, 16, 16, 16],
    "S3": [6, 6, 6, 6],
    "S4": [24, 24, 24, 24],
    "S5": [120, 120, 120, 120],
    "S6": [720, 720, 720, 720],
    "S7": [5040, 5040, 5040, 5040],
    "S8": [40320, 40320, 40320, 40320],
    "A4": [24, 24, 12, 12],
    "A5": [120, 120, 120, 60],
    "A6": [720, 720, 720, 720],
    "A7": [5040, 5040, 5040, 5040],
    "A8": [40320, 40320, 40320, 40320],
    "PSL(2,4)": [120, 120, 120, 60],
    "PSL(2,5)": [720, 720, 60, 60],
    "PSL(2,7)": [40320, 40320, 168, 168],
}


def test_filtration_route_keeps_the_pinned_oracle_orders():
    assert sorted(_PINNED_ORACLE_ORDERS) == sorted(_ORACLE_POOL)
    for name, expected in _PINNED_ORACLE_ORDERS.items():
        assert filtration_closure_orders(catalog_group(name), [1, 2, 3, 4]) == expected, name
    for name, expected in [("S4", [720, 48, 24, 24]), ("A4", [720, 24, 12, 12])]:
        A = ksubsets_action(catalog_group(name).group, 2)
        assert filtration_closure_orders(A, [1, 2, 3, 4]) == expected, name


@st.composite
def generator_sets(draw, max_degree=6):
    degree = draw(st.integers(min_value=1, max_value=max_degree))
    images = st.permutations(list(range(degree)))
    gens = draw(st.lists(images, max_size=3))
    return PermGroup(degree, [Permutation(tuple(g)) for g in gens])


@settings(max_examples=40, deadline=None)
@given(generator_sets(), st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=4))
def test_filtration_orders_are_group_multiples_and_descend(G, k_values):
    A = natural_action(G)
    ks = sorted(k_values)
    orders = filtration_closure_orders(A, ks)
    assert all(order % G.order() == 0 for order in orders)
    assert all(x >= y for x, y in zip(orders, orders[1:]))


_SWAP01 = Permutation((1, 0, 2, 3, 4))
_CYCLE012 = Permutation((1, 2, 0, 3, 4))


@settings(max_examples=60, deadline=None)
@given(
    generator_sets(max_degree=5),
    st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=6),
)
@example(PermGroup(5, ()), [1, 2, 3, 4, 5, 6])
@example(PermGroup(5, [_CYCLE012, _CYCLE012, _SWAP01]), [1, 2, 3, 4, 5, 6])
@example(PermGroup(5, [_SWAP01, Permutation((0, 1, 2, 4, 3))]), [6, 2, 1, 2])
def test_filtration_route_matches_brute_closure_on_random_groups(G, k_values):
    A = natural_action(G)
    assert filtration_closure_orders(A, k_values) == _brute_orders(A, k_values)
