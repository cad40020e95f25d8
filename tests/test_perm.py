"""Permutation arithmetic, cycle text, and domains."""

import pytest
from hypothesis import example, given, strategies as st

from closurelab.perm import (
    Domain,
    Permutation,
    compose,
    compose_images,
    inverse_images,
    pack_images,
    parse_cycles,
    print_cycles,
)
from closurelab.errors import CycleParseError, DegreeMismatchError


def test_identity_fixes_everything():
    e = Permutation.identity(5)
    assert e.is_identity()
    assert [e(i) for i in range(5)] == [0, 1, 2, 3, 4]
    assert print_cycles(e) == "()"


def test_images_validation():
    with pytest.raises(ValueError):
        Permutation((0, 0, 2))
    with pytest.raises(ValueError):
        Permutation((0, 3, 1))


def test_compose_applies_left_factor_first():
    p = parse_cycles("(1 2 3)", 3)
    q = parse_cycles("(1 2)", 3)
    # point 1 under p goes to 2, then under q stays at... 2 maps to 1
    assert compose(p, q)(0) == 0
    assert compose(q, p)(0) == 2


def test_compose_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        compose(Permutation.identity(3), Permutation.identity(4))


def test_mul_matches_compose():
    p = parse_cycles("(1 4)(2 3)", 4)
    q = parse_cycles("(1 2 3 4)", 4)
    assert p * q == compose(p, q)


def test_inverse_round_trip():
    p = parse_cycles("(1 5 2)(3 4)", 6)
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()


def test_cycles_structure():
    p = parse_cycles("(2 6)(1 3 5)", 6)
    assert p.cycles() == [(0, 2, 4), (1, 5)]
    assert print_cycles(p) == "(1 3 5)(2 6)"


def test_parity_counts_transpositions():
    assert Permutation.identity(4).is_even()
    assert not parse_cycles("(1 2)", 4).is_even()
    assert parse_cycles("(1 2 3)", 4).is_even()
    assert not parse_cycles("(1 2 3 4)", 4).is_even()
    assert parse_cycles("(1 2)(3 4)", 4).is_even()


def test_parse_empty_and_unit_cycles():
    assert parse_cycles("", 4).is_identity()
    assert parse_cycles("()", 4).is_identity()
    assert parse_cycles("(2)", 4).is_identity()


def test_parse_whitespace_and_commas():
    p = parse_cycles("(1, 2, 3) (4 5)", 5)
    assert p == parse_cycles("(1 2 3)(4 5)", 5)


def test_parse_rejects_out_of_range_point():
    with pytest.raises(CycleParseError):
        parse_cycles("(1 7)", 6)
    with pytest.raises(CycleParseError):
        parse_cycles("(0 1)", 6)


def test_parse_rejects_repeated_point():
    with pytest.raises(CycleParseError):
        parse_cycles("(1 2)(2 3)", 4)


def test_parse_rejects_unclosed_cycle():
    with pytest.raises(CycleParseError) as info:
        parse_cycles("(1 2", 4)
    assert info.value.position is not None


def test_parse_rejects_stray_text():
    with pytest.raises(CycleParseError):
        parse_cycles("x(1 2)", 4)


def test_ordering_is_by_image_tuple():
    a = Permutation((0, 1, 2))
    b = Permutation((0, 2, 1))
    assert a < b
    assert sorted([b, a]) == [a, b]


def test_domain_natural_labels():
    d = Domain.natural(4)
    assert d.size == 4
    assert d.labels == ("1", "2", "3", "4")


def test_domain_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        Domain(("a", "a", "b"))


@st.composite
def perms(draw, max_degree=8):
    degree = draw(st.integers(min_value=1, max_value=max_degree))
    images = draw(st.permutations(list(range(degree))))
    return Permutation(tuple(images))


@given(perms())
def test_inverse_is_involutive(p):
    assert p.inverse().inverse() == p
    assert (p * p.inverse()).is_identity()


@given(perms())
def test_cycle_text_round_trip(p):
    assert parse_cycles(print_cycles(p), p.degree) == p


@given(perms(max_degree=6), perms(max_degree=6))
def test_composition_associates_with_call(p, q):
    if p.degree != q.degree:
        return
    r = p * q
    for i in range(p.degree):
        assert r(i) == q(p(i))


@st.composite
def image_pairs(draw):
    degree = draw(st.integers(min_value=0, max_value=9))
    p = draw(st.permutations(list(range(degree))))
    q = draw(st.permutations(list(range(degree))))
    return tuple(p), tuple(q)


@example(((), ()))
@example(((0,), (0,)))
@example(((1, 0), (1, 0)))
@given(image_pairs())
def test_compose_images_is_p_then_q(pair):
    p, q = pair
    got = compose_images(p, q)
    assert type(got) is tuple
    assert got == tuple(q[i] for i in p)
    # packed, the same product and inverse as bytes
    bp, bq = pack_images(p), pack_images(q)
    assert type(compose_images(bp, bq)) is bytes
    assert tuple(compose_images(bp, bq)) == got
    assert inverse_images(bp) == pack_images(inverse_images(p))
    assert compose_images(bp, inverse_images(bp)) == pack_images(range(len(p)))
