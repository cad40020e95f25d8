"""Stock groups: fields, projective actions, elementary series, Mathieu."""

from math import factorial

import pytest

from closurelab.actions import transitivity_degree
from closurelab.catalog import (
    FiniteField,
    ProjectivePointDomain,
    alternating,
    catalog_group,
    catalog_names,
    cyclic,
    dihedral,
    format_generator_file,
    mathieu,
    psl_frame_base,
    psl_order,
    psl_projective,
    read_generator_file,
    symmetric,
)
from closurelab.errors import SimplicityError, ValidationError
from closurelab.perm import parse_cycles
from closurelab.stabchain import build_chain

from oracles import brute_elements


# ---------------------------------------------------------------------------
# finite fields


def test_field_axioms_hold_for_all_supported_small_orders():
    # construction itself runs the exhaustive axiom check for q <= 16
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        F = FiniteField(q)
        assert F.q == q


def test_prime_field_matches_modular_arithmetic():
    F = FiniteField(7)
    for a in range(7):
        for b in range(7):
            assert F.add(a, b) == (a + b) % 7
            assert F.mul(a, b) == (a * b) % 7
    assert F.inv(3) == 5


def test_gf4_structure():
    F = FiniteField(4)
    # codes 0,1,2,3 are 0, 1, x, x+1 with x^2 = x + 1
    assert F.mul(2, 2) == 3
    assert F.mul(2, 3) == 1
    assert F.add(2, 3) == 1
    assert F.coeffs(3) == (1, 1)
    assert F.primitive_element() == 2


def test_gf9_and_gf8_inverses():
    for q in (8, 9):
        F = FiniteField(q)
        for a in range(1, q):
            assert F.mul(a, F.inv(a)) == 1


def test_primitive_element_generates():
    for q in (4, 5, 8, 9, 13):
        F = FiniteField(q)
        g = F.primitive_element()
        powers = set()
        x = 1
        for _ in range(q - 1):
            x = F.mul(x, g)
            powers.add(x)
        assert len(powers) == q - 1


def test_bad_field_orders_rejected():
    for q in (0, 1, 6, 12):
        with pytest.raises(ValueError):
            FiniteField(q)
    with pytest.raises(ValueError):
        FiniteField(25)  # no modulus on file
    with pytest.raises(ZeroDivisionError):
        FiniteField(5).inv(0)


# ---------------------------------------------------------------------------
# projective point domains


def test_projective_point_counts():
    for n, q, count in [(2, 2, 3), (2, 3, 4), (2, 5, 6), (3, 2, 7), (3, 3, 13), (4, 2, 15)]:
        P = ProjectivePointDomain.build(FiniteField(q), n)
        assert P.count == count
        assert P.points == tuple(sorted(P.points))
        for v in P.points:
            last = max(i for i, c in enumerate(v) if c)
            assert v[last] == 1
        labels = P.domain().labels
        assert len(set(labels)) == len(labels)


def test_projective_normalization():
    P = ProjectivePointDomain.build(FiniteField(5), 2)
    # (2, 4) scales by 4^-1 = 4 to (3, 1)
    assert P.normalize((2, 4)) == (3, 1)
    assert P.index((2, 4)) == P.points.index((3, 1))


# ---------------------------------------------------------------------------
# elementary series


def test_elementary_series_orders():
    for n in range(1, 8):
        assert symmetric(n).order() == _fact(n)
        assert cyclic(n).order() == n
        assert dihedral(n).order() == 2 * n
    for n in range(1, 8):
        assert alternating(n).order() == max(1, _fact(n) // 2)


def _fact(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def test_elementary_series_element_sets_match_brute_force():
    from itertools import permutations

    S4 = symmetric(4)
    assert {p.images for p in S4.elements()} == set(permutations(range(4)))
    A4 = alternating(4)
    got = {p.images for p in A4.elements()}
    assert len(got) == 12
    assert all(_parity(img) == 0 for img in got)
    D6 = dihedral(6)
    want = brute_elements(
        [parse_cycles("(1 2 3 4 5 6)", 6).images, parse_cycles("(2 6)(3 5)", 6).images], 6
    )
    assert {p.images for p in D6.elements()} == want


def _parity(images):
    seen = [False] * len(images)
    odd = 0
    for i in range(len(images)):
        if not seen[i]:
            j, length = i, 0
            while not seen[j]:
                seen[j] = True
                j = images[j]
                length += 1
            odd ^= (length - 1) % 2
    return odd


def test_degenerate_dihedral_conventions():
    D1 = dihedral(1)
    assert D1.degree == 2 and D1.order() == 2
    D2 = dihedral(2)
    assert D2.degree == 4 and D2.order() == 4
    assert len(D2.orbits()) == 2


@pytest.mark.parametrize("n", range(3, 16))
def test_bounded_order_checks_keep_the_full_scan_chain(n):
    # symmetric and alternating stop their chains at n! and n!/2; once the
    # chain is complete the rest of the scan finds nothing to add
    for G, bound in ((symmetric(n), factorial(n)), (alternating(n), factorial(n) // 2)):
        full = build_chain(n, [g.images for g in G.generators]).levels
        bounded = G.chain().levels
        assert [level.beta for level in bounded] == [level.beta for level in full]
        assert [level.gens for level in bounded] == [level.gens for level in full]
        assert [list(level.orbit) for level in bounded] == [list(level.orbit) for level in full]
        assert G.order() == bound


# ---------------------------------------------------------------------------
# projective special linear groups


PSL_FACTS = [
    # n, q, order, degree
    (2, 4, 60, 5),
    (2, 5, 60, 6),
    (2, 7, 168, 8),
    (2, 8, 504, 9),
    (2, 9, 360, 10),
    (2, 11, 660, 12),
    (2, 13, 1092, 14),
    (3, 2, 168, 7),
    (3, 3, 5616, 13),
    (4, 2, 20160, 15),
]


def test_psl_orders_and_degrees():
    for n, q, order, degree in PSL_FACTS:
        assert psl_order(n, q) == order
        A = psl_projective(n, q)
        assert A.degree == degree
        assert A.group.order() == order
        assert A.faithful


def test_psl_transitivity():
    assert transitivity_degree(psl_projective(2, 4).group) == 3
    assert transitivity_degree(psl_projective(2, 8).group) == 3
    assert transitivity_degree(psl_projective(2, 5).group) == 2
    assert transitivity_degree(psl_projective(3, 2).group) == 2


def test_psl_2_4_is_the_natural_alternating_group():
    assert psl_projective(2, 4).group.same_group(alternating(5))


def test_psl_nonsimple_cases_need_opt_in():
    with pytest.raises(SimplicityError):
        psl_projective(2, 2)
    with pytest.raises(SimplicityError):
        psl_projective(2, 3)
    assert psl_projective(2, 2, allow_nonsimple=True).group.order() == 6
    assert psl_projective(2, 3, allow_nonsimple=True).group.order() == 12


def test_frame_base_sizes_and_verification():
    for n, q, size in [(2, 5, 3), (3, 2, 3), (3, 3, 4), (4, 2, 4)]:
        A, base = psl_frame_base(n, q)
        assert len(base) == size
        assert A.group.pointwise_stabilizer(base).order() == 1


def test_frame_base_torus_remnant_for_q_above_two():
    A, base = psl_frame_base(2, 5)
    # without the all-ones point the diagonal survives
    assert A.group.pointwise_stabilizer(base[:-1]).order() > 1
    A2, base2 = psl_frame_base(3, 2)
    # q = 2: the basis points already form the base
    assert len(base2) == 3


# ---------------------------------------------------------------------------
# Mathieu groups


MATHIEU_FACTS = [
    ("M11", 11, 7920, 4),
    ("M12", 12, 95040, 5),
    ("M22", 22, 443520, 3),
    ("M23", 23, 10200960, 4),
    ("M24", 24, 244823040, 5),
]


def test_mathieu_groups_load_and_validate():
    for name, degree, order, trans in MATHIEU_FACTS:
        A = mathieu(name)
        assert A.degree == degree
        assert A.group.order() == order
        assert transitivity_degree(A.group) == trans
        assert A.faithful
        assert A.provenance == f"catalog({name})"


def test_mathieu_stabilizer_tower():
    M23 = mathieu("M23")
    assert M23.group.pointwise_stabilizer([0]).order() == 443520
    M12 = mathieu("M12")
    assert M12.group.pointwise_stabilizer([11]).order() == 7920


def test_unknown_mathieu_name():
    with pytest.raises(ValueError):
        mathieu("M13")


def test_mathieu_validation_catches_corrupt_data(monkeypatch):
    import closurelab.catalog as cat

    good = cat.resources.files("closurelab").joinpath("data/m11.txt").read_text("utf-8")
    lines = [ln for ln in good.splitlines() if not ln.startswith("checksum")]
    corrupt = "\n".join(lines[:-1]) + "\n"  # drop one generator

    class FakeTraversable:
        def joinpath(self, *a):
            return self

        def read_text(self, *a, **kw):
            return corrupt

    monkeypatch.setattr(cat.resources, "files", lambda pkg: FakeTraversable())
    with pytest.raises(ValidationError, match="order check failed"):
        mathieu("M11")


# ---------------------------------------------------------------------------
# generator files


def test_generator_file_round_trip():
    G = mathieu("M11").group
    text = format_generator_file(G.degree, G.generators)
    assert text.splitlines()[-1].startswith("checksum ")
    degree, gens = read_generator_file(text)
    assert degree == 11
    assert gens == tuple(G.generators)


def test_generator_file_checksum_mismatch():
    text = "degree 3\n(1 2 3)\nchecksum 00000000\n"
    with pytest.raises(ValidationError, match="checksum"):
        read_generator_file(text)


def test_generator_file_header_required():
    with pytest.raises(ValidationError, match="degree"):
        read_generator_file("(1 2 3)\n")
    with pytest.raises(ValidationError, match="empty"):
        read_generator_file("\n  \n")


def test_generator_file_comments_and_no_checksum():
    degree, gens = read_generator_file("# sample\ndegree 4\n(1 2)\n(3 4)\n")
    assert degree == 4
    assert len(gens) == 2


# ---------------------------------------------------------------------------
# registry


def test_catalog_group_resolution():
    assert catalog_group("A5").group.order() == 60
    assert catalog_group("S6").group.order() == 720
    assert catalog_group("C12").group.order() == 12
    assert catalog_group("D6").group.order() == 12
    assert catalog_group("M11").group.order() == 7920
    assert catalog_group("PSL(3,2)").group.order() == 168
    assert catalog_group("PSL(2,2)").group.order() == 6  # registry allows non-simple
    with pytest.raises(ValueError):
        catalog_group("E8")
    assert len(catalog_names()) >= 5
