"""Construction of the stock groups and actions used throughout the package.

Families come in two flavors here: elementary series (symmetric,
alternating, cyclic, dihedral) built from standard generators, and the five
Mathieu groups loaded from shipped generator files. The projective linear
groups are built in classical.py, and catalog_group resolves their names
too. Every constructor validates the order of what it built (and, where it
is part of the defining data, the transitivity degree) before handing the
group back, so a corrupt data file or a bad generator recipe fails loudly
instead of producing a plausible wrong group.
"""

from __future__ import annotations

import re
import zlib
from importlib import resources
from math import factorial

from .actions import ActionInstance, transitivity_degree
from .classical import psl_projective
from .errors import ValidationError
from .perm import Domain, Permutation, parse_cycles, print_cycles
from .stabchain import PermGroup

# ---------------------------------------------------------------------------
# elementary series


def symmetric(n: int) -> PermGroup:
    """The symmetric group on n points with its standard two generators."""
    if n < 1:
        raise ValueError("degree must be positive")
    if n == 1:
        return PermGroup.trivial(1)
    gens = [Permutation(tuple([1, 0] + list(range(2, n))))]
    if n > 2:
        gens.append(Permutation(tuple(list(range(1, n)) + [0])))
    G = PermGroup(n, tuple(gens), name=f"S{n}")
    _validate_order(G, factorial(n), f"S{n}", bounded=True)
    return G


def alternating(n: int) -> PermGroup:
    """The alternating group on n points, generated by a 3-cycle and a cycle."""
    if n < 1:
        raise ValueError("degree must be positive")
    if n <= 2:
        return PermGroup.trivial(n)
    if n == 3:
        G = PermGroup(3, (Permutation((1, 2, 0)),), name="A3")
    else:
        three = Permutation(tuple([1, 2, 0] + list(range(3, n))))
        if n % 2 == 1:
            big = Permutation(tuple(list(range(1, n)) + [0]))
        else:
            big = Permutation(tuple([0] + list(range(2, n)) + [1]))
        G = PermGroup(n, (three, big), name=f"A{n}")
    if not all(g.is_even() for g in G.generators):
        raise ValidationError(f"A{n}: a generator is odd")
    _validate_order(G, factorial(n) // 2, f"A{n}", bounded=True)
    return G


def cyclic(n: int) -> PermGroup:
    """The cyclic group of order n in its regular action."""
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return PermGroup.trivial(1)
    G = PermGroup(n, (Permutation(tuple(list(range(1, n)) + [0])),), name=f"C{n}")
    _validate_order(G, n, f"C{n}")
    return G


def dihedral(n: int) -> PermGroup:
    """The dihedral group of order 2n.

    For n >= 3 this is the symmetry group of the n-gon on n points; the
    degenerate cases keep the order-2n convention: n=1 gives the group of
    order 2 on two points and n=2 gives the Klein group on four points.
    """
    if n < 1:
        raise ValueError("order parameter must be positive")
    if n == 1:
        G = PermGroup(2, (Permutation((1, 0)),), name="D1")
    elif n == 2:
        G = PermGroup(
            4,
            (Permutation((1, 0, 2, 3)), Permutation((0, 1, 3, 2))),
            name="D2",
        )
    else:
        rot = Permutation(tuple(list(range(1, n)) + [0]))
        ref = Permutation(tuple((n - i) % n for i in range(n)))
        G = PermGroup(n, (rot, ref), name=f"D{n}")
    _validate_order(G, 2 * n, f"D{n}")
    return G


def _validate_order(G: PermGroup, expected: int, name: str, bounded: bool = False) -> None:
    """Raise unless G has order expected. bounded says that expected also
    bounds the order before any chain is built (n! on n points, n!/2 for
    even generators), so G's chain stops once it reaches expected."""
    if not (G._has_order(expected) if bounded else G.order() == expected):
        raise ValidationError(f"{name}: order check failed, got {G.order()}, expected {expected}")


# ---------------------------------------------------------------------------
# generator files and the Mathieu groups


def read_generator_file(text: str) -> tuple[int, tuple[Permutation, ...]]:
    """Parse a generator file: 'degree N', one cycle-notation line per
    generator, optionally ending with 'checksum <crc32-hex>' over the
    preceding lines."""
    lines = [ln.rstrip("\n") for ln in text.splitlines()]
    lines = [ln for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValidationError("generator file is empty")
    if lines[-1].startswith("checksum"):
        parts = lines[-1].split()
        if len(parts) != 2:
            raise ValidationError("malformed checksum line")
        body = "\n".join(lines[:-1]) + "\n"
        got = f"{zlib.crc32(body.encode('utf-8')):08x}"
        if got != parts[1].lower():
            raise ValidationError(f"checksum mismatch: file says {parts[1]}, content gives {got}")
        lines = lines[:-1]
    m = re.fullmatch(r"degree\s+(\d+)", lines[0].strip())
    if not m:
        raise ValidationError("first line must be 'degree N'")
    degree = int(m.group(1))
    if degree < 1:
        raise ValidationError("degree must be positive")
    gens = tuple(parse_cycles(ln, degree) for ln in lines[1:])
    return degree, gens


def format_generator_file(degree: int, gens) -> str:
    """Render generators and a checksum line in the format read_generator_file reads."""
    body = f"degree {degree}\n" + "".join(print_cycles(g) + "\n" for g in gens)
    return body + f"checksum {zlib.crc32(body.encode('utf-8')):08x}\n"


_MATHIEU_FACTS = {
    "M11": (11, 7920, 4),
    "M12": (12, 95040, 5),
    "M22": (22, 443520, 3),
    "M23": (23, 10200960, 4),
    "M24": (24, 244823040, 5),
}


def mathieu(name: str) -> ActionInstance:
    """One of the five Mathieu groups in its natural action.

    Generators are loaded from the shipped data file and the group is
    validated against its known order and transitivity degree before
    being returned; any corruption surfaces as a ValidationError naming
    the failed check.
    """
    if name not in _MATHIEU_FACTS:
        raise ValueError(f"unknown Mathieu group {name!r}; choose from {sorted(_MATHIEU_FACTS)}")
    degree, order, trans = _MATHIEU_FACTS[name]
    text = resources.files("closurelab").joinpath(f"data/{name.lower()}.txt").read_text("utf-8")
    file_degree, gens = read_generator_file(text)
    if file_degree != degree:
        raise ValidationError(f"{name}: degree check failed, file says {file_degree}, expected {degree}")
    G = PermGroup(degree, gens, name=name)
    _validate_order(G, order, name)
    got_trans = transitivity_degree(G)
    if got_trans != trans:
        raise ValidationError(
            f"{name}: transitivity check failed, got {got_trans}-transitive, expected {trans}"
        )
    return _catalog_action(G, name)


def _catalog_action(G: PermGroup, name: str) -> ActionInstance:
    """G on the points 1..n as the catalog entry name."""
    return ActionInstance(
        group=G,
        domain=Domain.natural(G.degree),
        provenance=f"catalog({name})",
        source_order=G.order(),
    )


# ---------------------------------------------------------------------------
# name registry


def catalog_names() -> tuple[str, ...]:
    """Patterns accepted by catalog_group, with a few concrete instances."""
    return (
        "S<n>   symmetric, e.g. S6",
        "A<n>   alternating, e.g. A5",
        "C<n>   cyclic of order n, e.g. C12",
        "D<n>   dihedral of order 2n, e.g. D6",
        "M11 M12 M22 M23 M24   Mathieu groups",
        "PSL(<n>,<q>)   projective special linear, e.g. PSL(3,2)",
    )


def catalog_group(name: str) -> ActionInstance:
    """Resolve a catalog name to its standard action."""
    name = name.strip()
    if name in _MATHIEU_FACTS:
        return mathieu(name)
    m = re.fullmatch(r"PSL\((\d+),(\d+)\)", name)
    if m:
        return psl_projective(int(m.group(1)), int(m.group(2)), allow_nonsimple=True)
    m = re.fullmatch(r"([ASCD])(\d+)", name)
    if m:
        builder = {
            "A": alternating,
            "S": symmetric,
            "C": cyclic,
            "D": dihedral,
        }[m.group(1)]
        return _catalog_action(builder(int(m.group(2))), name)
    raise ValueError(f"unknown catalog name {name!r}")
