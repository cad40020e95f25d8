"""Construction of the stock groups and actions used throughout the package.

Families come in three flavors: elementary series (symmetric, alternating,
cyclic, dihedral) built from standard generators, projective linear groups
built from matrices over small finite fields, and the five Mathieu groups
loaded from shipped generator files. Every constructor validates the order
of what it built (and, where it is part of the defining data, the
transitivity degree) before handing the group back, so a corrupt data file
or a bad generator recipe fails loudly instead of producing a plausible
wrong group.
"""

from __future__ import annotations

import re
import zlib
from importlib import resources
from itertools import product
from math import factorial, gcd

from .actions import ActionInstance, transitivity_degree
from .budget import DEFAULT_MAX_DEGREE
from .errors import DegreeLimitError, SimplicityError, ValidationError
from .perm import Domain, Permutation, Record, parse_cycles, print_cycles
from .stabchain import PermGroup

# ---------------------------------------------------------------------------
# finite fields


class FiniteField:
    """GF(q) for small prime powers q, with exhaustively checked tables.

    Elements are coded as integers 0..q-1; the code is the value of the
    coefficient vector in base p (least significant coefficient first), so
    for prime q the code is the residue itself. Non-prime fields use a
    fixed modulus polynomial per q. Construction builds the full addition
    and multiplication tables and, for q <= 16, verifies the field axioms
    over all element triples.
    """

    # modulus coefficients, constant term first
    _MODULI = {
        4: (1, 1, 1),  # x^2 + x + 1
        8: (1, 1, 0, 1),  # x^3 + x + 1
        9: (1, 0, 1),  # x^2 + 1
        16: (1, 1, 0, 0, 1),  # x^4 + x + 1
    }

    def __init__(self, q: int):
        p, e = _factor_prime_power(q)
        if p == 0:
            raise ValueError(f"{q} is not a prime power")
        if e > 1 and q not in self._MODULI:
            raise ValueError(f"no modulus polynomial on file for q={q}")
        self.q = q
        self.p = p
        self.e = e
        self._add = [[0] * q for _ in range(q)]
        self._mul = [[0] * q for _ in range(q)]
        for a in range(q):
            ca = self.coeffs(a)
            for b in range(q):
                cb = self.coeffs(b)
                self._add[a][b] = self._encode(
                    tuple((x + y) % p for x, y in zip(ca, cb))
                )
                self._mul[a][b] = self._encode(self._poly_mul(ca, cb))
        self._inv = [0] * q
        for a in range(1, q):
            self._inv[a] = next(b for b in range(1, q) if self._mul[a][b] == 1)
        if q <= 16:
            self._check_axioms()

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Base-p coefficient vector of the element code, constant term first."""
        if not 0 <= a < self.q:
            raise ValueError(f"element code {a} out of range for GF({self.q})")
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def _encode(self, coeffs) -> int:
        val = 0
        for c in reversed(coeffs):
            val = val * self.p + c
        return val

    def _poly_mul(self, ca, cb) -> tuple[int, ...]:
        p, e = self.p, self.e
        prod_coeffs = [0] * (2 * e - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod_coeffs[i + j] = (prod_coeffs[i + j] + x * y) % p
        if e == 1:
            return tuple(prod_coeffs)
        modulus = self._MODULI[self.q]
        # reduce: x^e = -(modulus minus leading term)
        for i in range(2 * e - 2, e - 1, -1):
            c = prod_coeffs[i]
            if c:
                prod_coeffs[i] = 0
                for j in range(e):
                    prod_coeffs[i - e + j] = (prod_coeffs[i - e + j] - c * modulus[j]) % p
        return tuple(prod_coeffs[:e])

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def neg(self, a: int) -> int:
        return next(b for b in range(self.q) if self._add[a][b] == 0)

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in a finite field")
        return self._inv[a]

    def elements(self) -> range:
        return range(self.q)

    def primitive_element(self) -> int:
        """Least element generating the multiplicative group."""
        for a in range(1, self.q):
            seen = set()
            x = 1
            while True:
                x = self._mul[x][a]
                if x in seen:
                    break
                seen.add(x)
                if x == 1:
                    break
            if len(seen) == self.q - 1:
                return a
        raise ValidationError(f"GF({self.q}) has no primitive element")

    def _check_axioms(self) -> None:
        q, add_t, mul_t = self.q, self._add, self._mul
        for a in range(q):
            if add_t[a][0] != a:
                raise ValidationError("additive identity fails")
            if mul_t[a][1] != a:
                raise ValidationError("multiplicative identity fails")
            if not any(add_t[a][b] == 0 for b in range(q)):
                raise ValidationError("additive inverse missing")
            if a and self._mul[a][self._inv[a]] != 1:
                raise ValidationError("multiplicative inverse fails")
            for b in range(q):
                if add_t[a][b] != add_t[b][a] or mul_t[a][b] != mul_t[b][a]:
                    raise ValidationError("commutativity fails")
                if a and b and mul_t[a][b] == 0:
                    raise ValidationError("zero divisor found")
                for c in range(q):
                    if add_t[add_t[a][b]][c] != add_t[a][add_t[b][c]]:
                        raise ValidationError("additive associativity fails")
                    if mul_t[mul_t[a][b]][c] != mul_t[a][mul_t[b][c]]:
                        raise ValidationError("multiplicative associativity fails")
                    if mul_t[a][add_t[b][c]] != add_t[mul_t[a][b]][mul_t[a][c]]:
                        raise ValidationError("distributivity fails")


def _factor_prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        return 0, 0
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    return (p, e) if q == 1 else (0, 0)


# ---------------------------------------------------------------------------
# projective point domains


class ProjectivePointDomain(Record):
    """The points of projective (n-1)-space over GF(q).

    Each point is the unique vector in its line whose last nonzero
    coordinate is 1, and points are listed in lexicographic order of
    their coordinate codes.
    """

    field: FiniteField
    n: int
    points: tuple[tuple[int, ...], ...]

    @classmethod
    def build(cls, field: FiniteField, n: int) -> "ProjectivePointDomain":
        if n < 2:
            raise ValueError("projective domains need dimension at least 2")
        pts = [
            v
            for v in product(field.elements(), repeat=n)
            if any(v) and v[max(i for i, c in enumerate(v) if c)] == 1
        ]
        q = field.q
        expected = (q**n - 1) // (q - 1)
        if len(pts) != expected:
            raise ValidationError("projective point count mismatch")
        return cls(field, n, tuple(pts))

    @property
    def count(self) -> int:
        return len(self.points)

    def normalize(self, v: tuple[int, ...]) -> tuple[int, ...]:
        last = max(i for i, c in enumerate(v) if c)
        s = self.field.inv(v[last])
        return tuple(self.field.mul(c, s) for c in v)

    def index(self, v: tuple[int, ...]) -> int:
        return self.points.index(self.normalize(v))

    def domain(self) -> Domain:
        return Domain(tuple("(" + ",".join(str(c) for c in p) + ")" for p in self.points))


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
# projective linear groups


def psl_order(n: int, q: int) -> int:
    """Order of PSL(n, q)."""
    out = q ** (n * (n - 1) // 2)
    for i in range(2, n + 1):
        out *= q**i - 1
    return out // gcd(n, q - 1)


def _dot(F: FiniteField, u, v) -> int:
    acc = 0
    for x, y in zip(u, v):
        acc = F.add(acc, F.mul(x, y))
    return acc


def _vec_mat(F: FiniteField, v, M):
    n = len(v)
    return tuple(_dot(F, v, tuple(M[t][j] for t in range(n))) for j in range(n))


def _matrix_permutation(F: FiniteField, P: ProjectivePointDomain, M) -> Permutation:
    return Permutation(tuple(P.index(_vec_mat(F, v, M)) for v in P.points))


def psl_projective(
    n: int,
    q: int,
    allow_nonsimple: bool = False,
) -> ActionInstance:
    """PSL(n, q) acting on the points of projective (n-1)-space.

    Generators come from SL(n, q): a transvection whose off-diagonal entry
    is a primitive field element and a monomial matrix realizing the basis
    cycle, with a diagonal torus element thrown in when those two do not
    already generate the full group (this happens for some non-prime
    fields). Row vectors act on the right, and the built permutation group
    is checked against the known order of PSL(n, q). The non-simple cases
    (2,2) and (2,3) are rejected unless allow_nonsimple is set.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if (n, q) in {(2, 2), (2, 3)} and not allow_nonsimple:
        raise SimplicityError(f"PSL({n},{q}) is not simple; pass allow_nonsimple to build it")
    F = FiniteField(q)
    P = ProjectivePointDomain.build(F, n)
    if P.count > DEFAULT_MAX_DEGREE:
        raise DegreeLimitError(f"projective domain has {P.count} points, limit {DEFAULT_MAX_DEGREE}")
    lam = F.primitive_element()
    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    transvection = tuple(
        tuple(lam if (i, j) == (0, 1) else ident[i][j] for j in range(n)) for i in range(n)
    )
    # basis cycle e_1 -> e_2 -> ... -> e_n -> (-1)^(n-1) e_1, determinant 1
    sign = 1 if n % 2 == 1 else F.neg(1)
    weyl = tuple(
        tuple(
            (sign if j == 0 else 0) if i == n - 1 else (1 if j == i + 1 else 0)
            for j in range(n)
        )
        for i in range(n)
    )
    torus = tuple(
        tuple((lam if i == 0 else F.inv(lam) if i == 1 else 1) if i == j else 0 for j in range(n))
        for i in range(n)
    )
    expected = psl_order(n, q)
    for matrices in ([transvection, weyl], [transvection, weyl, torus]):
        gens = tuple(_matrix_permutation(F, P, M) for M in matrices)
        G = PermGroup(P.count, gens, name=f"PSL({n},{q})")
        if G.order() == expected:
            break
    _validate_order(G, expected, f"PSL({n},{q})")
    return ActionInstance(
        group=G,
        domain=P.domain(),
        provenance=f"psl({n},{q})",
        source_order=expected,
    )


def psl_frame_base(n: int, q: int) -> tuple[ActionInstance, tuple[int, ...]]:
    """The standard-frame base for PSL(n, q) on projective points.

    Returns the projective action together with the domain indices of the
    points spanned by the standard basis vectors, extended by the all-ones
    point when q > 2. Verifies that this set is a base, and that for q > 2
    the basis points alone are not (the diagonal torus survives), while
    for q = 2 they already are.
    """
    A = psl_projective(n, q)
    F = FiniteField(q)
    P = ProjectivePointDomain.build(F, n)
    unit_idx = tuple(
        P.index(tuple(1 if i == j else 0 for j in range(n))) for i in range(n)
    )
    if q == 2:
        base = unit_idx
    else:
        stab = A.group.pointwise_stabilizer(unit_idx)
        if stab.order() == 1:
            raise ValidationError(
                f"PSL({n},{q}): basis points alone were a base, expected a torus remnant"
            )
        base = unit_idx + (P.index(tuple(1 for _ in range(n))),)
    if A.group.pointwise_stabilizer(base).order() != 1:
        raise ValidationError(f"PSL({n},{q}): frame point set is not a base")
    return A, base


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
    return ActionInstance(
        group=G,
        domain=Domain.natural(degree),
        provenance=f"catalog({name})",
        source_order=order,
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
        G = builder(int(m.group(2)))
        return ActionInstance(
            group=G,
            domain=Domain.natural(G.degree),
            provenance=f"catalog({name})",
            source_order=G.order(),
        )
    raise ValueError(f"unknown catalog name {name!r}")
