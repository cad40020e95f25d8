"""Finite geometry: small finite fields, projective spaces over them, and the
projective special linear groups acting on their points.

A field GF(q) is built as full addition and multiplication tables, checked
against the field axioms for q <= 16. Projective points are listed only
after their count passes the degree guard. PSL(n, q) is built from matrices
of SL(n, q) acting on those points, and its order is checked against the
formula before the action is handed back; psl_frame_base adds the base
spanned by the standard frame and checks that it is one.
"""

from __future__ import annotations

from itertools import product
from math import gcd

from .actions import ActionInstance
from .budget import DEFAULT_MAX_DEGREE
from .errors import DegreeLimitError, SimplicityError, ValidationError
from .perm import Domain, Permutation, Record
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
        q = field.q
        expected = (q**n - 1) // (q - 1)
        # the count is refused before any of the q^n vectors is listed
        if expected > DEFAULT_MAX_DEGREE:
            raise DegreeLimitError(f"projective domain has {expected} points, limit {DEFAULT_MAX_DEGREE}")
        pts = [
            v
            for v in product(field.elements(), repeat=n)
            if any(v) and v[max(i for i, c in enumerate(v) if c)] == 1
        ]
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
    else:
        raise ValidationError(f"PSL({n},{q}): order check failed, got {G.order()}, expected {expected}")
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
