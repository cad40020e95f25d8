"""Named verification suites and their reports.

Each suite runs a fixed list of claims, every claim pairing a computed
value against an independently stated expectation, with a citation line
saying which mathematical fact the claim pins down. Suites are
deterministic: same inputs, same report.
"""

from __future__ import annotations

import time
from itertools import permutations
from math import factorial

from .actions import (
    coset_action,
    ksubsets_action,
    maximal_block_systems,
    natural_action,
    quotient_action,
    union,
)
from .basesize import exact_base_size, halasi_base, partition_base_check
from .catalog import catalog_group, psl_frame_base, psl_projective
from .closure import (
    block_lemma_check,
    closure_spectrum,
    complete_lemma_check,
    intransitive_certificate,
    k_closure,
    k_trans,
    restriction_lemma_check,
)
from .errors import BudgetExceededError, DegreeLimitError, ValidationError
from .lattice import subgroups_up_to_conjugacy
from .perm import Record


class Claim(Record):
    """One verified statement inside a suite."""

    claim_id: str
    citation: str
    expected: str
    computed: str
    passed: bool
    elapsed_ms: int


class SuiteResult(Record):
    """A suite's claims and overall verdict."""

    suite: str
    claims: tuple[Claim, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "claims": [
                {
                    "id": c.claim_id,
                    "citation": c.citation,
                    "expected": c.expected,
                    "computed": c.computed,
                    "passed": c.passed,
                    "elapsed_ms": c.elapsed_ms,
                }
                for c in self.claims
            ],
        }

    @staticmethod
    def from_dict(data: dict) -> "SuiteResult":
        claims = tuple(
            Claim(
                claim_id=c["id"],
                citation=c["citation"],
                expected=c["expected"],
                computed=c["computed"],
                passed=c["passed"],
                elapsed_ms=c["elapsed_ms"],
            )
            for c in data["claims"]
        )
        return SuiteResult(suite=data["suite"], claims=claims)


class _Recorder:
    def __init__(self):
        self.claims: list[Claim] = []
        self.running = ""

    def claim(self, claim_id: str, citation: str, expected, compute) -> None:
        """Record one claim; expected is a value or a callable, timed with compute."""
        self.running = claim_id
        t0 = time.monotonic()
        if callable(expected):
            expected = expected()
        computed = compute()
        elapsed = int((time.monotonic() - t0) * 1000)
        self.claims.append(
            Claim(
                claim_id=claim_id,
                citation=citation,
                expected=str(expected),
                computed=str(computed),
                passed=str(expected) == str(computed),
                elapsed_ms=elapsed,
            )
        )


# ---------------------------------------------------------------------------
# an independent second route for closure values


def filtration_closure_orders(A, k_values) -> list[int]:
    """Closure orders computed straight from the definition.

    Partition the injective k-tuples into orbits by breadth-first search over
    the generators, then count the permutations of the domain sending
    every tuple inside its own orbit. Those permutations form a group K
    containing G, so K is a union of left cosets hG: if h passes, so does
    every element of hG, and if h fails, so does every element. The walk
    over all permutations of the domain therefore tests one representative
    per coset, marks the rest of its coset by right-multiplying with the
    generators, and adds the number of elements it marked for each passing
    coset.

    Permutations and tuples are bytes, and each generator is a 256-byte
    translation table, so x.translate(g) applies x, then g, in one call.
    The visited set keys up to n! strings, so degrees above 9 raise
    DegreeLimitError before any table is built.

    The route stays independent of the backtrack: it builds no stabilizer
    chain and reads nothing from the group but its generators' images, so
    the coset size comes from the walk, not from the group's order.
    """
    k_values = list(k_values)
    if any(k < 1 for k in k_values):
        raise ValueError("k must be at least 1")
    n = A.degree
    if n > 9:
        raise DegreeLimitError(f"degree {n} exceeds the filtration route's limit 9")
    pad = bytes(range(n, 256))
    gens = [bytes(g.images) + pad for g in A.group.generators]
    tables = {min(k, n): _tuple_orbits(gens, n, min(k, n)) for k in k_values}
    counts = dict.fromkeys(tables, 0)
    seen: set[bytes] = set()
    for h in map(bytes, permutations(range(n))):
        if h in seen:
            continue
        coset = _translation_orbit(h, gens, seen)
        table = h + pad
        for kk, orbit in tables.items():
            if all(orbit[t.translate(table)] == i for t, i in orbit.items()):
                counts[kk] += len(coset)
    return [counts[min(k, n)] for k in k_values]


def _tuple_orbits(gens, n: int, k: int) -> dict[bytes, int]:
    """Orbit number of every injective k-tuple of range(n), as bytes, under
    the translation tables gens."""
    orbit: dict[bytes, int] = {}
    label = 0
    for t in map(bytes, permutations(range(n), k)):
        if t not in orbit:
            orbit.update(dict.fromkeys(_translation_orbit(t, gens, set()), label))
            label += 1
    return orbit


def _translation_orbit(x: bytes, gens, seen: set[bytes]) -> list[bytes]:
    """The strings reached from x, which is not in seen, by translating
    through the tables gens; each is added to seen."""
    seen.add(x)
    orbit = [x]
    for cur in orbit:
        for g in gens:
            y = cur.translate(g)
            if y not in seen:
                seen.add(y)
                orbit.append(y)
    return orbit


# ---------------------------------------------------------------------------
# the suites


def _k_trans_verdict(G, degree_bound: int) -> tuple[int, bool]:
    """k_trans's value for G and whether it is certified exact."""
    k, cert = k_trans(G, degree_bound)
    return k, cert.certified


def _suite_an_closure(rec: _Recorder) -> None:
    cite = "the natural alternating group of degree n has closure number n-1"
    a5 = catalog_group("A5")
    report5 = closure_spectrum(a5)
    rec.claim(
        "a5-chain",
        cite + "; on 5 points the chain of closure orders is 120,120,120,60",
        [120, 120, 120, 60],
        lambda: [e.order for e in report5.entries],
    )
    rec.claim("a5-minimal-k", cite, 4, lambda: report5.minimal_k)
    rec.claim(
        "a6-minimal-k", cite, 5, lambda: closure_spectrum(catalog_group("A6")).minimal_k
    )
    rec.claim(
        "a5-ktrans",
        "over every faithful transitive action of Alt(5) the largest minimal closure index is 4",
        (4, True),
        lambda: _k_trans_verdict(a5.group, 12),
    )
    rec.claim(
        "a6-ktrans",
        "over every faithful transitive action of Alt(6) the largest minimal closure index is 5",
        (5, True),
        lambda: _k_trans_verdict(catalog_group("A6").group, 15),
    )
    rec.claim(
        "a7-ktrans",
        "over every faithful transitive action of Alt(7) the largest minimal closure index is 6",
        (6, True),
        lambda: _k_trans_verdict(catalog_group("A7").group, 21),
    )


def _suite_symmetric_collapse(rec: _Recorder) -> None:
    for n in (5, 6, 7):
        rec.claim(
            f"a{n}-at-{n - 2}",
            "below its closure number the natural alternating group closes up to "
            "the full symmetric group",
            factorial(n),
            lambda n=n: k_closure(catalog_group(f"A{n}"), n - 2).order(),
        )


def _suite_halasi_bases(rec: _Recorder) -> None:
    cite = "base sizes of symmetric and alternating groups acting on k-subsets"
    for name, k, expected in [
        ("S5", 2, 3),
        ("A5", 2, 2),
        ("S6", 2, 4),
        ("A6", 2, 3),
        ("S6", 3, 3),
    ]:
        rec.claim(
            f"{name.lower()}-{k}subsets",
            cite,
            expected,
            lambda name=name, k=k: exact_base_size(
                ksubsets_action(catalog_group(name).group, k)
            ).size,
        )
    for n in range(5, 10):
        rec.claim(
            f"pair-chain-{n}",
            "chained point pairs form a base for the symmetric group on 2-subsets",
            "trivial stabilizer",
            lambda n=n: _halasi_summary(n),
        )


def _suite_partition_bases(rec: _Recorder) -> None:
    cite = "base sizes of symmetric and alternating groups on uniform partitions"
    for n, a, b, sym_expected, alt_expected in [
        (6, 2, 3, 4, 3),
        (6, 3, 2, 4, 3),
        (8, 2, 4, 3, None),
    ]:
        rec.claim(
            f"partitions-{n}-{a}x{b}",
            cite,
            (sym_expected, alt_expected, True),
            lambda n=n, a=a, b=b, alt=alt_expected: (lambda r: (
                r.sym.size,
                r.alt.size if alt is not None else None,
                r.consistent,
            ))(partition_base_check(n, a, b)),
        )


def _suite_psl_bases(rec: _Recorder) -> None:
    for n, q in [(2, 5), (3, 2), (3, 3), (4, 2)]:
        expected = n + 1 - (1 if q == 2 else 0)
        rec.claim(
            f"psl-{n}-{q}-exact",
            "on projective points the special linear group needs one more base "
            "point than its matrix dimension over the field of two elements, "
            "and exactly the dimension otherwise",
            expected,
            lambda n=n, q=q: exact_base_size(psl_projective(n, q)).size,
        )
        rec.claim(
            f"psl-{n}-{q}-witness",
            "the unit points, plus the all-ones point away from the field of two "
            "elements, form a base of the stated size",
            (expected, "trivial stabilizer"),
            lambda n=n, q=q: _psl_witness_summary(n, q),
        )


def _halasi_summary(n: int) -> str:
    halasi_base(n)  # raises if the claimed pairs do not pin the group
    return "trivial stabilizer"


def _psl_witness_summary(n: int, q: int):
    A, base_points = psl_frame_base(n, q)
    stab = A.group.pointwise_stabilizer(list(base_points))
    if stab.order() != 1:
        raise ValidationError(f"PSL({n},{q}) witness stabilizer has order {stab.order()}")
    return (len(base_points), "trivial stabilizer")


def _suite_mathieu_complete(rec: _Recorder) -> None:
    rec.claim(
        "m11-complete",
        "the degree-11 Mathieu group is exactly 4-transitive; its 4-closure is "
        "the full symmetric group and its 5-closure is the group itself",
        ("confirmed", 39916800, 7920, True),
        lambda: (lambda r: (
            r.status,
            r.closure_order_at_k,
            r.closure_order_at_k_plus_1,
            r.witness is not None and not catalog_group("M11").group.contains(r.witness),
        ))(complete_lemma_check(catalog_group("M11"), 4, out_trivial=True, maximal_in_alt=True)),
    )
    rec.claim(
        "m23-5-closure",
        "the 5-closure of the degree-23 Mathieu action is the group itself, "
        "order 10200960",
        10200960,
        lambda: k_closure(catalog_group("M23"), 5).order(),
    )


def _suite_m24_base(rec: _Recorder) -> None:
    rec.claim(
        "m24-exact-base",
        "the degree-24 Mathieu action has minimal base size 7, met with an "
        "exhaustive search certificate",
        7,
        lambda: exact_base_size(catalog_group("M24")).size,
    )


_MONOTONE_POOL = [
    ("A4", None), ("S4", None), ("A5", None), ("A6", None), ("C8", None), ("S4", 2),
    ("A5", 2), ("S5", 2), ("PSL(2,7)", None), ("PSL(2,8)", None), ("M11", None), ("M12", None),
]


def _pool_action(name: str, subset_k):
    A = catalog_group(name)
    if subset_k is None:
        return A, name
    return ksubsets_action(A.group, subset_k), f"{name} on {subset_k}-subsets"


def _suite_eq1_monotone(rec: _Recorder) -> None:
    for name, subset_k in _MONOTONE_POOL:
        A, label = _pool_action(name, subset_k)
        rec.claim(
            f"monotone-{label.replace(' ', '-')}",
            "closure orders form a descending divisibility chain in k that "
            "bottoms out at the group order",
            ("descending", "divisible", "reaches group"),
            lambda A=A: _monotone_facts(A),
        )


def _monotone_facts(A):
    report = closure_spectrum(A)
    orders = [e.order for e in report.entries]
    descending = all(x >= y for x, y in zip(orders, orders[1:]))
    divisible = all(x % y == 0 for x, y in zip(orders, orders[1:]))
    reaches = orders[-1] == A.group.order()
    return (
        "descending" if descending else f"not descending: {orders}",
        "divisible" if divisible else f"not divisible: {orders}",
        "reaches group" if reaches else f"does not reach group: {orders}",
    )


_BPLUS1_POOL = [
    "C2", "C3", "C4", "C6", "C8", "C12", "D3", "D4", "D6", "D8",
    "S3", "S4", "S5", "S6", "S7", "A4", "A5", "A6", "A7", "A8",
    "PSL(2,4)", "PSL(2,5)", "PSL(2,7)", "PSL(2,8)", "PSL(2,9)", "PSL(2,11)",
    "PSL(3,2)", "PSL(3,3)", "PSL(4,2)", "M11", "M12", "M22", "M23", "M24",
]


def _suite_bplus1_collapse(rec: _Recorder) -> None:
    for name in _BPLUS1_POOL:
        A = catalog_group(name)
        rec.claim(
            f"bplus1-{name}",
            "one past a base size the closure chain has already collapsed to "
            "the group",
            "collapsed",
            lambda A=A: _bplus1_fact(A),
        )


def _bplus1_fact(A):
    b = exact_base_size(A).size
    H = k_closure(A, b + 1)
    return "collapsed" if H.same_group(A.group) else f"order {H.order()} at k={b + 1}"


_ORACLE_POOL = [
    "C2", "C3", "C4", "C5", "C6", "C7", "C8", "D2", "D3", "D4", "D5", "D6",
    "D7", "D8", "S3", "S4", "S5", "S6", "S7", "S8", "A4", "A5", "A6", "A7",
    "A8", "PSL(2,4)", "PSL(2,5)", "PSL(2,7)",
]


def _suite_closure_oracle(rec: _Recorder) -> None:
    for name in _ORACLE_POOL:
        A = catalog_group(name)
        ks = list(range(1, 5))
        rec.claim(
            f"oracle-{name}",
            "the backtrack's closure orders equal the exhaustive filtration of "
            "the full symmetric group by orbit membership on k-tuples, k=1..4",
            lambda A=A, ks=ks: filtration_closure_orders(A, ks),
            lambda A=A, ks=ks: [k_closure(A, k).order() for k in ks],
        )
    for name, k in [("S4", 2), ("A4", 2)]:
        A = ksubsets_action(catalog_group(name).group, k)
        rec.claim(
            f"oracle-{name}-pairs",
            "the same filtration agreement on the induced 2-subset actions",
            lambda A=A: filtration_closure_orders(A, [1, 2, 3, 4]),
            lambda A=A: [k_closure(A, k).order() for k in range(1, 5)],
        )


_BLOCK_POOL = ["C4", "C6", "D4", "D6", "C8", "C9"]


def _suite_block_lemma(rec: _Recorder) -> None:
    cases = []
    for name in _BLOCK_POOL:
        A = catalog_group(name)
        for S in maximal_block_systems(A):
            if not 1 < S.num_blocks < A.degree:
                continue
            for k in sorted({2, min(3, S.num_blocks)}):
                cases.append((f"{name}", A, S, k))
    pairs = ksubsets_action(catalog_group("S4").group, 2)
    for S in maximal_block_systems(pairs):
        if 1 < S.num_blocks < pairs.degree:
            cases.append(("S4-pairs", pairs, S, 2))
    for label, A, S, k in cases:
        rec.claim(
            f"block-{label}-{S.num_blocks}blocks-k{k}",
            "a k-closure preserves every invariant block system; its block "
            "action and block restrictions stay inside the k-closures of the "
            "originals, and it is faithful on blocks when some k blocks have "
            "trivial joint stabilizer",
            "holds",
            lambda A=A, S=S, k=k: _block_fact(A, S, k),
        )


def _block_fact(A, S, k):
    record = block_lemma_check(A, S, k)
    if record.holds:
        return "holds"
    return (
        f"preserved={record.preserved} quotient={record.quotient_ok} "
        f"restriction={record.restriction_ok} faithful={record.faithful_ok}"
    )


def _union_examples():
    a5 = catalog_group("A5")
    nat = natural_action(a5.group)
    pairs = ksubsets_action(a5.group, 2)
    sub10 = next(S for S in subgroups_up_to_conjugacy(a5.group) if S.order() == 10)
    six = coset_action(a5.group, sub10)
    return [
        ("two-natural-copies", union([nat, nat])),
        ("natural-plus-pairs", union([nat, pairs])),
        ("natural-plus-six", union([nat, six])),
    ]


def _suite_induced_restriction(rec: _Recorder) -> None:
    examples = _union_examples()
    psl = catalog_group("PSL(2,7)")
    examples.append(("two-projective-lines", union([natural_action(psl.group)] * 2)))
    for label, A in examples:
        for k in (2, 3):
            rec.claim(
                f"restriction-{label}-k{k}",
                "restricting a k-closure to an orbit lands inside the "
                "k-closure of the restriction",
                True,
                lambda A=A, k=k: restriction_lemma_check(A, k).holds,
            )


def _suite_base_reduction(rec: _Recorder) -> None:
    for name in ["A5", "A6", "PSL(2,7)"]:
        G = catalog_group(name).group
        for H in subgroups_up_to_conjugacy(G):
            if G.order() // H.order() > 40:
                continue
            A = coset_action(G, H)
            if not A.faithful:
                continue
            for S in maximal_block_systems(A):
                if not 1 < S.num_blocks < A.degree:
                    continue
                Q = quotient_action(A, S)
                if not Q.faithful:
                    continue
                rec.claim(
                    f"reduction-{name}-deg{A.degree}-to-{S.num_blocks}",
                    "a faithful block quotient never has the smaller base: the "
                    "base size on points is at most the base size on blocks",
                    True,
                    lambda A=A, Q=Q: exact_base_size(A).size <= exact_base_size(Q).size,
                )


def _suite_intransitive_certificates(rec: _Recorder) -> None:
    expectations = {
        "two-natural-copies": ("certified", "closure equals the group"),
        "natural-plus-pairs": ("certified", "closure equals the group"),
        "natural-plus-six": ("hypothesis-fails", "closure equals the group"),
    }
    for label, A in _union_examples():
        rec.claim(
            f"certificate-{label}",
            "the per-orbit certificate never contradicts the direct backtrack: "
            "certified unions are exactly their own 4-closures, and the "
            "inconclusive union is settled directly",
            expectations[label],
            lambda A=A: (
                intransitive_certificate(A, 4).status,
                "closure equals the group"
                if k_closure(A, 4).same_group(A.group)
                else "closure is strictly larger",
            ),
        )


_SUITES = {
    "an-closure": _suite_an_closure,
    "symmetric-collapse": _suite_symmetric_collapse,
    "halasi-bases": _suite_halasi_bases,
    "partition-bases": _suite_partition_bases,
    "psl-bases": _suite_psl_bases,
    "mathieu-complete": _suite_mathieu_complete,
    "m24-base": _suite_m24_base,
    "eq1-monotone": _suite_eq1_monotone,
    "bplus1-collapse": _suite_bplus1_collapse,
    "closure-oracle": _suite_closure_oracle,
    "block-lemma": _suite_block_lemma,
    "induced-restriction": _suite_induced_restriction,
    "base-reduction": _suite_base_reduction,
    "intransitive-certificates": _suite_intransitive_certificates,
}


def suite_names() -> tuple[str, ...]:
    """Registered verification suites, alphabetically."""
    return tuple(sorted(_SUITES))


def run_suite(name: str) -> SuiteResult:
    """Run one named suite and return its report.

    Unknown names raise ValueError. A suite that records no claims is a
    registration error. A claim whose search runs out raises
    BudgetExceededError naming that claim, whose partial is the SuiteResult
    of the claims finished before it.
    """
    try:
        fn = _SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown suite {name!r}; registered: {', '.join(suite_names())}"
        ) from None
    rec = _Recorder()
    try:
        fn(rec)
    except BudgetExceededError as exc:
        raise BudgetExceededError(
            f"claim {rec.running} stopped: {exc}", partial=SuiteResult(name, tuple(rec.claims))
        ) from None
    if not rec.claims:
        raise RuntimeError(f"suite {name!r} registered no claims")
    return SuiteResult(suite=name, claims=tuple(rec.claims))
