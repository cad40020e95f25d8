"""Base sizes: exact search, the greedy heuristic, and special bases.

A base is a point tuple whose pointwise stabilizer is trivial, so the whole
group is pinned down by where it sends those points. Everything here
requires a faithful action (otherwise no base exists). The exact search
descends through orbit representatives of the shrinking stabilizer, which
is enough because replacing a base point by a conjugate point conjugates
the rest of the base.
"""

from __future__ import annotations

from itertools import combinations

from .actions import ActionInstance, ksubsets_action, partitions_action
from .budget import Budget
from .catalog import alternating, symmetric
from .errors import BudgetExceededError, NotFaithfulError, ValidationError
from .perm import Record


class BaseRecord(Record):
    """Result of a base computation.

    exhaustive means the size is provably minimal: the exact search ran to
    completion, or the greedy size already meets the information-theoretic
    lower bound. exact_base_size returns only exhaustive records; a search
    that runs out of budget raises, and its partial is a non-exhaustive
    record whose witness is still a base, so its size is an upper bound.
    """

    size: int
    witness: tuple[int, ...]
    exhaustive: bool


def _require_faithful(A: ActionInstance) -> None:
    if not A.faithful:
        raise NotFaithfulError(
            f"action {A.provenance} has a kernel of order {A.kernel_order}; no base exists"
        )


def _info_lower_bound(order: int, degree: int) -> int:
    """Least t with degree**t >= order; every base has at least t points."""
    t = 0
    cap = 1
    while cap < order:
        cap *= degree
        t += 1
    return t


def greedy_base(A: ActionInstance) -> BaseRecord:
    """Base built by repeatedly fixing a point from the longest orbit of the
    current stabilizer (least point on ties). Flagged exhaustive when its
    size meets the information-theoretic lower bound, which proves
    minimality without any search."""
    _require_faithful(A)
    G = A.group
    witness: list[int] = []
    H = G
    while H.order() > 1:
        longest = max(H.orbits(), key=len)
        witness.append(longest[0])
        H = H.pointwise_stabilizer(witness[-1:])
    size = len(witness)
    return BaseRecord(
        size=size,
        witness=tuple(witness),
        exhaustive=size == _info_lower_bound(G.order(), G.degree),
    )


def exact_base_size(A: ActionInstance, budget: Budget | None = None) -> BaseRecord:
    """Minimal base size by depth-first search over stabilizer orbit
    representatives, seeded with the greedy base.

    Branches that cannot beat the best known size are cut using the
    information bound on the current stabilizer (its order can shrink by at
    most a largest-orbit factor per point). The record returned is always
    exhaustive. If the budget runs out, BudgetExceededError is raised with
    the best record found so far as its partial, flagged non-exhaustive; it
    is still a valid base, just not a proven minimum.

    A point set already searched is skipped before its stabilizer is built.
    The subtree below a set depends only on the set (its stabilizer, and
    the depth, which is its size), and the earlier visit searched it with
    pruning no stronger than now, since the best size only falls. A leaf
    is recorded only when it strictly beats the best size its parent read
    (a sibling leaf of the same size then replaces it), and a repeat visit
    reads a best size no larger than every leaf the earlier visit recorded,
    so it would record nothing. A search that runs to completion therefore
    returns the size and witness of the search without the skip, and
    charges fewer nodes for them.

    A child that its parent can see will be cut costs a node but no chain.
    By the orbit-stabilizer theorem the child's order is the parent's order
    over the orbit length, and every orbit of the child lies in an orbit of
    the parent, so the parent's widest orbit bounds the child's. The bound
    the parent reads from these is never stronger than the one the child
    reads from its own chain, against the same best size. A child of order
    1 is a leaf, which the child itself records, so the parent never cuts
    it. Every child the parent cuts would have charged its node and returned
    at its own check, so nodes are charged in the same sequence, and the
    size, witness and node count are those of the search that builds every
    child's chain.
    """
    _require_faithful(A)
    G = A.group
    budget = budget if budget is not None else Budget()
    seed = greedy_base(A)
    if seed.exhaustive:
        return seed
    best_size = seed.size
    best_witness = seed.witness
    path: list[int] = []
    searched: set[frozenset[int]] = set()

    def dfs(H) -> None:
        nonlocal best_size, best_witness
        budget.charge()
        order = H.order()
        if order == 1:
            best_size = len(path)
            best_witness = tuple(path)
            return
        orbs = [o for o in H.orbits() if len(o) > 1]
        widest = max(len(o) for o in orbs)
        if len(path) + _info_lower_bound(order, widest) >= best_size:
            return
        for orbit in orbs:
            path.append(orbit[0])
            key = frozenset(path)
            if key not in searched:
                searched.add(key)
                sub = order // len(orbit)
                if sub > 1 and len(path) + _info_lower_bound(sub, widest) >= best_size:
                    budget.charge()
                else:
                    dfs(H.pointwise_stabilizer([orbit[0]]))
            path.pop()

    try:
        dfs(G)
    except BudgetExceededError as exc:
        raise BudgetExceededError(
            f"base search stopped after {budget.nodes} nodes: {exc}",
            partial=BaseRecord(size=best_size, witness=best_witness, exhaustive=False),
        ) from None
    return BaseRecord(size=best_size, witness=best_witness, exhaustive=True)


def halasi_base(n: int) -> tuple[tuple[int, int], ...]:
    """The explicit small base of 2-subsets for the symmetric group acting
    on 2-subsets of n >= 5 points.

    Writing n = 3m + r, the base consists of the pairs {3j+1, 3j+2} and
    {3j+2, 3j+3} for j < m, plus {1, n} when r = 2 (points 1-based). Its
    size is 2m, or 2m + 1 when r = 2. The construction is verified by
    computing the pointwise stabilizer before returning.
    """
    if n < 5:
        raise ValueError("need n >= 5")
    m, r = divmod(n, 3)
    pairs: list[tuple[int, int]] = []
    for j in range(m):
        pairs.append((3 * j + 1, 3 * j + 2))
        pairs.append((3 * j + 2, 3 * j + 3))
    if r == 2:
        pairs.append((1, n))
    A = ksubsets_action(symmetric(n), 2)
    combos = list(combinations(range(n), 2))
    idx = [combos.index((p - 1, q - 1)) for p, q in pairs]
    if A.group.pointwise_stabilizer(idx).order() != 1:
        raise ValidationError(f"pair set failed the base check for n={n}")
    return tuple(pairs)


class PartitionBaseRecord(Record):
    """Exact base sizes for the symmetric and alternating groups acting on
    partitions into b blocks of size a, compared against the bound n-2 and
    the known characterization of when it is attained (only the symmetric
    group on 6 points, block shapes 2x3 and 3x2)."""

    n: int
    a: int
    b: int
    sym: BaseRecord
    alt: BaseRecord
    bound: int
    sym_equality_expected: bool
    sym_equality_observed: bool
    alt_equality_observed: bool
    consistent: bool


def partition_base_check(n: int, a: int, b: int, budget: Budget | None = None) -> PartitionBaseRecord:
    """Compare exact partition-action base sizes against the n-2 bound."""
    if a * b != n:
        raise ValueError(f"{a} blocks size times {b} blocks must equal n={n}")
    sym = exact_base_size(partitions_action(symmetric(n), a, b), budget)
    alt = exact_base_size(partitions_action(alternating(n), a, b), budget)
    bound = n - 2
    sym_expected = (n, a, b) in {(6, 2, 3), (6, 3, 2)}
    sym_observed = sym.size == bound
    alt_observed = alt.size == bound
    consistent = (
        sym.size <= bound
        and alt.size <= bound
        and sym_observed == sym_expected
        and not alt_observed
    )
    return PartitionBaseRecord(
        n=n,
        a=a,
        b=b,
        sym=sym,
        alt=alt,
        bound=bound,
        sym_equality_expected=sym_expected,
        sym_equality_observed=sym_observed,
        alt_equality_observed=alt_observed,
        consistent=consistent,
    )
