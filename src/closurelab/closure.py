"""Orbit-closure computations for permutation actions.

The k-closure of a group G acting on Omega is the largest group with the
same orbits as G on ordered k-tuples: every permutation h such that each
k-tuple of points is carried by some element of G to the same place h
carries it. Closures shrink as k grows, reaching G itself no later than one
past a base size. This module computes closures by constrained backtrack
over images, walks the closure chain to find where it first collapses to G,
bounds the largest closure number over all faithful transitive actions of a
group, and certifies two structural results about intransitive and highly
transitive actions.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial

from .actions import (
    ActionInstance,
    BlockSystem,
    actions_equivalent,
    coset_action,
    is_invariant,
    natural_action,
    quotient_action,
    restriction,
    setwise_block_stabilizer,
    transitivity_degree,
)
from .basesize import greedy_base
from .budget import Budget
from .errors import BudgetExceededError, SimplicityError
from .lattice import subgroup_lattice
from .perm import (
    Images,
    Permutation,
    Record,
    _symmetric_on,
    compose_images,
    identity_images,
    inverse_images,
    pack_images,
    print_cycles,
)
from .stabchain import PermGroup, _orbit, build_chain
from .tupleorbits import _canonical_image, _orbitals


# ---------------------------------------------------------------------------
# the closure backtrack


def _shortcut(G: PermGroup, k: int) -> PermGroup | None:
    """The k-closure of G where no search is needed, else None: k = 1 gives
    the direct product of symmetric groups on the orbits, of order the
    product of the orbit-size factorials; k at least the degree gives G
    back; a k-transitive group has the full symmetric group, of order n!,
    as its k-closure. The symmetric groups carry their order, so order()
    on them builds no chain."""
    if k < 1:
        raise ValueError("k must be at least 1")
    n = G.degree
    if k == 1:
        gens = []
        order = 1
        for orbit in G.orbits():
            gens.extend(_symmetric_on(orbit, n))
            order *= factorial(len(orbit))
        return PermGroup(n, tuple(gens), known_order=order)
    if k >= n:
        return G
    if transitivity_degree(G) >= k:
        return PermGroup(n, tuple(_symmetric_on(range(n), n)), known_order=factorial(n))
    return None


def k_closure(A: ActionInstance, k: int, budget: Budget | None = None) -> PermGroup:
    """The largest group with the same ordered k-tuple orbits as A's group.

    The shortcuts of _shortcut (k = 1, k at least the degree, k at most the
    transitivity degree) are taken first. Otherwise a depth-first search
    assigns images point by point in domain order, and no node runs a
    search: every check is a lookup in stabilizer chains of G.

    Forward checking keeps candidates to a domain per point. The k-closure
    lies in the 2-closure, so each pair (i, j) must go into the orbit of G
    containing (i, j); assigning an image narrows the domain of every later
    point, and a point left with no unused image fails the node. The search
    also carries a witness down the path, an element of G agreeing with the
    partial image so far. It extends to the new point exactly when the
    candidate, pulled back by it, lies in that point's orbit under the
    pointwise stabilizer of the earlier points, read off the chain with base
    0, 1, ..., n-1, and the extension settles every k-subset at once. Past
    the first k points, a prefix that no element of G realises is checked
    per k-subset of assigned points ending at the new one (shorter tuples
    are implied by these): source and target must have the same canonical
    image, their least image under G, memoised per tuple for the one search.

    Found elements immediately enlarge the known subgroup K, and only
    candidates minimal in their K-coset under point-image lexicographic
    order are explored, so each coset of the final closure contributes one
    leaf. Budget exhaustion raises an error carrying the subgroup found so
    far, a valid lower bound.

    The group's first chain is built through A.faithful, so it stops at the
    order of the acting group when the action is faithful.
    """
    A.faithful
    U = _shortcut(A.group, k)
    if U is not None:
        return U
    return _closure_backtrack(A.group, k, budget if budget is not None else Budget())


def _closure_backtrack(G: PermGroup, k: int, budget: Budget, witness: bool = False):
    """The k-closure of G; with witness, the first leaf outside G instead,
    or None when the closure is G, by the same search and charges."""
    n = G.degree
    K = G
    h = [0] * n
    # Level j of the chain with base 0..n-1 holds the orbit of j under the
    # pointwise stabilizer of 0..j-1 in G. It is the chain transitivity_degree
    # read in _shortcut, cached on G.
    natural = G.chain(preferred_base=range(n)).levels
    # wit[j] is the packed images of an element of G agreeing with h on
    # points 0..j-1, or None when G has no such element; it composes with
    # the chain's elements.
    wit: list[Images | None] = [None] * (n + 1)
    wit[0] = identity_images(n)
    # Forward checking on orbitals: the k-closure lies in the 2-closure, so
    # every leaf maps each pair (i, q) into the orbital of (i, q). dom[j][q]
    # is the bitmask of images left to q by the assignments to 0..j-1; it
    # holds none of h[:j], as no off-diagonal orbital meets the diagonal.
    orbital = _orbitals(G)
    dom: list[list[int]] = [[(1 << n) - 1] * n]
    # stab_stack[j] is the pointwise stabilizer in the current K of the
    # image prefix h[:j]; entries are rebuilt lazily after K grows or the
    # path changes, and pruning with a stale (smaller) K stays sound.
    stab_stack: list[PermGroup] = [K]

    def constraints_ok(j: int, beta: int) -> bool:
        # An element of G carrying 0..j to h[:j] + (beta,) carries every
        # k-subset ending at j to its target, so it settles the node; when
        # j + 1 <= k the whole prefix is the one constraint. With wit[j] = w,
        # such an element is u * w for u in level j of the natural chain,
        # which must carry j to w^-1(beta).
        w = wit[j]
        if w is not None:
            x = w.index(beta)
            if x in natural[j].orbit:
                wit[j + 1] = compose_images(natural[j].transversal[x], w)
                return True
            if j + 1 <= k:
                return False
        wit[j + 1] = None
        for sub in combinations(range(j), k - 1):
            target = tuple(h[t] for t in sub) + (beta,)
            if _canonical_image(G, sub + (j,)) != _canonical_image(G, target):
                return False
        return True

    def forward(j: int, beta: int) -> list[int] | None:
        # Narrow the domain of every later point by the orbital it forms with
        # j; None when some point is left no image. allowed[o] has bit g set
        # when (beta, g) lies in orbital o; it is built per call, as a table
        # for every point would take n^3 bits.
        allowed: dict[int, int] = {}
        for g, o in enumerate(orbital[beta]):
            allowed[o] = allowed.get(o, 0) | 1 << g
        here = dom[j]
        row = orbital[j]
        nxt = here[:]
        for q in range(j + 1, n):
            nxt[q] = here[q] & allowed.get(row[q], 0)
            if not nxt[q]:
                return None
        return nxt

    def stab_at(j: int) -> PermGroup:
        while len(stab_stack) <= j:
            parent = stab_stack[-1]
            pt = h[len(stab_stack) - 1]
            stab_stack.append(
                parent if parent.order() == 1 else parent.pointwise_stabilizer([pt])
            )
        return stab_stack[j]

    def candidates(j: int):
        # only images in j's domain that are least in their orbit under the
        # stabilizer are nodes
        ids = stab_at(j).chain().orbit_ids(0)
        here = dom[j][j]
        return (beta for beta in range(n) if here >> beta & 1 and ids[beta] == beta)

    # The depth-first search runs on an explicit stack of frames (j, the
    # candidates for point j not yet tried), one per assigned point, so its
    # depth is not bounded by the interpreter's recursion limit.
    try:
        frames = [(0, candidates(0))]
        while frames:
            j, todo = frames[-1]
            for beta in todo:
                budget.charge()
                if constraints_ok(j, beta):
                    nxt = forward(j, beta)
                    if nxt is not None:
                        break
            else:
                del stab_stack[j + 1 :]
                frames.pop()
                continue
            h[j] = beta
            dom[j + 1 :] = [nxt]
            del stab_stack[j + 1 :]
            if j + 1 < n:
                frames.append((j + 1, candidates(j + 1)))
                continue
            p = Permutation(tuple(h))
            if not K.contains(p):
                if witness:
                    return p
                K = PermGroup(n, tuple(K.generators) + (p,))
                stab_stack[:] = [K]
    except BudgetExceededError as exc:
        raise BudgetExceededError(
            f"closure backtrack stopped after {budget.nodes} nodes: {exc}",
            partial=K,
        ) from None
    return None if witness else K


def _closure_witness(A: ActionInstance, k: int, budget: Budget) -> Permutation | None:
    """A permutation of the k-closure of A's group outside the group, or
    None when the k-closure is the group: the one yes/no closure decision.
    Where _shortcut gives the closure, which contains the group, it is the
    group exactly when each of its generators lies in it, so the first
    generator outside is the witness; otherwise the closure backtrack stops
    at its first leaf outside, and where the closure is the group it charges
    the nodes of the full search."""
    G = A.group
    U = _shortcut(G, k)
    if U is None:
        return _closure_backtrack(G, k, budget, witness=True)
    return next((g for g in U.generators if not G.contains(g)), None)


def _closure_index(A: ActionInstance, size: int, budget: Budget) -> int:
    """The minimal closure index of A, given the size of a base of it.

    An action with a base of size b is (b + 1)-closed, and closures shrink
    as k grows, so the walk runs downward from k = size and the first k
    whose k-closure has a witness outside the group gives k + 1; with none
    down to k = 1 the action is 1-closed. Only the exact value's k = value
    step is a full search, and none is run when value is size + 1."""
    for k in range(size, 0, -1):
        if _closure_witness(A, k, budget) is not None:
            return k + 1
    return 1


# ---------------------------------------------------------------------------
# the closure chain


class ClosureEntry(Record):
    """One step of the closure chain."""

    k: int
    order: int
    generators: tuple[Permutation, ...]
    nodes: int


class ClosureReport(Record):
    """The closure chain of an action, walked from k = 1 upward."""

    action: str
    entries: tuple[ClosureEntry, ...]
    minimal_k: int | None


def closure_spectrum(
    A: ActionInstance, k_max: int | None = None, budget: Budget | None = None
) -> ClosureReport:
    """Orders of the k-closures for k = 1, 2, ... until the chain reaches
    the group itself (recorded as minimal_k) or k_max is hit.

    The chain reaches the group by one past a base size, and at the latest
    at k = degree, where k_closure returns the group; so the default k_max
    is the degree, and the walk runs no base search. Every step charges the
    one budget, and each entry records the nodes its own step used. A step
    that exhausts the budget raises BudgetExceededError whose partial is
    the ClosureReport of the steps finished before it, with minimal_k None.
    As in k_closure, the group's first chain is built through A.faithful.
    """
    A.faithful
    G = A.group
    if budget is None:
        budget = Budget()
    if k_max is None:
        k_max = max(G.degree, 1)
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    target = G.order()
    description = f"{A.provenance}, degree {A.degree}, group order {target}"
    entries: list[ClosureEntry] = []
    minimal_k = None
    for k in range(1, k_max + 1):
        nodes_before = budget.nodes
        try:
            H = k_closure(A, k, budget=budget)
        except BudgetExceededError as exc:
            raise BudgetExceededError(
                f"closure chain stopped at k {k}: {exc}",
                partial=ClosureReport(action=description, entries=tuple(entries), minimal_k=None),
            ) from None
        entries.append(
            ClosureEntry(
                k=k,
                order=H.order(),
                generators=tuple(H.generators),
                nodes=budget.nodes - nodes_before,
            )
        )
        if H.order() == target:
            minimal_k = k
            break
    return ClosureReport(action=description, entries=tuple(entries), minimal_k=minimal_k)


# ---------------------------------------------------------------------------
# the closure number over all faithful transitive actions


class KTransEntry(Record):
    """One faithful transitive action examined by k_trans.

    kind "exact" is the minimal closure index v of the action, settled by
    a witness outside the group in its (v - 1)-closure and either a full
    search showing the v-closure is the group or the base bound v = b + 1;
    "bound" is one past a base size, an upper bound for it. source is
    "own" when the action itself gave the value, else it names the
    overgroup class, as point stabilizer order and degree, whose base
    bounded it.
    """

    degree: int
    point_stabilizer_order: int
    kind: str  # "exact" or "bound"
    value: int
    source: str


class KTransCertificate(Record):
    """Evidence for a closure-number computation.

    Every exact value v rests on a witness at v - 1 and on a full search
    at v or the base bound, and every action not settled exactly has its
    upper bound dominated by some exact value, so k is the true maximum.
    certified is True on every certificate k_trans returns, and False only
    on the partial of a BudgetExceededError, whose k is a lower bound. The
    entries come in the order k_trans met the classes, by ascending degree.
    """

    k: int
    certified: bool
    entries: tuple[KTransEntry, ...]
    note: str


def k_trans(
    G: PermGroup, degree_bound: int, budget: Budget | None = None
) -> tuple[int, KTransCertificate]:
    """Largest minimal closure index over the faithful transitive actions
    of G, one per equivalence class: the actions on the cosets of the
    subgroup classes of subgroup_lattice, faithful exactly when the class
    is core-free.

    The classes are taken once, in descending order of the class list,
    so by ascending degree and each after its overgroup classes. If H lies
    in a core-free K, with base Kg_1, ..., Kg_b of G on the cosets of K,
    the H^{g_i} meet inside the K^{g_i}, trivially; so H is core-free and
    b(G/H) is at most b(G/K). Each class takes the least recorded base of
    its overgroup classes. It builds its own coset action and greedy base
    when its index is at most degree_bound, or when that base plus one
    exceeds the exact maximum, and records the smaller base. Under the same
    two conditions its minimal closure index is settled exactly, charging
    the one budget, by a walk down from the recorded base (_closure_index):
    an exact value v is a witness outside G in the (v - 1)-closure plus
    either a full search at v or the base bound. Otherwise its entry is
    the bound, one past its base. The exact maximum only grows, so no bound
    ever exceeds it and the result is always certified: a wider class is
    walked by need. degree_bound only chooses which narrow classes are
    walked regardless.

    The enumeration and the walks charge the one budget. Exhausting it
    raises BudgetExceededError whose partial is an uncertified certificate
    of the entries finished so far, the narrowest actions: exact walks and,
    before a walk by need, bounds; none if the enumeration stopped.
    """
    if budget is None:
        budget = Budget()
    N = G.order()
    entries: list[KTransEntry] = []
    exact_max = 0

    def stopped(what, exc):
        note = (
            "partial: the budget ran out; k is the largest exact "
            "value among the finished actions, a lower bound"
        )
        partial = KTransCertificate(exact_max, False, tuple(entries), note)
        return BudgetExceededError(f"{what} stopped: {exc}", partial=partial)

    try:
        classes, over = subgroup_lattice(G, budget)
    except BudgetExceededError as exc:
        raise stopped("the subgroup enumeration", exc) from None
    # class index -> (recorded base size, the source naming that class)
    base: dict[int, tuple[int, str]] = {}
    for i in reversed(range(len(classes))):
        H = classes[i]
        degree = N // H.order()
        within = degree <= degree_bound
        # only core-free classes have a recorded base; with none inherited,
        # N exceeds every base size, so the class builds its own action
        size, source = min((base[j] for j in over[i] if j in base), default=(N, ""))
        if within or size + 1 > exact_max:
            A = coset_action(G, H)
            if not A.faithful:
                continue
            own = greedy_base(A).size
            if own < size:
                size, source = own, "own"
        kind, value = "bound", size + 1
        # size only fell since the check above, so A is built whenever this holds
        if within or value > exact_max:
            try:
                value = _closure_index(A, size, budget)
            except BudgetExceededError as exc:
                raise stopped(f"the degree-{degree} action's walk", exc) from None
            exact_max = max(exact_max, value)
            kind, source = "exact", "own"
        entries.append(KTransEntry(degree, H.order(), kind, value, source))
        base[i] = size, f"overgroup of order {H.order()}, degree {degree}"
    note = "exact on all actions within the degree bound; no upper bound exceeds the maximum"
    return exact_max, KTransCertificate(exact_max, True, tuple(entries), note)


# ---------------------------------------------------------------------------
# simplicity


def require_nonabelian_simple(G: PermGroup, budget: Budget | None = None) -> None:
    """Exact simplicity check: raise SimplicityError unless G is nonabelian
    and every nontrivial conjugacy class generates G. Every normal subgroup
    is a union of classes, and the subgroup a class generates is the normal
    closure of each of its members, so this decides simplicity. The classes
    are read off the element set. Budget (a fresh Budget() when None) is
    charged the order of G twice first, in one call each, for the set of
    elements seen and for the listing, so a nonabelian group whose tables
    exceed the cap raises BudgetExceededError with nothing listed. Each
    class gets one chain, which stops once it reaches the order of G."""
    order = G.order()
    if order == 1:
        raise SimplicityError("the trivial group is not nonabelian simple")
    gens = [pack_images(g.images) for g in G.generators if not g.is_identity()]
    if all(compose_images(a, b) == compose_images(b, a) for a in gens for b in gens):
        raise SimplicityError("group is abelian")
    conjugators = [(inverse_images(g), g) for g in gens]

    def conjugate(y, pair):
        inv, g = pair
        return compose_images(compose_images(inv, y), g)

    if budget is None:
        budget = Budget()
    # a node per element for seen, beside the listing's own
    budget.charge(order)
    seen = {identity_images(G.degree)}
    for x in G._element_images(budget):
        if x in seen:
            continue
        # x represents a new class: its orbit under conjugation
        members = _orbit(x, conjugators, conjugate)
        seen.update(members)
        # the chain of the class's span N stops at |G|, reached only if N = G
        closure_order = build_chain(G.degree, members, known_order=order).order()
        if closure_order != order:
            raise SimplicityError(
                f"normal closure of a conjugacy class has order {closure_order}, "
                f"proper in {order}"
            )


# ---------------------------------------------------------------------------
# certificates for intransitive actions


class IntransitiveVerdict(Record):
    """Outcome of the intransitive total-closure certificate.

    status is one of "certified", "hypothesis-fails" (some point stabilizer
    is transitive on another orbit, so the sufficient condition does not
    apply), or "per-orbit-closure-fails" (an orbit restriction is not
    already its own k-closure).
    """

    status: str
    detail: str
    orbit_count: int
    failing_pair: tuple[int, int] | None = None
    failing_orbit: int | None = None


def intransitive_certificate(
    A: ActionInstance, k: int, budget: Budget | None = None
) -> IntransitiveVerdict:
    """Certify that an intransitive action of a nonabelian simple group is
    totally k-closed from per-orbit data.

    Requires: the group is nonabelian simple, which
    require_nonabelian_simple checks exactly, charging the budget two nodes
    per element of the group, and it acts faithfully on every orbit. The
    certificate then needs, for every ordered orbit pair, a point
    stabilizer from the first orbit that is intransitive on the second (one
    point per orbit suffices, stabilizers of orbit-mates being conjugate),
    plus each orbit restriction equal to its own k-closure, decided by the
    witness search (_closure_witness), whose witness the failing verdict
    names; equivalent orbit restrictions share one decision. The
    simplicity check and all the searches charge the one budget.
    """
    G = A.group
    orbs = G.orbits()
    if len(orbs) < 2:
        raise ValueError("the action is transitive; the certificate is about orbit unions")
    if budget is None:
        budget = Budget()
    require_nonabelian_simple(G, budget)
    insts = [restriction(A, orbit) for orbit in orbs]
    for idx, inst in enumerate(insts):
        if not inst.faithful:
            raise SimplicityError(
                f"the group does not act faithfully on orbit {idx}; "
                "a simple group cannot do that unless the orbit action is trivial"
            )
    for i, Di in enumerate(orbs):
        stab = G.pointwise_stabilizer([Di[0]])
        for j, Dj in enumerate(orbs):
            if i == j:
                continue
            if len(stab.orbit_of(Dj[0])) == len(Dj):
                return IntransitiveVerdict(
                    status="hypothesis-fails",
                    detail=(
                        f"the stabilizer of a point in orbit {i} is transitive on orbit {j}"
                    ),
                    orbit_count=len(orbs),
                    failing_pair=(i, j),
                )
    class_reps: list[int] = []
    for idx, inst in enumerate(insts):
        if not any(
            insts[r].degree == inst.degree and actions_equivalent(insts[r], inst)
            for r in class_reps
        ):
            class_reps.append(idx)
    for r in class_reps:
        witness = _closure_witness(insts[r], k, budget)
        if witness is not None:
            return IntransitiveVerdict(
                status="per-orbit-closure-fails",
                detail=(
                    f"orbit {r}: the {k}-closure holds {print_cycles(witness)}, "
                    "which is outside the orbit image"
                ),
                orbit_count=len(orbs),
                failing_orbit=r,
            )
    return IntransitiveVerdict(
        status="certified",
        detail=f"all {len(orbs)} orbit restrictions are {k}-closed and all "
        "cross-orbit stabilizer conditions hold",
        orbit_count=len(orbs),
    )


# ---------------------------------------------------------------------------
# the complete-closure check for sharply structured k-transitive actions


class LemmaCheckReport(Record):
    """Outcome of complete_lemma_check.

    The two attested flags record facts supplied by the caller (trivial
    outer automorphism group; maximality in the alternating group) that are
    not computed here. status is "confirmed" when the computed closures
    match the predicted collapse, "prediction-fails" when they differ,
    "hypotheses-not-applicable" for the full symmetric or alternating
    group, and "hypotheses-fail" when a computable hypothesis or an
    attestation is missing. A closure search that runs out of budget
    raises BudgetExceededError instead of giving a report.
    """

    status: str
    k: int
    transitivity: int
    attested_outer_trivial: bool
    attested_maximal_in_alternating: bool
    closure_order_at_k: int | None
    closure_order_at_k_plus_1: int | None
    witness: Permutation | None
    detail: str


def complete_lemma_check(
    A: ActionInstance,
    k: int,
    out_trivial: bool,
    maximal_in_alt: bool,
    budget: Budget | None = None,
) -> LemmaCheckReport:
    """For a group that is exactly k-transitive, not the full symmetric or
    alternating group, with trivial outer automorphism group and maximal in
    the alternating group (both attested by the caller), the k-closure is
    the full symmetric group while the (k+1)-closure is the group itself.
    This checks the computable hypotheses; the k-closure of an exactly
    k-transitive group is then the full symmetric group by _shortcut, with
    no search, and its witness outside the group comes from
    _closure_witness: for k at least 2 the transposition (1 2), since a
    k-transitive group holding a transposition is the full symmetric group.
    The (k+1)-closure is computed by search, charging the one budget."""
    G = A.group
    n = G.degree
    full = factorial(n)

    def report(status, transitivity, ck=None, ck1=None, witness=None, detail=""):
        return LemmaCheckReport(
            status=status,
            k=k,
            transitivity=transitivity,
            attested_outer_trivial=out_trivial,
            attested_maximal_in_alternating=maximal_in_alt,
            closure_order_at_k=ck,
            closure_order_at_k_plus_1=ck1,
            witness=witness,
            detail=detail,
        )

    if G.order() in (full, full // 2):
        return report(
            "hypotheses-not-applicable",
            transitivity_degree(G),
            detail="the group is the full symmetric or alternating group on its domain",
        )
    m = transitivity_degree(G)
    if m != k:
        return report(
            "hypotheses-fail", m, detail=f"the action is {m}-transitive, the check needs exactly {k}"
        )
    if not out_trivial or not maximal_in_alt:
        return report(
            "hypotheses-fail",
            m,
            detail="outer-automorphism triviality and maximality in the alternating "
            "group must both be attested",
        )
    if budget is None:
        budget = Budget()
    ck = k_closure(A, k, budget=budget).order()
    witness = _closure_witness(A, k, budget)
    ck1 = k_closure(A, k + 1, budget=budget).order()
    if ck == full and ck1 == G.order():
        status, detail = "confirmed", "k-closure is the full symmetric group, (k+1)-closure is the group"
    else:
        status, detail = "prediction-fails", "the computed closures do not match the predicted collapse"
    return report(status, m, ck=ck, ck1=ck1, witness=witness, detail=detail)


# ---------------------------------------------------------------------------
# structural property checks used by the verification suites


class BlockLemmaRecord(Record):
    """How a k-closure interacts with an invariant block system.

    preserved: the closure leaves the block system invariant.
    quotient_ok: the closure's induced block action is contained in the
    k-closure of the original block action.
    restriction_ok: the closure's block stabilizer restricted to the block
    is contained in the k-closure of the original block stabilizer there.
    faithful_ok: when some k blocks have trivial common setwise stabilizer,
    the closure acts faithfully on the blocks (None when no such k blocks
    exist, which makes the clause vacuous).
    """

    preserved: bool
    quotient_ok: bool
    restriction_ok: bool
    faithful_ok: bool | None
    holds: bool


def _closure_action(
    A: ActionInstance, k: int, budget: Budget | None
) -> tuple[Budget, ActionInstance]:
    """The budget to charge (a fresh one if None) and the k-closure of A
    acting on A's domain, computed on it."""
    if budget is None:
        budget = Budget()
    U = k_closure(A, k, budget=budget)
    return budget, ActionInstance(U, A.domain, f"closure({k},{A.provenance})", U.order())


def block_lemma_check(
    A: ActionInstance, S: BlockSystem, k: int, budget: Budget | None = None
) -> BlockLemmaRecord:
    """Check the four block-system closure properties for one action; all
    its closures charge the one budget."""
    if not 2 <= k <= S.num_blocks:
        raise ValueError("k must be between 2 and the number of blocks")
    budget, AU = _closure_action(A, k, budget)
    preserved = is_invariant(AU.group, S)
    quotient_ok = False
    restriction_ok = False
    faithful_ok: bool | None = None
    if preserved:
        QU = quotient_action(AU, S)
        QA = quotient_action(A, S)
        quotient_ok = QU.group.is_subgroup_of(k_closure(QA, k, budget=budget))
        block = list(S.blocks[0])
        stab_U = natural_action(setwise_block_stabilizer(AU, S, [0]))
        stab_G = natural_action(setwise_block_stabilizer(A, S, [0]))
        restriction_ok = restriction(stab_U, block).group.is_subgroup_of(
            k_closure(restriction(stab_G, block), k, budget=budget)
        )
        premise = False
        for combo in combinations(range(S.num_blocks), k):
            if setwise_block_stabilizer(A, S, combo).order() == 1:
                premise = True
                break
        if premise:
            faithful_ok = QU.faithful
    holds = preserved and quotient_ok and restriction_ok and faithful_ok is not False
    return BlockLemmaRecord(
        preserved=preserved,
        quotient_ok=quotient_ok,
        restriction_ok=restriction_ok,
        faithful_ok=faithful_ok,
        holds=holds,
    )


class RestrictionLemmaRecord(Record):
    """Per-orbit containment of a closure's restrictions."""

    orbit_count: int
    contained: tuple[bool, ...]
    holds: bool


def restriction_lemma_check(
    A: ActionInstance, k: int, budget: Budget | None = None
) -> RestrictionLemmaRecord:
    """For an intransitive action, the restriction of the k-closure to each
    orbit is contained in the k-closure of the restriction; all the
    closures charge the one budget."""
    orbs = A.group.orbits()
    if len(orbs) < 2:
        raise ValueError("the action is transitive; restriction containment is about orbits")
    budget, AU = _closure_action(A, k, budget)
    contained = []
    for orbit in orbs:
        inner = restriction(AU, orbit).group
        outer = k_closure(restriction(A, orbit), k, budget=budget)
        contained.append(inner.is_subgroup_of(outer))
    return RestrictionLemmaRecord(
        orbit_count=len(orbs), contained=tuple(contained), holds=all(contained)
    )
