"""The benchmark's workloads: items, expected answers and seeded inputs.

Every item names the catalog input it starts from, how its seeded input is
built, the call whose time counts, and the answer that call must give, with
the source of that answer. The seed relabels each input group's points by a
random permutation and shuffles its generator order; answers do not depend
on labels, so the expected values hold for every seed while the search
order changes.

This module does not import closurelab at import time: the worker times
that import as part of set-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

MATHIEU_SOURCE = "Mathieu group order (ATLAS); b pinned on commit 23fb33c"
HALASI_SOURCE = "Halasi: S_n on 2-subsets has base size ceil(2(n-1)/3)"
PINNED_SOURCE = "pinned on commit 23fb33c"


@dataclass(frozen=True)
class Item:
    """One timed call of a workload and the answer it must produce.

    build(cl, rng) returns the seeded input; run(cl, input) returns a value
    compared with expected by equality. source says where expected comes
    from.
    """

    name: str
    build: Callable
    run: Callable
    expected: object
    source: str


def relabel(cl, A, rng: random.Random):
    """A copy of action A with points renamed by a random permutation and
    generators in random order. The new group carries no cached chain."""
    G = A.group
    n = G.degree
    sigma = list(range(n))
    rng.shuffle(sigma)
    gens = []
    for g in G.generators:
        img = [0] * n
        for p, q in enumerate(g.images):
            img[sigma[p]] = sigma[q]
        gens.append(cl.Permutation(tuple(img)))
    rng.shuffle(gens)
    labels = [""] * n
    for p, label in enumerate(A.domain.labels):
        labels[sigma[p]] = label
    return cl.ActionInstance(
        cl.PermGroup(n, gens, name=G.name), cl.Domain(tuple(labels)), A.provenance, A.source_order
    )


def natural(name: str) -> Callable:
    return lambda cl, rng: relabel(cl, cl.catalog_group(name), rng)


def ksubsets(name: str, k: int) -> Callable:
    return lambda cl, rng: relabel(cl, cl.ksubsets_action(cl.catalog_group(name).group, k), rng)


def partitions(name: str, a: int, b: int) -> Callable:
    return lambda cl, rng: relabel(
        cl, cl.partitions_action(cl.catalog_group(name).group, a, b), rng
    )


def base_then_closure(cl, A):
    """Exact base size b, then whether the (b+1)-closure is the group itself."""
    base = cl.exact_base_size(A)
    H = cl.k_closure(A, base.size + 1)
    return base.size, base.exhaustive, H.order(), H.same_group(A.group)


def both_routes(cl, A):
    """Closure orders for k = 1..4 from the backtrack and from the brute filtration."""
    ks = [1, 2, 3, 4]
    return cl.filtration_closure_orders(A, ks), [cl.k_closure(A, k).order() for k in ks]


def closure_number(bound: int) -> Callable:
    def run(cl, A):
        k, cert = cl.k_trans(A.group, bound)
        return k, cert.certified

    return run


def base_size(cl, A):
    record = cl.exact_base_size(A)
    return record.size, record.exhaustive


def spectrum(cl, A):
    report = cl.closure_spectrum(A)
    return [entry.order for entry in report.entries], report.minimal_k


def mathieu_item(name: str, b: int, order: int) -> Item:
    return Item(name, natural(name), base_then_closure, (b, True, order, True), MATHIEU_SOURCE)


def oracle_item(name: str, build: Callable, orders: list[int], source: str) -> Item:
    return Item(name, build, both_routes, (orders, orders), source)


WORKLOADS: dict[str, list[Item]] = {
    "closure-mathieu": [
        mathieu_item("M22", 5, 443520),
        mathieu_item("M23", 6, 10200960),
        mathieu_item("M24", 7, 244823040),
    ],
    "oracle-brute": [
        oracle_item("C7", natural("C7"), [5040, 7, 7, 7], PINNED_SOURCE + "; both routes agree"),
        oracle_item("D7", natural("D7"), [5040, 14, 14, 14], PINNED_SOURCE + "; both routes agree"),
        oracle_item("A7", natural("A7"), [5040] * 4, "A7 is 5-transitive, so its k-closure is S7 for k <= 4"),
        oracle_item("S7", natural("S7"), [5040] * 4, "S7 is its own closure"),
        oracle_item("S4-pairs", ksubsets("S4", 2), [720, 48, 24, 24], PINNED_SOURCE + "; both routes agree"),
        oracle_item("A4-pairs", ksubsets("A4", 2), [720, 24, 12, 12], PINNED_SOURCE + "; both routes agree"),
    ],
    "subgroup-ktrans": [
        Item("A5", natural("A5"), closure_number(12), (4, True), "closure number n-1 of A_n"),
        Item("A6", natural("A6"), closure_number(15), (5, True), "closure number n-1 of A_n"),
        Item("PSL(2,7)", natural("PSL(2,7)"), closure_number(24), (3, True), PINNED_SOURCE),
        Item("PSL(2,8)", natural("PSL(2,8)"), closure_number(36), (4, True), PINNED_SOURCE),
    ],
    "base-search": [
        Item("S12-pairs", ksubsets("S12", 2), base_size, (8, True), HALASI_SOURCE),
        Item("S13-pairs", ksubsets("S13", 2), base_size, (8, True), HALASI_SOURCE),
        Item("A13-pairs", ksubsets("A13", 2), base_size, (8, True), PINNED_SOURCE),
        Item("S11-triples", ksubsets("S11", 3), base_size, (5, True), PINNED_SOURCE),
        Item("S10-partitions-2x5", partitions("S10", 2, 5), base_size, (3, True), PINNED_SOURCE),
    ],
}

# A tiny workload for the benchmark's self-tests; not offered on the command line.
TINY: list[Item] = [
    Item("A5-spectrum", natural("A5"), spectrum, ([120, 120, 120, 60], 4), "A5 is 3-transitive with base size 3"),
    Item("A5-pairs", ksubsets("A5", 2), spectrum, ([3628800, 120, 60], 3), "the 2-closure is Aut(Petersen graph) = S5"),
]


def item_rng(workload: str, seed: int, pass_index: int) -> random.Random:
    """The generator that relabels every input of one pass.

    Passes of one run use different labelings, so a run's median spans
    several search orders; the same (seed, pass) always gives the same inputs.
    """
    return random.Random(f"{workload}:{seed}:{pass_index}")


def build_inputs(cl, workload: str, items: list[Item], seed: int, pass_index: int) -> list:
    rng = item_rng(workload, seed, pass_index)
    return [item.build(cl, rng) for item in items]
