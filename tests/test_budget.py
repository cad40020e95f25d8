"""Time caps under a clock that steps a fixed amount per read.

A Budget reads its clock once when it is made and once per charge, so with
a clock that advances one second per read, a cap of c + 0.5 seconds runs
out at charge c + 1, the charge at which a cap of c nodes runs out. Each
search must then stop exactly where the node cap stops it, with the same
answer and the same node count, and without a wall clock in the test.
"""

from itertools import count
from types import SimpleNamespace

import pytest

from closurelab import budget as budget_module
from closurelab.actions import ksubsets_action
from closurelab.basesize import exact_base_size
from closurelab.budget import Budget
from closurelab.catalog import alternating, catalog_group, symmetric
from closurelab.closure import closure_spectrum, k_closure, k_trans
from closurelab.errors import BudgetExceededError


@pytest.fixture
def stepping_clock(monkeypatch):
    ticks = count()
    clock = SimpleNamespace(monotonic=lambda: float(next(ticks)))
    monkeypatch.setattr(budget_module, "time", clock)


def _caps(nodes):
    """Node-capped and time-capped budgets for every cap up to nodes."""
    for cap in range(nodes + 1):
        yield cap, Budget(cap), Budget(max_seconds=cap + 0.5)


def test_the_stepping_clock_stops_a_budget_at_its_charge(stepping_clock):
    budget = Budget(max_seconds=2.5)
    budget.charge()
    budget.charge()
    for _ in range(2):
        with pytest.raises(BudgetExceededError, match="time budget exhausted"):
            budget.charge()
    # a spent budget counts no node past the charge that overran
    assert budget.nodes == 3


def _answer_or_partial(run, budget):
    try:
        return "answer", run(budget)
    except BudgetExceededError as exc:
        return "partial", exc.partial


def test_exact_base_size_stops_under_a_time_cap_as_under_a_node_cap(stepping_clock):
    A = ksubsets_action(symmetric(6), 2)

    def run(budget):
        return exact_base_size(A, budget)

    full_budget = Budget()
    full = run(full_budget)
    assert full.exhaustive and full_budget.nodes > 1
    for cap, by_nodes, by_time in _caps(full_budget.nodes):
        kind, rec = _answer_or_partial(run, by_time)
        assert (kind, rec) == _answer_or_partial(run, by_nodes)
        assert by_time.nodes == by_nodes.nodes <= cap + 1
        assert rec.exhaustive == (kind == "answer")
        if kind == "answer":
            assert rec == full
        else:
            assert A.group.pointwise_stabilizer(rec.witness).order() == 1


def test_k_closure_stops_under_a_time_cap_as_under_a_node_cap(stepping_clock):
    A = ksubsets_action(alternating(5), 2)

    def run(budget):
        return k_closure(A, 2, budget)

    full_budget = Budget()
    full = run(full_budget)
    assert full_budget.nodes == 19
    for cap, by_nodes, by_time in _caps(full_budget.nodes):
        kind, H = _answer_or_partial(run, by_time)
        want_kind, want = _answer_or_partial(run, by_nodes)
        assert (kind, H.generators) == (want_kind, want.generators)
        assert by_time.nodes == by_nodes.nodes <= cap + 1
        assert A.group.is_subgroup_of(H)
        assert H.is_subgroup_of(full)
        assert (kind == "answer") == (cap == full_budget.nodes)


def test_closure_spectrum_stops_under_a_time_cap_as_under_a_node_cap(stepping_clock):
    # the closure steps share the budget; once it is spent, no later step
    # charges past it. Reports compare every field of every step.
    A = ksubsets_action(symmetric(6), 2)

    def run(budget):
        return closure_spectrum(A, budget=budget)

    full_budget = Budget()
    full = run(full_budget)
    assert full_budget.nodes == 16
    for cap, by_nodes, by_time in _caps(full_budget.nodes):
        kind, report = _answer_or_partial(run, by_time)
        assert (kind, report) == _answer_or_partial(run, by_nodes)
        assert by_time.nodes == by_nodes.nodes <= cap + 1
        if kind == "answer":
            assert report == full
        else:
            done = len(report.entries)
            assert done < len(full.entries)
            assert report.entries == full.entries[:done]
            assert report.minimal_k is None


@pytest.mark.parametrize("name,degree_bound", [("A5", 12), ("S4", 8)])
def test_k_trans_stops_under_a_time_cap_as_under_a_node_cap(stepping_clock, name, degree_bound):
    # the walks run from the narrowest class within the bound to the widest;
    # no wider class is walked by need here, so the bounds above it come
    # after them all; entries come in walk order, so a partial holds a
    # prefix of the full run's exact entries, the narrowest, and no bound
    G = catalog_group(name).group

    def run(budget):
        return k_trans(G, degree_bound, budget)

    full_budget = Budget()
    full = run(full_budget)
    exact = [e for e in full[1].entries if e.kind == "exact"]
    assert full_budget.nodes > 1 and len(exact) > 1
    for cap, by_nodes, by_time in _caps(full_budget.nodes):
        kind, out = _answer_or_partial(run, by_time)
        assert (kind, out) == _answer_or_partial(run, by_nodes)
        assert by_time.nodes == by_nodes.nodes <= cap + 1
        if kind == "answer":
            assert out == full
        else:
            assert not out.certified
            assert all(e.kind == "exact" for e in out.entries)
            assert list(out.entries) == exact[: len(out.entries)]
