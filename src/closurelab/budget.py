"""Search budgets: node counters and wall-clock limits.

A Budget is the one cap on work. The closure backtrack and the base-size
branch-and-bound charge a node per search node. A table of a group's size
costs a node per element, charged in bulk before it is built: listing the
elements (PermGroup._element_images) charges the order in one call, and
its callers charge the tables they build beside it in one more, so a group
past what is left of the cap is refused with nothing listed. The subgroup
enumeration then charges a node per extension it scans, and a node per
element of each conjugate it stores in one call per conjugate, so what it
keeps grows with the nodes charged.
Exhausting the budget raises BudgetExceededError, and every search lets
it propagate with its finished part as the partial; no function
returns a partial result as its answer, so there is no silent truncation
anywhere in the package. The other limits are about representation, not
work: the degree guard below, and perm.py's bytes line for the subgroup
enumeration, whose elements are bytes.
"""

from __future__ import annotations

import os
import time

from .errors import BudgetExceededError

ENV_BUDGET_NODES = "CLOSURELAB_BUDGET_NODES"
DEFAULT_BUDGET_NODES = 20_000_000
DEFAULT_MAX_DEGREE = 5000


def default_budget_nodes() -> int:
    """Node allowance from the environment, else the built-in default.

    The variable follows the rule of the --budget-nodes flag: an integer at
    least 0 is honoured, and anything else raises ValueError.
    """
    raw = os.environ.get(ENV_BUDGET_NODES)
    if raw is None:
        return DEFAULT_BUDGET_NODES
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError(f"{ENV_BUDGET_NODES} must be an integer at least 0, not {raw!r}")
    return value


class Budget:
    """Mutable node/time meter threaded through searches."""

    __slots__ = ("max_nodes", "max_seconds", "nodes", "_t0", "_late")

    def __init__(self, max_nodes: int | None = None, max_seconds: float | None = None):
        self.max_nodes = default_budget_nodes() if max_nodes is None else max_nodes
        self.max_seconds = max_seconds
        self.nodes = 0
        self._t0 = time.monotonic()
        self._late = False

    def charge(self, n: int = 1, partial=None) -> None:
        """Consume n nodes; raise when either limit is exhausted. A budget
        already past its node cap or its time cap raises without counting,
        so a search that runs after another one spent it uses no node
        beyond the first charge that overran."""
        if self.nodes <= self.max_nodes and not self._late:
            self.nodes += n
        if self.nodes > self.max_nodes:
            raise BudgetExceededError(
                f"node budget exhausted ({self.nodes} > {self.max_nodes})", partial=partial
            )
        # a time cap is checked once per charge, whatever its count
        if not self._late and self.max_seconds is not None:
            self._late = time.monotonic() - self._t0 > self.max_seconds
        if self._late:
            raise BudgetExceededError(
                f"time budget exhausted (> {self.max_seconds:g}s)", partial=partial
            )
