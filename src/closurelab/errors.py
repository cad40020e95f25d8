"""Structured errors shared across the package."""

from __future__ import annotations


class ClosureLabError(Exception):
    """Base class for all errors raised by this package."""


class DegreeMismatchError(ClosureLabError):
    """Two permutations (or a permutation and a group) disagree on degree."""


class CycleParseError(ClosureLabError):
    """Cycle-notation text is malformed; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DegreeLimitError(ClosureLabError):
    """Domain size exceeds the configured maximum degree guard."""


class IntransitiveActionError(ClosureLabError):
    """A block-system operation was asked of an intransitive action."""


class NotFaithfulError(ClosureLabError):
    """A base-size operation was asked of a non-faithful action."""


class NotASubgroupError(ClosureLabError):
    """Claimed subgroup has a generator outside the ambient group."""


class InvalidPartitionError(ClosureLabError):
    """A quotient was requested along a partition the group does not preserve."""


class ValidationError(ClosureLabError):
    """A catalog construction failed its self-check; names the failed check."""


class SimplicityError(ClosureLabError):
    """A certificate requiring a nonabelian simple group was asked of a
    group that is not one: it is trivial or abelian, or the normal closure
    of some conjugacy class is a proper subgroup."""


class BudgetExceededError(ClosureLabError):
    """A search ran out of nodes or time.

    partial carries the finished part of the search. For a closure it is
    the subgroup found so far, a lower bound; for a closure chain, the
    ClosureReport of the steps finished before the one that ran out; for a
    base search, the best base so far, a BaseRecord flagged non-exhaustive
    whose size is an upper bound; for k_trans, an uncertified certificate
    of the entries finished so far, the exact walks and, when a walk by
    need stopped, the bounds before it; for a suite, the SuiteResult of the
    claims finished before the one that ran out. It is never the final
    answer and callers must not present it as one.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial
