"""Permutation group closures, base sizes, and the machinery under them.

The package computes Wielandt-style k-closures of finite permutation
groups, closure spectra across faithful actions, exact and greedy base
sizes, and the block-system bookkeeping these computations lean on. A
small catalog of standard groups (symmetric, alternating, cyclic,
dihedral, projective special linear, Mathieu) doubles as the test bed,
and a verification harness replays the headline computations as named
suites, from the command line or from code.
"""

from .errors import (
    BudgetExceededError,
    ClosureLabError,
    CycleParseError,
    DegreeLimitError,
    DegreeMismatchError,
    IntransitiveActionError,
    InvalidPartitionError,
    NotASubgroupError,
    NotFaithfulError,
    SimplicityError,
    ValidationError,
)
from .budget import Budget, default_budget_nodes
from .perm import Domain, Permutation, compose, parse_cycles, print_cycles
from .stabchain import PermGroup, StabilizerChain, build_chain
from .actions import (
    ActionInstance,
    BlockSystem,
    coset_action,
    is_primitive,
    ksubsets_action,
    maximal_block_systems,
    natural_action,
    partitions_action,
    restriction,
    union,
)
from .basesize import (
    BaseRecord,
    exact_base_size,
    greedy_base,
    halasi_base,
    partition_base_check,
)
from .catalog import (
    alternating,
    catalog_group,
    catalog_names,
    mathieu,
    psl_frame_base,
    psl_projective,
    read_generator_file,
    symmetric,
)
from .closure import (
    block_lemma_check,
    closure_spectrum,
    complete_lemma_check,
    intransitive_certificate,
    k_closure,
    k_trans,
    require_nonabelian_simple,
    restriction_lemma_check,
)
from .harness import (
    Claim,
    SuiteResult,
    filtration_closure_orders,
    run_suite,
    suite_names,
)

__version__ = "0.1.0"

__all__ = [
    "ActionInstance",
    "BaseRecord",
    "BlockSystem",
    "Budget",
    "BudgetExceededError",
    "Claim",
    "ClosureLabError",
    "CycleParseError",
    "DegreeLimitError",
    "DegreeMismatchError",
    "Domain",
    "IntransitiveActionError",
    "InvalidPartitionError",
    "NotASubgroupError",
    "NotFaithfulError",
    "PermGroup",
    "Permutation",
    "SimplicityError",
    "StabilizerChain",
    "SuiteResult",
    "ValidationError",
    "alternating",
    "block_lemma_check",
    "build_chain",
    "catalog_group",
    "catalog_names",
    "closure_spectrum",
    "complete_lemma_check",
    "compose",
    "coset_action",
    "default_budget_nodes",
    "exact_base_size",
    "filtration_closure_orders",
    "greedy_base",
    "halasi_base",
    "intransitive_certificate",
    "is_primitive",
    "k_closure",
    "k_trans",
    "ksubsets_action",
    "mathieu",
    "maximal_block_systems",
    "natural_action",
    "parse_cycles",
    "partition_base_check",
    "partitions_action",
    "print_cycles",
    "psl_frame_base",
    "psl_projective",
    "read_generator_file",
    "require_nonabelian_simple",
    "restriction",
    "restriction_lemma_check",
    "run_suite",
    "suite_names",
    "symmetric",
    "union",
]
