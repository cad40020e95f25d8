"""The immutable result types: construction, equality, hashing and text.

Every result type is an immutable record of named fields. Records of one
type with equal fields are equal and hash alike; a record never equals a
plain tuple or a record of another type. Fields are given by position or by
name, and a missing, unknown or repeated field is a TypeError. Assigning or
deleting an attribute is an AttributeError. repr prints Name(field=value,
...), except that an ActionInstance prints its provenance and degree.
"""

import pytest

from closurelab.actions import ActionInstance, BlockSystem
from closurelab.basesize import BaseRecord, PartitionBaseRecord
from closurelab.catalog import FiniteField, ProjectivePointDomain, symmetric
from closurelab.closure import (
    BlockLemmaRecord,
    ClosureEntry,
    ClosureReport,
    IntransitiveVerdict,
    KTransCertificate,
    KTransEntry,
    LemmaCheckReport,
    RestrictionLemmaRecord,
)
from closurelab.errors import DegreeMismatchError, InvalidPartitionError
from closurelab.harness import Claim, SuiteResult
from closurelab.perm import Domain, Permutation

S3 = symmetric(3)
GF2 = FiniteField(2)
SWAP = Permutation((1, 0, 2))
BASE = BaseRecord(size=2, witness=(0, 1), exhaustive=True)
ENTRY = ClosureEntry(k=2, order=6, generators=(SWAP,), nodes=7)
KT_ENTRY = KTransEntry(degree=5, point_stabilizer_order=12, kind="exact", value=4, source="own")
CLAIM = Claim(
    claim_id="a5-base", citation="A5 is 3-transitive", expected="3", computed="3", passed=True, elapsed_ms=0
)

# class -> (fields in order with a value each, one field changed, repr text)
CASES = {
    Domain: ({"labels": ("1", "2", "3")}, {"labels": ("a", "b", "c")}, "Domain(labels=('1', '2', '3'))"),
    ActionInstance: (
        {"group": S3, "domain": Domain(("1", "2", "3")), "provenance": "natural", "source_order": 6},
        {"provenance": "relabelled"},
        "ActionInstance(natural, degree=3)",
    ),
    BlockSystem: (
        {"blocks": ((0, 1), (2, 3)), "degree": 4},
        {"blocks": ((0, 2), (1, 3))},
        "BlockSystem(blocks=((0, 1), (2, 3)), degree=4)",
    ),
    BaseRecord: (
        {"size": 2, "witness": (0, 1), "exhaustive": True},
        {"exhaustive": False},
        "BaseRecord(size=2, witness=(0, 1), exhaustive=True)",
    ),
    PartitionBaseRecord: (
        {
            "n": 6,
            "a": 2,
            "b": 3,
            "sym": BASE,
            "alt": BASE,
            "bound": 4,
            "sym_equality_expected": True,
            "sym_equality_observed": False,
            "alt_equality_observed": False,
            "consistent": False,
        },
        {"consistent": True},
        "PartitionBaseRecord(n=6, a=2, b=3, "
        "sym=BaseRecord(size=2, witness=(0, 1), exhaustive=True), "
        "alt=BaseRecord(size=2, witness=(0, 1), exhaustive=True), bound=4, "
        "sym_equality_expected=True, sym_equality_observed=False, "
        "alt_equality_observed=False, consistent=False)",
    ),
    ProjectivePointDomain: (
        {"field": GF2, "n": 2, "points": ((1, 0), (0, 1), (1, 1))},
        {"n": 3},
        f"ProjectivePointDomain(field={GF2!r}, n=2, points=((1, 0), (0, 1), (1, 1)))",
    ),
    ClosureEntry: (
        {"k": 2, "order": 6, "generators": (SWAP,), "nodes": 7},
        {"nodes": 8},
        "ClosureEntry(k=2, order=6, generators=(Permutation('(1 2)', degree=3),), nodes=7)",
    ),
    ClosureReport: (
        {"action": "natural", "entries": (ENTRY,), "minimal_k": None},
        {"minimal_k": 2},
        "ClosureReport(action='natural', entries=(ClosureEntry(k=2, order=6, "
        "generators=(Permutation('(1 2)', degree=3),), nodes=7),), minimal_k=None)",
    ),
    KTransEntry: (
        {"degree": 5, "point_stabilizer_order": 12, "kind": "exact", "value": 4, "source": "own"},
        {"kind": "bound"},
        "KTransEntry(degree=5, point_stabilizer_order=12, kind='exact', value=4, source='own')",
    ),
    KTransCertificate: (
        {"k": 4, "certified": True, "entries": (KT_ENTRY,), "note": "every action"},
        {"certified": False},
        "KTransCertificate(k=4, certified=True, entries=(KTransEntry(degree=5, "
        "point_stabilizer_order=12, kind='exact', value=4, source='own'),), note='every action')",
    ),
    IntransitiveVerdict: (
        {"status": "hypothesis-fails", "detail": "d", "orbit_count": 2, "failing_pair": (0, 1), "failing_orbit": 1},
        {"failing_orbit": None},
        "IntransitiveVerdict(status='hypothesis-fails', detail='d', orbit_count=2, "
        "failing_pair=(0, 1), failing_orbit=1)",
    ),
    LemmaCheckReport: (
        {
            "status": "confirmed",
            "k": 3,
            "transitivity": 3,
            "attested_outer_trivial": True,
            "attested_maximal_in_alternating": True,
            "closure_order_at_k": 720,
            "closure_order_at_k_plus_1": 360,
            "witness": SWAP,
            "detail": "ok",
        },
        {"witness": None},
        "LemmaCheckReport(status='confirmed', k=3, transitivity=3, attested_outer_trivial=True, "
        "attested_maximal_in_alternating=True, closure_order_at_k=720, closure_order_at_k_plus_1=360, "
        "witness=Permutation('(1 2)', degree=3), detail='ok')",
    ),
    BlockLemmaRecord: (
        {"preserved": True, "quotient_ok": True, "restriction_ok": False, "faithful_ok": None, "holds": False},
        {"faithful_ok": False},
        "BlockLemmaRecord(preserved=True, quotient_ok=True, restriction_ok=False, faithful_ok=None, holds=False)",
    ),
    RestrictionLemmaRecord: (
        {"orbit_count": 2, "contained": (True, False), "holds": False},
        {"contained": (False, True)},
        "RestrictionLemmaRecord(orbit_count=2, contained=(True, False), holds=False)",
    ),
    Claim: (
        {
            "claim_id": "a5-base",
            "citation": "A5 is 3-transitive",
            "expected": "3",
            "computed": "3",
            "passed": True,
            "elapsed_ms": 0,
        },
        {"elapsed_ms": 5},
        "Claim(claim_id='a5-base', citation='A5 is 3-transitive', expected='3', computed='3', "
        "passed=True, elapsed_ms=0)",
    ),
    SuiteResult: (
        {"suite": "s", "claims": (CLAIM,)},
        {"claims": ()},
        "SuiteResult(suite='s', claims=(Claim(claim_id='a5-base', citation='A5 is 3-transitive', "
        "expected='3', computed='3', passed=True, elapsed_ms=0),))",
    ),
}

RECORDS = pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)


def test_every_result_type_is_pinned():
    assert len(CASES) == 16


@RECORDS
def test_positional_and_keyword_construction_agree(cls):
    fields = CASES[cls][0]
    by_position = cls(*fields.values())
    assert by_position == cls(**fields)
    for name, value in fields.items():
        assert getattr(by_position, name) is value


@RECORDS
def test_equality_and_hash_follow_the_fields(cls):
    fields, changed, _ = CASES[cls]
    record, twin = cls(**fields), cls(**fields)
    other = cls(**{**fields, **changed})
    assert record == twin and not record != twin
    assert hash(record) == hash(twin)
    assert record != other
    assert len({record, twin, other}) == 2


@RECORDS
def test_a_record_never_equals_a_tuple_or_another_type(cls):
    fields = CASES[cls][0]
    record = cls(**fields)
    values = tuple(fields.values())
    assert record != values and values != record
    assert record.__eq__(values) is NotImplemented
    stranger = CLAIM if cls is not Claim else BASE
    assert record != stranger and record.__eq__(stranger) is NotImplemented


@RECORDS
def test_repr_text(cls):
    fields, _, text = CASES[cls]
    assert repr(cls(**fields)) == text


@RECORDS
def test_fields_cannot_be_assigned_or_deleted(cls):
    fields = CASES[cls][0]
    record = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is fields[name]
    with pytest.raises(AttributeError):
        record.extra = 1


@RECORDS
def test_missing_unknown_or_repeated_fields_raise_type_error(cls):
    fields = CASES[cls][0]
    values = list(fields.values())
    first = next(iter(fields))
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(**{name: value for name, value in fields.items() if name != first})
    with pytest.raises(TypeError):
        cls(*values, colour="red")
    with pytest.raises(TypeError):
        cls(*values, **{first: values[0]})
    with pytest.raises(TypeError):
        cls(*values, None)


def test_intransitive_verdict_defaults():
    verdict = IntransitiveVerdict("certified", "every orbit closed", 3)
    assert verdict.failing_pair is None and verdict.failing_orbit is None
    assert verdict == IntransitiveVerdict("certified", "every orbit closed", 3, None, None)
    assert repr(verdict) == (
        "IntransitiveVerdict(status='certified', detail='every orbit closed', orbit_count=3, "
        "failing_pair=None, failing_orbit=None)"
    )
    assert IntransitiveVerdict("certified", "d", 3, failing_orbit=2).failing_orbit == 2


def test_domain_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        Domain(("1", "2", "1"))


def test_action_instance_rejects_a_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        ActionInstance(S3, Domain.natural(4), "natural", 6)


@pytest.mark.parametrize(
    "blocks, degree",
    [
        (((1, 0), (2, 3)), 4),  # unsorted block
        (((0, 1), ()), 2),  # empty block
        (((0, 1), (1, 2)), 3),  # a point in two blocks
        (((0, 1),), 3),  # a point in no block
        (((1, 2), (0, 3)), 4),  # not ordered by least point
    ],
)
def test_block_system_rejects_bad_blocks(blocks, degree):
    with pytest.raises(InvalidPartitionError):
        BlockSystem(blocks, degree)


def test_block_system_looks_up_its_blocks():
    system = BlockSystem(((0, 2), (1, 3)), 4)
    assert [system.block_of(p) for p in range(4)] == [0, 1, 0, 1]
