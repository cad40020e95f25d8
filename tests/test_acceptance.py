"""Acceptance criteria, one test per criterion.

Each test checks its stated result at the stated time limit and prints a
single pass line (visible under pytest -s or in the failure report).
"""

import os
import time
from math import factorial

from closurelab.actions import ksubsets_action, partitions_action
from closurelab.basesize import exact_base_size, halasi_base, partition_base_check
from closurelab.catalog import alternating, catalog_group, symmetric
from closurelab.classical import psl_frame_base, psl_projective
from closurelab.closure import closure_spectrum, complete_lemma_check, k_closure, k_trans
from closurelab.harness import run_suite, suite_names


class _Timed:
    def __init__(self, label: str, limit_s: float):
        self.label = label
        self.limit_s = limit_s

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        if exc_type is None:
            assert elapsed < self.limit_s, (
                f"{self.label}: {elapsed:.1f}s exceeded the {self.limit_s:.0f}s limit"
            )
            print(f"[{self.label}] PASS in {elapsed:.1f}s (limit {self.limit_s:.0f}s)")
        return False


def test_criterion_1_alternating_spectra_and_closure_numbers():
    with _Timed("criterion 1: closure spectra of A5 and A6", 300):
        r5 = closure_spectrum(catalog_group("A5"))
        assert [e.order for e in r5.entries] == [120, 120, 120, 60]
        assert r5.minimal_k == 4
        r6 = closure_spectrum(catalog_group("A6"))
        assert [e.order for e in r6.entries] == [720, 720, 720, 720, 360]
        assert r6.minimal_k == 5
        v5, c5 = k_trans(catalog_group("A5").group, 12)
        assert (v5, c5.certified) == (4, True)
        v6, c6 = k_trans(catalog_group("A6").group, 15)
        assert (v6, c6.certified) == (5, True)


def test_criterion_1_stretch_a7_closure_number():
    with _Timed("criterion 1 stretch: closure number of A7", 60):
        value, cert = k_trans(catalog_group("A7").group, 21)
        assert (value, cert.certified) == (6, True)


def test_criterion_2_collapse_below_the_closure_number():
    with _Timed("criterion 2: A_n at k = n-2 closes to S_n", 120):
        for n in (5, 6, 7):
            H = k_closure(catalog_group(f"A{n}"), n - 2)
            assert H.order() == factorial(n)


def test_criterion_3_subset_bases():
    with _Timed("criterion 3: bases on 2- and 3-subsets", 60):
        for ctor, n, k, expected in [
            (symmetric, 5, 2, 3),
            (alternating, 5, 2, 2),
            (symmetric, 6, 2, 4),
            (alternating, 6, 2, 3),
            (symmetric, 6, 3, 3),
        ]:
            record = exact_base_size(ksubsets_action(ctor(n), k))
            assert (record.size, record.exhaustive) == (expected, True)
        for n in range(5, 10):
            pairs = halasi_base(n)
            m, r = divmod(n, 3)
            assert len(pairs) == 2 * m + (1 if r == 2 else 0)


def test_criterion_4_partition_bases():
    with _Timed("criterion 4: bases on uniform partitions", 120):
        for n, a, b, sym_expected, alt_expected in [
            (6, 2, 3, 4, 3),
            (6, 3, 2, 4, 3),
            (8, 2, 4, 3, None),
        ]:
            record = partition_base_check(n, a, b)
            assert record.consistent
            assert record.sym.size == sym_expected
            if alt_expected is not None:
                assert record.alt.size == alt_expected


def test_criterion_5_projective_frame_bases():
    with _Timed("criterion 5: projective base sizes with frame witnesses", 120):
        for n, q, expected in [(2, 5, 3), (3, 2, 3), (3, 3, 4), (4, 2, 4)]:
            assert expected == n + 1 - (1 if q == 2 else 0)
            record = exact_base_size(psl_projective(n, q))
            assert (record.size, record.exhaustive) == (expected, True)
            A, frame = psl_frame_base(n, q)
            assert len(frame) == expected
            assert A.group.pointwise_stabilizer(frame).order() == 1


def test_criterion_6_m11_total_closure():
    with _Timed("criterion 6: M11 is its own 5-closure", 600):
        report = complete_lemma_check(
            catalog_group("M11"), 4, out_trivial=True, maximal_in_alt=True
        )
        assert report.status == "confirmed"
        assert report.closure_order_at_k == factorial(11)
        assert report.closure_order_at_k_plus_1 == 7920
        witness = report.witness
        assert witness is not None
        assert not catalog_group("M11").group.contains(witness)


def test_criterion_6_long_m23_total_closure():
    with _Timed("criterion 6 long: M23 is its own 5-closure", 60):
        H = k_closure(catalog_group("M23"), 5)
        assert H.order() == 10200960


def test_criterion_7_m24_exact_base():
    with _Timed("criterion 7: exact base size of M24", 60):
        record = exact_base_size(catalog_group("M24"))
        assert (record.size, record.exhaustive) == (7, True)


def test_criterion_8_property_suites():
    with _Timed("criterion 8: every verification suite passes", 120):
        for name in suite_names():
            result = run_suite(name)
            assert result.passed, f"suite {name} failed"
            assert result.claims


def test_criterion_9_scope_note_is_documented():
    with _Timed("criterion 9: desk-scale exclusions documented", 60):
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        with open(readme, "r", encoding="utf-8") as fh:
            text = fh.read()
        assert "desk scale" in text
