"""Deterministic --json payloads pinned byte for byte.

Each file under tests/golden/ holds the stdout of one CLI command run with
--json. The payloads carry no times without --timings, so any difference is
a change in an answer or a counter. To regenerate one file after an
intended change, run for example

    PYTHONPATH=src python -m closurelab.cli spectrum --catalog A5 --json \
        > tests/golden/spectrum_A5.json

and say in the change log which fields moved and why.
"""

from pathlib import Path

import pytest

from closurelab.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "spectrum_A5": ["spectrum", "--catalog", "A5"],
    "spectrum_M11": ["spectrum", "--catalog", "M11"],
    "spectrum_PSL2_8": ["spectrum", "--catalog", "PSL(2,8)"],
    "spectrum_A5_ksubsets2": ["spectrum", "--catalog", "A5", "--action", "ksubsets:2"],
    "closure_M12_k3": ["closure", "--catalog", "M12", "--k", "3"],
    "base_M24": ["base", "--catalog", "M24"],
    "base_S10_partitions_2x5": ["base", "--catalog", "S10", "--action", "partitions:2x5"],
    "ktrans_A5_12": ["ktrans", "--catalog", "A5", "--max-degree", "12"],
    "ktrans_S4_8": ["ktrans", "--catalog", "S4", "--max-degree", "8"],
    "ktrans_PSL2_7_14": ["ktrans", "--catalog", "PSL(2,7)", "--max-degree", "14"],
    "ktrans_S5_10": ["ktrans", "--catalog", "S5", "--max-degree", "10"],
    "ktrans_PSL2_13_14": ["ktrans", "--catalog", "PSL(2,13)", "--max-degree", "14"],
    "verify_psl_bases": ["verify", "--suite", "psl-bases"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_payload_matches_golden_file(name, capsys):
    code = main(CASES[name] + ["--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)
