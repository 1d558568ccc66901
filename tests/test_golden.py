"""Byte-stable reports: `verify --suite all` and `construct` output compared
byte for byte with the fixtures under tests/golden/, with the only
run-dependent field, elapsed_ms, stripped from both sides.

The fixtures were generated before the integer core replaced `Fraction`
rows; construct_p2_q2_cm3_4, at a negative fractional c, before the
deformed bracket was read off one certified family per signature.  To
regenerate one after a deliberate report change, run its CASES
command with `liepq` and strip elapsed_ms with ELAPSED.
"""

import re
from pathlib import Path

import pytest

from liepq.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
ELAPSED = re.compile(r'"elapsed_ms":[-+0-9.eE]+,')

CASES = [
    ("verify_all_p2_q0", ["verify", "--suite", "all", "--p", "2", "--q", "0", "--format", "json"]),
    ("verify_all_p2_q1", ["verify", "--suite", "all", "--p", "2", "--q", "1", "--format", "json"]),
    ("verify_all_p3_q1", ["verify", "--suite", "all", "--p", "3", "--q", "1", "--format", "json"]),
    ("verify_all_p3_q3", ["verify", "--suite", "all", "--p", "3", "--q", "3", "--format", "json"]),
    ("verify_all_p4_q4", ["verify", "--suite", "all", "--p", "4", "--q", "4", "--format", "json"]),
    ("construct_p3_q1_c1", ["construct", "--p", "3", "--q", "1", "--c", "1"]),
    ("construct_p2_q2_cm3_4", ["construct", "--p", "2", "--q", "2", "--c=-3/4"]),
    ("construct_p4_q4", ["construct", "--p", "4", "--q", "4"]),
]


@pytest.mark.parametrize("name, argv", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden_fixture(capsys, monkeypatch, name, argv):
    monkeypatch.setenv("LIEPQ_THREADS", "1")
    assert main(argv) == 0
    out = ELAPSED.sub("", capsys.readouterr().out)
    assert out == (GOLDEN / f"{name}.json").read_text()
