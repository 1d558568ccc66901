"""Byte-stable reports: `verify`, `construct`, `irreps` and `bound` output
compared byte for byte with the fixtures under tests/golden/ (`.json` for
JSON output, `.txt` for tsv and human), with the only run-dependent field,
elapsed_ms, stripped from both sides.

The fixtures were generated before the integer core replaced `Fraction`
rows; construct_p2_q2_cm3_4, at a negative fractional c, before the
deformed bracket was read off one certified family per signature;
verify_all_p3_q2 (the sp(4,R) isomorphism) and verify_all_p0_q5 (theta on
a compact form) before theta and the isomorphisms were checked by the
bracket pass of `Representation.validate`; verify_all_p2_q2,
verify_all_p8_q8 and verify_all_p5_q0 before the family certificates were
read at the representatives c = 0, 1 and -1 of the grading; the tsv and human reports of
`verify`, and the `irreps` and `bound` fixtures, before the checks moved out
of `liepq.cli`; irreps_b8_max1000, irreps_d3_max300 and irreps_d2_max60
before the Weyl dimension became the closed-form product on doubled integer
coordinates.  To regenerate one after a deliberate report change, run
its CASES command with `liepq` and strip elapsed_ms with ELAPSED.
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
    ("verify_all_p3_q2", ["verify", "--suite", "all", "--p", "3", "--q", "2", "--format", "json"]),
    ("verify_all_p3_q3", ["verify", "--suite", "all", "--p", "3", "--q", "3", "--format", "json"]),
    ("verify_all_p4_q4", ["verify", "--suite", "all", "--p", "4", "--q", "4", "--format", "json"]),
    ("verify_all_p0_q5", ["verify", "--suite", "all", "--p", "0", "--q", "5", "--format", "json"]),
    ("verify_all_p2_q2", ["verify", "--suite", "all", "--p", "2", "--q", "2", "--format", "json"]),
    ("verify_all_p8_q8", ["verify", "--suite", "all", "--p", "8", "--q", "8", "--format", "json"]),
    ("verify_all_p5_q0", ["verify", "--suite", "all", "--p", "5", "--q", "0", "--format", "json"]),
    ("construct_p3_q1_c1", ["construct", "--p", "3", "--q", "1", "--c", "1"]),
    ("construct_p2_q2_cm3_4", ["construct", "--p", "2", "--q", "2", "--c=-3/4"]),
    ("construct_p4_q4", ["construct", "--p", "4", "--q", "4"]),
    ("verify_all_p3_q1_tsv", ["verify", "--suite", "all", "--p", "3", "--q", "1", "--format", "tsv"]),
    ("verify_all_p3_q1_human", ["verify", "--suite", "all", "--p", "3", "--q", "1", "--format", "human"]),
    ("irreps_d4_max8", ["irreps", "--type", "D", "--rank", "4", "--max-dim", "8", "--format", "json"]),
    ("bound_p2_q2_human", ["bound", "--p", "2", "--q", "2", "--format", "human"]),
    ("irreps_b8_max1000", ["irreps", "--type", "B", "--rank", "8", "--max-dim", "1000", "--format", "tsv"]),
    ("irreps_d3_max300", ["irreps", "--type", "D", "--rank", "3", "--max-dim", "300", "--format", "json"]),
    ("irreps_d2_max60", ["irreps", "--type", "D", "--rank", "2", "--max-dim", "60", "--format", "human"]),
]


def fixture(name, argv):
    """The fixture of a case: `.json` unless the case asks for another format."""
    text = "--format" in argv and argv[argv.index("--format") + 1] != "json"
    return GOLDEN / f"{name}.{'txt' if text else 'json'}"


@pytest.mark.parametrize("name, argv", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden_fixture(capsys, name, argv):
    assert main(argv) == 0
    out = ELAPSED.sub("", capsys.readouterr().out)
    assert out == fixture(name, argv).read_text()


def test_negative_c_as_a_separate_argument_matches_the_equals_form(capsys):
    """'--c -3/4' is joined to '--c=-3/4' before argparse reads it."""
    assert main(["construct", "--p", "2", "--q", "2", "--c", "-3/4"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "construct_p2_q2_cm3_4.json").read_text()
