"""The result records are NamedTuples, so importing liepq loads neither
`dataclasses` nor what it pulls in; the two validated value types still
check their fields, compare by value and refuse assignment."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from liepq import IrreducibilityVerdict, RootSystem, Signature, WeightVector
from liepq.errors import ContractError

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_leaves_dataclasses_and_inspect_unloaded():
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = (
        "import sys, liepq, liepq.cli\n"
        f"print(','.join(m for m in {heavy!r} if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == ""


def test_signature_validates_and_compares_by_value():
    for p, q in ((3, False), (3.0, 1), (-1, 2), (0, 0)):
        with pytest.raises(ContractError):
            Signature(p, q)
    sig = Signature(2, 1)
    assert sig == Signature(2, 1) and hash(sig) == hash(Signature(2, 1))
    assert sig != Signature(1, 2)
    assert (sig.p, sig.q, sig.n) == (2, 1, 3)
    with pytest.raises(AttributeError):
        sig.p = 3
    with pytest.raises(ContractError):
        sig._replace(q=-1)


def test_weight_vector_coerces_and_compares_by_coords():
    w = WeightVector([1, "1/2"])
    assert w == WeightVector([Fraction(1), Fraction(1, 2)])
    assert hash(w) == hash(WeightVector([Fraction(1), Fraction(1, 2)]))
    assert w.coords == (Fraction(1), Fraction(1, 2)) and repr(w) == "(1, 1/2)"
    with pytest.raises(AttributeError):
        w.coords = (1, 1)
    assert w._replace(coords=["3/6"]).coords == (Fraction(1, 2),)


def test_root_system_is_immutable():
    rs = RootSystem.create("B", 3)
    assert rs == RootSystem.create("B", 3) and hash(rs) == hash(RootSystem.create("B", 3))
    with pytest.raises(AttributeError):
        rs.rank = 4


def test_irreducibility_verdict_defaults():
    verdict = IrreducibilityVerdict("REDUCIBLE")
    assert not verdict
    assert verdict.endo_dim == 0 and verdict.witness is None
    assert IrreducibilityVerdict("IRREDUCIBLE", endo_dim=1)
