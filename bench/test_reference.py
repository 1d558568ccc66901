"""Tests of the benchmark's reference checks: they accept liepq's verdicts
and catch corrupted ones.

    python3 -m pytest -q bench/test_reference.py
"""

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import liepq  # noqa: E402
import liepq.cli  # noqa: E402

import reference as ref  # noqa: E402
import workloads  # noqa: E402


def deform_result(p, q, c):
    out = workloads._deform(liepq, p, q, c)
    dalg = out["dalg"]
    return {
        "dim": dalg.dim,
        "semisimple": out["semisimple"],
        "structure": {
            key: {k: ref.frac(v) for k, v in entry.items()}
            for key, entry in dalg.algebra.structure.items()
        },
        "images": [ref.rows_of(im) for im in out["emb"].images],
        "certified": out["certified"],
        "injective": out["injective"],
        "inertia": out["inertia"],
        "killing": ref.rows_of(out["killing"]),
    }


def all_pairs(d):
    return [(i, j) for i in range(d) for j in range(i + 1, d)]


@pytest.mark.parametrize("p,q,c", [(2, 1, Fraction(3, 2)), (2, 2, Fraction(-1)), (1, 3, Fraction(4))])
def test_deform_reference_accepts_liepq(p, q, c):
    result = deform_result(p, q, c)
    assert ref.check_deform(p, q, c, result, all_pairs(result["dim"])) == []


def test_deform_reference_accepts_c_zero():
    rnd = workloads.Round(1)
    out = workloads._deform(liepq, 2, 1, Fraction(0))
    assert workloads._check_deform(rnd, 2, 1, Fraction(0), out) == []


def test_deform_catches_perturbed_structure_constant():
    p, q, c = 2, 2, Fraction(2, 3)
    result = deform_result(p, q, c)
    key = next(iter(result["structure"]))
    k = next(iter(result["structure"][key]))
    result["structure"][key][k] += 1
    assert ref.check_deform(p, q, c, result, [key])


@pytest.mark.parametrize("field,value", [
    ("semisimple", False),
    ("inertia", (3, 1, 0)),
    ("certified", False),
    ("dim", 9),
])
def test_deform_catches_wrong_verdicts(field, value):
    p, q, c = 2, 1, Fraction(-1)
    result = deform_result(p, q, c)
    result[field] = value
    assert ref.check_deform(p, q, c, result, [])


def test_deform_catches_wrong_killing_constant():
    p, q, c = 2, 1, Fraction(2)
    result = deform_result(p, q, c)
    m = 3
    result["killing"][m][m] *= 2
    assert ref.check_deform(p, q, c, result, [])


def test_deformed_killing_closed_form_matches_liepq_at_c():
    # the closed form is checked independently of the workload code path
    dalg = liepq.deformed_algebra(3, 1, Fraction(-1, 2))
    assert ref.rows_of(dalg.algebra.killing_form().gram) == ref.deformed_killing(3, 1, Fraction(-1, 2))


@pytest.mark.parametrize("p,q", [(2, 1), (3, 1), (2, 2)])
def test_hom_reference_accepts_liepq(p, q):
    maps = [ref.rows_of(h) for h in workloads._hom(liepq, p, q)]
    m = (p + q) * (p + q - 1) // 2
    assert ref.check_hom(p, q, maps, range(m)) == []


def test_hom_catches_wrong_dimension_and_non_intertwiner():
    maps = [ref.rows_of(h) for h in workloads._hom(liepq, 3, 1)]
    assert ref.check_hom(3, 1, maps[:1], [0])
    bad = [row[:] for row in maps[0]]
    bad[0][0] += 1
    assert ref.check_hom(3, 1, [bad, maps[1]], range(6))


def test_standard_forms():
    forms = liepq.invariant_symmetric_forms(liepq.standard_rep(2, 2))
    rows = [ref.rows_of(f) for f in forms]
    assert ref.check_standard_forms(2, 2, rows) == []
    rows[0][0][0] = -rows[0][0][0]
    assert ref.check_standard_forms(2, 2, rows)
    assert ref.check_standard_forms(2, 2, rows + rows)


def test_half_spin_form_check():
    # the same check on a module where the answer is known: R^{2,1}
    gens = ref.so_generators(2, 1)
    form = [[Fraction(x) for x in row] for row in ((1, 0, 0), (0, 1, 0), (0, 0, -1))]
    half = {"status": "IRREDUCIBLE", "sym": [form], "skew": 0, "actions": gens}
    assert ref.check_half_spin([half]) == []
    tilted = [row[:] for row in form]
    tilted[0][0] = Fraction(2)
    assert ref.check_half_spin([dict(half, sym=[tilted])])
    assert ref.check_half_spin([dict(half, skew=1)])
    assert ref.check_half_spin([dict(half, status="INCONCLUSIVE")])


def test_complement_check():
    assert ref.check_complement(4, *workloads._complement(liepq, 3, 1, Fraction(1, 2))) == []
    assert ref.check_complement(4, 5, "IRREDUCIBLE")
    assert ref.check_complement(4, 4, "REDUCIBLE")


def verify_report(p, q, c_list, mu_list):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = liepq.cli.main(["verify", "--suite", "all", "--p", str(p), "--q", str(q),
                               "--c-list", ",".join(c_list), "--mu-list", ",".join(mu_list)])
    return code, json.loads(out.getvalue())


def test_verify_expectations_match_report():
    c_list, mu_list = ["-4", "0", "2/3", "1"], ["3/2"]
    for p, q in ((2, 1), (3, 1)):
        code, report = verify_report(p, q, c_list, mu_list)
        assert code == 0
        expected = ref.expected_verify(p, q, c_list, mu_list)
        entries = {ref.params_key(e["name"], e["params"]): e for e in report["checks"]}
        assert set(entries) == set(expected)
        for key, want in expected.items():
            assert ref.check_verify_entry(want, entries[key]) == [], key


def test_verify_catches_wrong_fields_and_status():
    c_list, mu_list = ["-1", "3"], ["2"]
    _, report = verify_report(2, 1, c_list, mu_list)
    expected = ref.expected_verify(2, 1, c_list, mu_list)
    by_name = {e["name"]: e for e in report["checks"] if e["params"].get("c") == "3"}
    for name, field, value in [("killing_blocks", "a1", "3"), ("killing_blocks", "a2", "12"),
                               ("target_inertia", "inertia", [2, 2, 0]),
                               ("tc_iso_rank", "rank", 0), ("deformed_jacobi", "dim", 5),
                               ("sqrt_conjugation", "status", "pass")]:
        entry = dict(by_name[name], **{field: value})
        key = ref.params_key(name, entry["params"])
        assert ref.check_verify_entry(expected[key], entry), (name, field)


def test_is_square():
    assert ref.is_square(Fraction(4)) and ref.is_square(Fraction(1, 4))
    assert not ref.is_square(Fraction(2)) and not ref.is_square(Fraction(2, 3))
    assert not ref.is_square(Fraction(-4))


def test_seeded_inputs_are_reproducible_and_balanced():
    for seed in (1, 2, 2026):
        a = workloads.make_inputs("verify-cli", seed)
        assert a == workloads.make_inputs("verify-cli", seed)
        cs = [Fraction(c) for c in a["c_list"]]
        assert len(cs) == 7 and cs.count(0) == 1
        assert sum(c > 0 for c in cs) == 3 and sum(c < 0 for c in cs) == 3
        assert sum(ref.is_square(abs(c)) for c in cs if c) == 2


def test_ref_seconds_rescales_by_the_nearest_probes():
    ref_probe = workloads.REF_PROBE_S
    # the machine runs at half speed up to t = 10, then at full speed
    probes = [(float(t), ref_probe * (2 if t < 10 else 1)) for t in range(20)]
    assert workloads.ref_seconds([(2.5, 4.0)], probes) == pytest.approx(2.0)
    assert workloads.ref_seconds([(16.5, 4.0)], probes) == pytest.approx(4.0)
    assert workloads.ref_seconds([(2.5, 4.0), (16.5, 4.0)], probes) == pytest.approx(6.0)


def test_round_leaves_probes_out_of_liepq_time():
    rnd = workloads.Round(1)
    with rnd.timed():
        sum(range(10000))
        rnd._probe()  # what the timer does in the middle of a liepq call
        sum(range(10000))
    first, second = rnd.segments
    assert second[0] >= first[0] + first[1] + rnd.probes[-1][1]
    assert rnd.wall_s == pytest.approx(first[1] + second[1], abs=1e-4)
