import ast
import contextlib
import copy
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from liepq import cli
from liepq.cli import main, run_suite
from liepq.exact_linalg import Matrix, rat
from liepq.rep_theory import adjoint_rep, wedge_square_rep
from liepq.so_pq import (
    SO31_SL2C,
    _Family,
    deformed_algebra,
    exceptional_iso,
    ipq,
    so_pq_algebra,
    standard_rep,
    t_c,
)

from conftest import pairwise_defect


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "liepq", *argv],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def invoke(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_construct_so21(capsys):
    code, out = invoke(capsys, "construct", "--p", "2", "--q", "1")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 3
    assert data["realization"] == "matrix"


def test_construct_deformed_31(capsys):
    code, out = invoke(capsys, "construct", "--p", "3", "--q", "1", "--c", "1")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 10
    assert data["blocks"]["so"] == list(range(6))


def test_construct_rejects_empty_signature():
    code, out, err = run_cli("construct", "--p", "0", "--q", "0")
    assert code == 2
    assert "error" in err


def test_size_limit_exits_2_before_any_work(capsys, monkeypatch):
    import liepq.cli as cli

    def forbidden(*args, **kwargs):
        raise AssertionError("work started beyond the size limit")

    for name in ("run_suite", "deformed_algebra", "so_pq_algebra"):
        monkeypatch.setattr(cli, name, forbidden)
    n = str(cli.MAX_N + 1)
    for argv in (
        ["verify", "--suite", "all", "--p", n, "--q", "0"],
        ["verify", "--suite", "appendix", "--p", "50", "--q", "50"],
        ["construct", "--p", "50", "--q", "50"],
        ["construct", "--p", "1", "--q", n, "--c", "1"],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"n <= {cli.MAX_N}" in err


def test_verify_below_two_exits_2_before_any_work(capsys, monkeypatch):
    """so(p,q) needs p + q >= 2: a domain error, refused like `construct`
    refuses it, not five failed checks."""
    import liepq.cli as cli

    def forbidden(*args, **kwargs):
        raise AssertionError("work started below p + q = 2")

    for name in ("run_suite", "run_check", "deformed_algebra", "so_pq_algebra"):
        monkeypatch.setattr(cli, name, forbidden)
    for p, q in (("1", "0"), ("0", "1")):
        for command in (["verify", "--suite", "all"], ["construct"]):
            assert main(command + ["--p", p, "--q", q]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "p + q >= 2" in err


def test_construct_rejects_zero_c(capsys):
    code = main(["construct", "--p", "2", "--q", "1", "--c", "0"])
    assert code == 2


def test_construct_rejects_float_c():
    code, out, err = run_cli("construct", "--p", "2", "--q", "1", "--c", "0.5")
    assert code == 2


def test_verify_appendix_21(capsys):
    code, out = invoke(
        capsys, "verify", "--suite", "appendix", "--p", "2", "--q", "1",
        "--c-list", "1,-1",
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "liepq-report/1"
    assert report["overall"] == "pass"
    statuses = {c["status"] for c in report["checks"]}
    assert "fail" not in statuses


def test_verify_section2_31_includes_character(capsys):
    code, out = invoke(
        capsys, "verify", "--suite", "section2", "--p", "3", "--q", "1",
        "--mu-list", "2,3",
    )
    assert code == 0
    report = json.loads(out)
    char_checks = [c for c in report["checks"] if c["name"] == "character_identity"]
    assert len(char_checks) == 2
    assert all(c["status"] == "pass" for c in char_checks)


def test_verify_11_skips_maximality_with_reason(capsys):
    code, out = invoke(
        capsys, "verify", "--suite", "appendix", "--p", "1", "--q", "1",
        "--c-list", "1",
    )
    assert code == 0
    report = json.loads(out)
    maximality = [c for c in report["checks"] if c["name"] == "maximality"]
    assert maximality
    for check in maximality:
        assert check["status"] == "skipped"
        assert "so(2,1) x so(2,1)" in check["reason"]


def test_verify_reports_reproducible(capsys):
    args = ["verify", "--suite", "section2", "--p", "2", "--q", "1", "--mu-list", "2"]
    _, out1 = invoke(capsys, *args)
    _, out2 = invoke(capsys, *args)
    scrub = lambda text: re.sub(r'"elapsed_ms":[0-9.]+', '"elapsed_ms":0', text)
    assert scrub(out1) == scrub(out2)


def test_verify_failure_exits_one(capsys, monkeypatch):
    import liepq.cli as cli

    monkeypatch.setitem(
        cli.CHECKS, "dimension_bound", (lambda p, q: {"status": "fail"}, "section2", None)
    )
    code = main(["verify", "--suite", "section2", "--p", "2", "--q", "1"])
    capsys.readouterr()
    assert code == 1


def test_irreps_d4(capsys):
    code, out = invoke(capsys, "irreps", "--type", "D", "--rank", "4", "--max-dim", "8")
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(rows) == 3
    assert all(row.split("\t")[3] == "8" for row in rows)


def test_irreps_b2(capsys):
    code, out = invoke(capsys, "irreps", "--type", "B", "--rank", "2", "--max-dim", "5")
    rows = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert code == 0
    assert sorted(int(r.split("\t")[3]) for r in rows) == [4, 5]


def test_irreps_b4_empty(capsys):
    code, out = invoke(capsys, "irreps", "--type", "B", "--rank", "4", "--max-dim", "8")
    rows = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert code == 0
    assert rows == []


def test_irreps_d3_notes_coincidence(capsys):
    code, out = invoke(capsys, "irreps", "--type", "D", "--rank", "3", "--max-dim", "6")
    assert code == 0
    assert out.startswith("# NOTE:")


def test_irreps_limits_exit_2_before_any_work(capsys, monkeypatch):
    import liepq.cli as cli

    def forbidden(*args, **kwargs):
        raise AssertionError("work started beyond the irreps limits")

    for name in ("root_system", "enumerate_up_to_dim"):
        monkeypatch.setattr(cli, name, forbidden)
    for argv in (
        ["irreps", "--type", "D", "--rank", "40", "--max-dim", "1000000000"],
        ["irreps", "--type", "B", "--rank", str(cli.MAX_IRREPS_RANK + 1), "--max-dim", "8"],
        ["irreps", "--type", "B", "--rank", "2", "--max-dim", str(cli.MAX_IRREPS_DIM + 1)],
        ["irreps", "--type", "B", "--rank", "2", "--max-dim", "0"],
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")
    # the limits themselves are accepted
    from liepq.weyl_enum import root_system

    monkeypatch.setattr(cli, "root_system", root_system)
    monkeypatch.setattr(cli, "enumerate_up_to_dim", lambda rs, bound: [])
    argv = ["irreps", "--type", "B", "--rank", str(cli.MAX_IRREPS_RANK),
            "--max-dim", str(cli.MAX_IRREPS_DIM)]
    assert main(argv) == 0
    capsys.readouterr()


def test_bound_41(capsys):
    code, out = invoke(capsys, "bound", "--p", "4", "--q", "1", "--format", "tsv")
    assert code == 0
    assert out.split("\n")[0].split("\t") == ["4", "1", "10", "5", "15"]


def test_bound_44(capsys):
    code, out = invoke(capsys, "bound", "--p", "4", "--q", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert (data["dim_group"], data["m"], data["total"]) == (28, 8, 36)


def test_bound_22_has_note(capsys):
    code, out = invoke(capsys, "bound", "--p", "2", "--q", "2")
    assert code == 0
    assert "m(so(2,2)) = 3" in out
    assert "NOTE" in out


def test_bound_out_of_table_exit_2():
    code, out, err = run_cli("bound", "--p", "1", "--q", "1")
    assert code == 2


def test_usage_error_exit_2():
    code, out, err = run_cli("verify", "--suite", "bogus", "--p", "2", "--q", "1")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--p", "\uff13", "--q", "\uff11"],
        ["bound", "--p", "1_0", "--q", "2"],
        ["verify", "--suite", "section2", "--p", "\uff13", "--q", "\uff11"],
        ["irreps", "--type", "B", "--rank", "\uff12", "--max-dim", "1_0"],
        ["construct", "--p", "\u0662", "--q", "1"],
    ],
    ids=["fullwidth", "underscore", "verify", "irreps", "arabic-indic"],
)
def test_integer_flags_take_only_ascii_digits(argv, capsys, monkeypatch):
    """int() also reads fullwidth and Arabic-Indic digits and underscores;
    the integer flags, like the rational tokens, refuse them as usage errors
    before any work."""
    import liepq.cli as cli

    def forbidden(*args, **kwargs):
        raise AssertionError("work started on a non-ASCII integer")

    for name in ("run_suite", "dimension_bound", "root_system", "so_pq_algebra"):
        monkeypatch.setattr(cli, name, forbidden)
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert "invalid integer value" in capsys.readouterr().err


def test_signed_integer_flags_parse_as_before(capsys):
    plain = invoke(capsys, "bound", "--p", "2", "--q", "2")
    assert invoke(capsys, "bound", "--p", "+2", "--q", "2") == plain
    assert main(["bound", "--p", "-1", "--q", "3"]) == 2
    assert "p, q >= 1 only" in capsys.readouterr().err


def test_bad_c_list_token_exits_2_with_error_line():
    # the last two: a fullwidth one, and an Arabic-Indic two as denominator
    for token in ("1/0", "1/-2", "\uff11", "1/\u0662"):
        code, out, err = run_cli("verify", "--suite", "appendix", "--p", "2", "--q", "1",
                                 "--c-list", token)
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err


def test_run_suite_schema_fields():
    report = run_suite("section2", 2, 1, ["1"], ["2"])
    assert set(report) == {"schema", "tool_version", "parameters", "checks", "overall"}
    for check in report["checks"]:
        assert {"name", "params", "status", "elapsed_ms"} <= set(check)
        if check["status"] == "skipped":
            assert check["reason"]


def test_verify_appendix_builds_each_deformed_algebra_once(monkeypatch, record_builds, jacobi_passes):
    """One build per c, for deformed_radical, and every appendix check read
    off one record per (p, q), whose one Jacobi pass check_deformed_jacobi
    reports."""
    import liepq.checks as checks

    calls = []
    real = checks.deformed_algebra
    monkeypatch.setattr(
        checks, "deformed_algebra", lambda p, q, c: calls.append(c) or real(p, q, c)
    )
    report = run_suite("appendix", 3, 1, ["2", "0", "-1/2"], [])
    assert report["overall"] == "pass"
    assert sorted(str(c) for c in calls) == ["-1/2", "0", "2"]
    assert record_builds == [(3, 1)]
    assert jacobi_passes == [10]


def test_verify_appendix_certifies_the_complement_once(monkeypatch, fresh_family_memos):
    """Seven values of c: R^{p,q} is decided irreducible once, no check
    restricts a module to a complement, and the one per-c work of
    complement_irreducible, the target's dimension, builds so_of_form once
    per nonzero c."""
    import liepq.checks as checks
    import liepq.rep_theory as rt

    calls = {"is_irreducible": 0, "restrict": 0, "so_of_form": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    for module in (checks, fresh_family_memos):
        counted(module, "is_irreducible")
        counted(module, "so_of_form")
    for module in (rt, fresh_family_memos):
        counted(module, "restrict")
    assert not hasattr(checks, "restrict")
    report = run_suite("appendix", 3, 1, ["2", "-1", "0", "1/3", "-5/2", "7", "-3/4"], [])
    assert report["overall"] == "pass"
    assert calls == {"is_irreducible": 1, "restrict": 0, "so_of_form": 6}


def test_verify_refuses_bad_mu_before_any_work(capsys, monkeypatch):
    """A boost parameter mu <= 0 or mu = 1 is a domain error, refused whatever
    the suite (the report echoes mu_list), not a failed character check."""
    import liepq.cli as cli

    def forbidden(*args, **kwargs):
        raise AssertionError("work started with a bad mu")

    for name in ("run_suite", "run_check"):
        monkeypatch.setattr(cli, name, forbidden)
    for suite in ("section2", "appendix", "all"):
        for mu_list in ("1", "0", "-1", "3/2,1", "2,-1/2"):
            argv = ["verify", "--suite", suite, "--p", "3", "--q", "1", "--mu-list", mu_list]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "mu must be positive" in err


def test_verify_refuses_empty_lists_before_any_work(capsys, monkeypatch):
    """An empty --c-list would drop every c-dependent check, and an empty
    --mu-list the character check, from a report that still passes."""
    import liepq.cli as cli

    def forbidden(*args, **kwargs):
        raise AssertionError("work started with an empty list")

    for name in ("run_suite", "run_check"):
        monkeypatch.setattr(cli, name, forbidden)
    for flag, value in (("--c-list", ""), ("--c-list", ","), ("--mu-list", ","),
                        ("--mu-list", " , ")):
        argv = ["verify", "--suite", "all", "--p", "3", "--q", "1", flag, value]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{flag} needs at least one" in err


def test_verify_refuses_empty_items_and_repeated_values(capsys, monkeypatch):
    """An empty item used to be dropped and a repeated value (equal as a
    rational) to run every c-dependent check twice; both are usage errors
    naming the flag and the offending item."""
    import liepq.cli as cli

    def forbidden(*args, **kwargs):
        raise AssertionError("work started with a malformed list")

    for name in ("run_suite", "run_check"):
        monkeypatch.setattr(cli, name, forbidden)
    cases = [
        ("--c-list", "1,,2", "item 2 is empty"),
        ("--c-list", ",1", "item 1 is empty"),
        ("--mu-list", "2,", "item 2 is empty"),
        ("--c-list", "1,1/1", "item 2 repeats item 1"),
        ("--c-list", "0,00/1", "item 2 repeats item 1"),
        ("--c-list", "-1/2, 2,-2/4", "item 3 repeats item 1"),
        ("--mu-list", "3/2,6/4", "item 2 repeats item 1"),
    ]
    for flag, value, message in cases:
        argv = ["verify", "--suite", "all", "--p", "3", "--q", "1", flag, value]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{flag}: {message}" in err
    # the message names the flag and the position only, not the whole list
    items = ",".join(d * cli.MAX_RAT_DIGITS for d in "987")
    argv = ["verify", "--suite", "all", "--p", "3", "--q", "1", "--c-list", items + ","]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--c-list: item 4 is empty" in err and len(err) < 100
    # a repeated value and a bad mu are named by position, not echoed
    argv = ["verify", "--suite", "all", "--p", "3", "--q", "1", "--c-list", items + ",0," + "9" * 1000]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--c-list: item 5 repeats item 1" in err and len(err) < 100
    big = "1" * cli.MAX_RAT_DIGITS
    for mu_list, pos in ((big + "/" + big, 1), ("2,-" + big, 2)):
        argv = ["verify", "--suite", "all", "--p", "3", "--q", "1", "--mu-list", mu_list]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"--mu-list: item {pos}: mu must be positive" in err
        assert len(err) < 100


def test_an_exception_inside_a_check_fails_it_and_the_report_prints(capsys, monkeypatch):
    """A fault inside a check that is not a LiepqError used to end the run
    as a usage error (exit 2, no report); it fails that check now, with the
    exception's type name leading the reason, and the run exits 1."""
    import liepq.cli as cli

    def broken(p, q):
        raise ValueError("a bug inside the check")

    monkeypatch.setitem(cli.CHECKS, "killing_vs_trace", (broken, "appendix", None))
    code, out = invoke(capsys, "verify", "--suite", "appendix", "--p", "3", "--q", "1")
    report = json.loads(out)
    assert code == 1 and report["overall"] == "fail"
    [entry] = [c for c in report["checks"] if c["name"] == "killing_vs_trace"]
    assert entry["status"] == "fail" and entry["reason"].startswith("ValueError")
    assert all(c["status"] != "fail" for c in report["checks"] if c["name"] != "killing_vs_trace")


def test_oversize_rational_tokens_exit_2_before_any_work(capsys, monkeypatch):
    """A numerator or denominator past MAX_RAT_DIGITS used to run the checks
    and then fail printing a report value (or, at 5001 digits, fail in
    Python's own int parser); it is a usage error naming the limit now."""
    import liepq.cli as cli

    def forbidden(*args, **kwargs):
        raise AssertionError("work started on an oversize rational token")

    for name in ("run_suite", "run_check", "deformed_algebra", "so_pq_algebra"):
        monkeypatch.setattr(cli, name, forbidden)
    over = "7" * (cli.MAX_RAT_DIGITS + 1)
    for token in (over, "-" + over, "1/" + over, over + "/3", "7" * 4300, "7" * 5001):
        for argv in (
            ["verify", "--suite", "appendix", "--p", "3", "--q", "1", "--c-list", "1," + token],
            ["verify", "--suite", "section2", "--p", "3", "--q", "1", "--mu-list", token],
            ["construct", "--p", "3", "--q", "1", "--c", token],
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:")
            assert f"size limit of {cli.MAX_RAT_DIGITS} digits" in err and len(err) < 200


def test_largest_rational_tokens_give_printable_reports(capsys):
    """Tokens at MAX_RAT_DIGITS in the numerator and the denominator run
    end to end: a2 = c.r1 and the character residuals, which grow to four
    times mu's digits, stay printable."""
    import liepq.cli as cli

    big = "9" * cli.MAX_RAT_DIGITS
    odd = "7" * (cli.MAX_RAT_DIGITS - 1) + "1"
    c_list = ",".join(["-" + big, big + "/" + odd, "-1/" + big])
    mu_list = ",".join([big, "1/" + big, odd + "/" + big])
    for suite, flag, value in (("appendix", "--c-list", c_list),
                               ("section2", "--mu-list", mu_list)):
        code, out = invoke(capsys, "verify", "--suite", suite, "--p", "3", "--q", "1",
                           flag, value)
        report = json.loads(out)
        assert code == 0 and report["overall"] == "pass"
        assert report["parameters"][flag[2:].replace("-", "_")] == value.split(",")
    residuals = [c["residual_complex"] for c in report["checks"] if c["name"] == "character_identity"]
    assert len(residuals) == 3 and max(len(r) for r in residuals) > 3 * cli.MAX_RAT_DIGITS
    code, out = invoke(capsys, "construct", "--p", "3", "--q", "1", "--c", "-" + odd + "/" + big)
    assert code == 0 and json.loads(out)["dim"] == 10


def test_verify_at_p_zero_passes(capsys):
    """so(0,q) has I_{0,q} = -1: its invariant form is a negative multiple."""
    for q in ("2", "3", "4"):
        code = main(["verify", "--suite", "all", "--p", "0", "--q", q, "--format", "tsv"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert out.endswith("# overall\tpass\n")


def test_integer_flags_past_the_digit_limit_are_usage_errors(capsys):
    """`bound` prints n(n-1)/2: from about 2150 digits of p that passed
    Python's 4300-digit limit on int-to-str conversion and raised a
    ValueError; an integer flag of more than MAX_RAT_DIGITS digits is now a
    usage error whose message does not echo the value."""
    big = "9" * cli.MAX_RAT_DIGITS
    code, out = invoke(capsys, "bound", "--p", big, "--q", "1", "--format", "tsv")
    assert code == 0 and len(out.split("\t")[4].strip()) == 2 * cli.MAX_RAT_DIGITS
    for digits in (cli.MAX_RAT_DIGITS + 1, 2200, 5000):
        for argv in (["bound", "--p", "9" * digits, "--q", "1"],
                     ["irreps", "--type", "B", "--rank", "-" + "9" * digits, "--max-dim", "5"]):
            with pytest.raises(SystemExit) as exit_:
                main(argv)
            assert exit_.value.code == 2
            err = capsys.readouterr().err
            assert f"{digits} digits exceed the size limit" in err and len(err) < 300


def test_error_lines_at_the_largest_accepted_tokens_stay_short(capsys):
    """Integer flags at +-(10^MAX_RAT_DIGITS - 1) and rational flags with a
    numerator and a denominator of MAX_RAT_DIGITS digits, each in a command
    that refuses it: the error line names the value's digit count or its
    position and stays under 200 characters.  `_signature_within_limit`
    and `irreps --rank` used to echo the whole integer, 1047 characters."""
    big = "9" * cli.MAX_RAT_DIGITS
    ratio = big + "/" + "7" * cli.MAX_RAT_DIGITS
    cases = []
    for value in (big, "-" + big):
        cases += [
            ["construct", "--p", value, "--q", "5"],
            ["construct", "--p", "3", "--q", value, "--c", "1"],
            ["verify", "--suite", "all", "--p", value, "--q", "5"],
            ["verify", "--suite", "appendix", "--p", "3", "--q", value],
            ["irreps", "--type", "B", "--rank", value, "--max-dim", "5"],
            ["irreps", "--type", "D", "--rank", "4", "--max-dim", value],
            ["bound", "--p", "-" + big, "--q", value],
        ]
    cases += [
        ["construct", "--p", "3", "--q", "1", "--c", "0/" + big],
        ["verify", "--suite", "appendix", "--p", "3", "--q", "1", "--c-list", f"{ratio},{ratio}"],
        ["verify", "--suite", "section2", "--p", "3", "--q", "1", "--mu-list", "-" + ratio],
        ["verify", "--suite", "section2", "--p", "3", "--q", "1", "--mu-list", f"{big}/{big}"],
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err) < 200, err[:80]


# -- every subcommand on generated argv: exit 0, 1 or 2, and a report that parses

_BIG = "9" * cli.MAX_RAT_DIGITS
# non-ASCII digits and signs, a zero denominator, floats, blanks
_MALFORMED = ["\uff13", "\u0662", "1/\uff12", "\u00bd", "\u00e9", "3\u00b2", "\u22121", "\u0663/4",
              "1/0", "-0/0", "1.5", "1e3", "", " "]


def _int_tokens(small):
    """Integer flag values drawn from small or +-(10^MAX_RAT_DIGITS - 1),
    the widest an integer flag takes, a nonnegative one written with or
    without a plus sign."""
    value = st.one_of(small, st.sampled_from([int(_BIG), -int(_BIG)]))
    return st.builds(lambda x, plus: f"+{x}" if plus and x >= 0 else str(x), value, st.booleans())


_SMALL_RATIONALS = st.builds(
    lambda sign, num, den: f"{sign}{num}" if den is None else f"{sign}{num}/{den}",
    st.sampled_from(["", "-", "+"]), st.integers(0, 40), st.one_of(st.none(), st.integers(1, 9)),
)
_RATIONALS = st.one_of(
    _SMALL_RATIONALS,
    st.builds(
        lambda sign, num, den: f"{sign}{num}/{den}",
        st.sampled_from(["", "-"]),
        st.sampled_from(["1", "7" * (cli.MAX_RAT_DIGITS - 1) + "1", _BIG, _BIG + "9"]),
        st.sampled_from(["1", "3", _BIG, _BIG + "9"]),
    ),
    st.sampled_from(_MALFORMED),
    st.text(max_size=3),
)


@st.composite
def _rational_lists(draw):
    """Up to three tokens joined by commas, sometimes with the first one
    repeated, as written or as an equal rational; half the lists hold
    distinct small values only."""
    if not draw(st.booleans()):
        return ",".join(draw(st.lists(_SMALL_RATIONALS, min_size=1, max_size=3,
                                      unique_by=rat)))
    items = draw(st.lists(_RATIONALS, max_size=3))
    if items and draw(st.booleans()):
        first = items[0]
        items.append(draw(st.sampled_from([first, f"{first}/1", f"2*{first}", f" {first} "])))
    return ",".join(items)


_SIGNATURES = st.one_of(
    # every signature with 2 <= n <= 4, the lower limit included
    st.sampled_from([(p, n - p) for n in (2, 3, 4) for p in range(n + 1)]),
    # refused: n below 2, a negative entry, n past MAX_N
    st.one_of(
        st.tuples(st.integers(0, 1), st.integers(0, 1)).filter(lambda pq: sum(pq) < 2),
        st.tuples(st.integers(-2, 4), st.integers(-2, -1)),
        st.tuples(st.sampled_from([cli.MAX_N + 1, cli.MAX_N + 2, int(_BIG)]), st.integers(-1, 4)),
    ),
)


@st.composite
def _signature(draw):
    """The --p and --q flags of a drawn signature, in either order."""
    p, q = draw(_SIGNATURES)
    if draw(st.booleans()):
        p, q = q, p
    plus = draw(st.booleans())
    return ["--p", f"+{p}" if plus and p >= 0 else str(p), "--q", str(q)]


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["construct", "verify", "irreps", "bound"]))
    if command == "construct":
        argv = ["construct", *draw(_signature())]
        if draw(st.booleans()):
            argv += ["--c", draw(_RATIONALS)]
        formats = ["json", "human"]
    elif command == "verify":
        argv = ["verify", "--suite", draw(st.sampled_from(["appendix", "section2", "all"])),
                *draw(_signature())]
        for flag in ("--c-list", "--mu-list"):
            if draw(st.booleans()):
                argv += [flag, draw(_rational_lists())]
        formats = ["json", "tsv", "human"]
    elif command == "irreps":
        rank = st.sampled_from([2, 3, cli.MAX_IRREPS_RANK, 1, 0, -1, cli.MAX_IRREPS_RANK + 1])
        bound = st.one_of(st.integers(1, 60), st.sampled_from([cli.MAX_IRREPS_DIM, cli.MAX_IRREPS_DIM + 1, 0, -1]))
        argv = ["irreps", "--type", draw(st.sampled_from("BD")), "--rank", draw(_int_tokens(rank)),
                "--max-dim", draw(_int_tokens(bound))]
        formats = ["tsv", "json", "human"]
    else:
        side = _int_tokens(st.one_of(st.integers(-3, 40), st.sampled_from([cli.MAX_N, cli.MAX_N + 1])))
        argv = ["bound", "--p", draw(side), "--q", draw(side)]
        formats = ["human", "json", "tsv"]
    fmt = draw(st.sampled_from(formats))
    return argv + ["--format", fmt], command, fmt


_STATUSES = ("pass", "fail", "skipped")


def _parsed_overall(command, fmt, out):
    """The overall verdict of a printed report, asserting that every line
    parses: "pass" for the commands that print no verdict.  Only an irreps
    table with no weight and no note prints no line."""
    lines = out.splitlines()
    assert lines or (command, fmt) == ("irreps", "tsv")
    if fmt == "json":
        payload = json.loads(out)
        if command != "verify":
            return "pass"
        assert payload["schema"] == "liepq-report/1"
        assert all(check["status"] in _STATUSES for check in payload["checks"])
        return payload["overall"]
    if command == "verify" and fmt == "tsv":
        tag, overall = lines[-1].split("\t")
        assert tag == "# overall"
        for line in lines[:-1]:
            name, params, status, _reason = line.split("\t")
            assert status in _STATUSES and isinstance(json.loads(params), dict)
        return overall
    if command == "verify":
        for line in lines[:-1]:
            status, name, rest = re.fullmatch(r"\[ *(\w+)\] (\w+) (.*)", line).groups()
            assert status in _STATUSES
            json.loads(rest.split("  (")[0])
        return re.fullmatch(r"overall: (pass|fail)", lines[-1]).group(1)
    if command == "construct":
        assert re.fullmatch(r"\S.* with \(p, q\) = \(-?\d+, -?\d+\); dim = \d+", lines[0])
    elif command == "irreps" and fmt == "tsv":
        for line in lines:
            if not line.startswith("# NOTE: "):
                kind, rank, weight, dim = line.split("\t")
                assert kind in "BD" and int(rank) > 0 and int(dim) > 0
                # dominant in the epsilon basis: l_1 >= ... >= l_n >= 0 for B,
                # l_1 >= ... >= l_{n-1} >= |l_n| for D (whose l_n may be negative)
                lam = [rat(x) for x in weight.split()]
                chain = lam + [0] if kind == "B" else lam[:-1] + [abs(lam[-1])]
                assert all(x >= y for x, y in zip(chain, chain[1:]))
    elif command == "irreps":
        assert re.fullmatch(r"\d+ weight\(s\) with dim <= \d+", lines[-1])
    elif fmt == "tsv":
        assert [int(x) for x in lines[0].split("\t")]
        assert len(lines[0].split("\t")) == 5
    else:
        assert re.fullmatch(r"dim G = \d+, m\(so\(\d+,\d+\)\) = \d+, dim G \+ m = \d+", lines[0])
    return "pass"


@given(_argv())
@settings(max_examples=100, deadline=None)
def test_every_subcommand_exits_0_1_or_2_on_generated_argv(case):
    """Huge, signed, non-ASCII and repeated rationals, and signatures, ranks
    and bounds at their limits and past them: main returns 0, 1 or 2 and
    raises nothing; 0 and 1 print a report that parses and gives that exit
    code, and 2 prints nothing but an error line."""
    argv, command, fmt = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"{command} exit {code}")
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
        return
    assert code in (0, 1) and err.getvalue() == ""
    overall = _parsed_overall(command, fmt, out.getvalue())
    assert code == (0 if overall == "pass" else 1)


LIBRARY = Path(__file__).resolve().parent.parent / "src" / "liepq"


def test_cli_checks_use_the_library_certificates():
    """Bracket compatibility, ratios and ranks come from lie_core,
    exact_linalg and rep_theory; the checks hand-roll none of them."""
    pattern = re.compile(r"\b(structure_entry|bracket_coeffs|column_list)\b|\brref\(")
    hits = [
        f"{name}:{number}: {line.strip()}"
        for name in ("cli.py", "checks.py")
        for number, line in enumerate((LIBRARY / name).read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert hits == []
    for line in ("algebra.structure_entry(i, j)", "x = rref(rows)", "m.column_list(0)"):
        assert pattern.search(line)


def _imported_modules(tree):
    """The modules a module imports, relative ones by their bare name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            out.add(node.module or "")
        elif isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
    return {name.rsplit(".", 1)[-1] for name in out}


def test_cli_is_the_command_line_only():
    """The checks live in liepq.checks, which the command line imports and
    which imports no command line back; cli.py defines no check and reads
    nothing of rep_theory."""
    cli_tree = ast.parse((LIBRARY / "cli.py").read_text())
    checks_tree = ast.parse((LIBRARY / "checks.py").read_text())
    defined = [node.name for node in cli_tree.body if isinstance(node, ast.FunctionDef)]
    assert [name for name in defined if name.startswith("check_")] == []
    assert {"run_check", "run_suite", "build_suite"} <= set(defined)
    assert "rep_theory" not in _imported_modules(cli_tree)
    assert "checks" in _imported_modules(cli_tree)
    assert "cli" not in _imported_modules(checks_tree)
    import liepq.checks as checks
    import liepq.cli as cli

    assert cli.CHECKS is checks.CHECKS


def test_run_suite_runs_each_check_through_the_cli_global(monkeypatch):
    """A wrapper put on cli.run_check, as a profiler or timer puts it, sees
    every check of the suite, in this process and in suite order."""
    import liepq.cli as cli

    seen = []
    real = cli.run_check
    monkeypatch.setattr(cli, "run_check", lambda name, params: seen.append(name) or real(name, params))
    jobs = cli.build_suite("all", 3, 1, ["1", "0"], ["2"])
    report = run_suite("all", 3, 1, ["1", "0"], ["2"])
    assert seen == [name for name, _ in jobs]
    assert len(report["checks"]) == len(jobs) and report["overall"] == "pass"


# -- fail paths of the certificate checks: each check is fed a perturbed
# object through the liepq.checks name it reads, and must name what fails


def test_theta_check_names_the_first_failing_pair(monkeypatch):
    import liepq.checks as checks

    algebra = so_pq_algebra(2, 1)
    # -1 squares to the identity but flips the sign of every bracket
    minus = Matrix.identity(algebra.dim).scale(-1)
    fake = copy.copy(algebra)
    fake.theta_involution = lambda: minus
    monkeypatch.setattr(checks, "so_pq_algebra", lambda p, q: fake)
    result = checks.check_theta_automorphism(2, 1)
    assert result["status"] == "fail"
    i, j = pairwise_defect(algebra, algebra, minus)
    assert result["reason"] == f"theta not an automorphism on pair ({i},{j})"


def test_standard_form_check_fails_on_a_non_multiple(monkeypatch):
    import liepq.checks as checks

    bent = ipq(2, 1) + _unit(3, 0, 1) + _unit(3, 1, 0)
    monkeypatch.setattr(checks, "invariant_symmetric_forms", lambda rep: [bent])
    result = checks.check_standard_form_unique(2, 1)
    assert result == {"status": "fail", "reason": "form is not a multiple of I_{p,q}"}
    monkeypatch.setattr(checks, "invariant_symmetric_forms", lambda rep: [ipq(2, 1).scale(-3)])
    assert checks.check_standard_form_unique(2, 1) == {"status": "pass"}


def _unit(n, i, j):
    return Matrix.from_sparse(n, n, {(i, j): 1})


def test_tc_rank_check_fails_on_a_rank_drop(monkeypatch, fresh_family_memos):
    """rank T_1 is read once per signature (`_Family.t1_rank`), so a rank
    drop of the whole line T_c = c.T_1 fails at every nonzero c."""
    import liepq.checks as checks

    # T_c followed by the projection that kills the first coordinate
    for module in (checks, fresh_family_memos):
        monkeypatch.setattr(module, "t_c", lambda p, q, c: t_c(p, q, c) - _unit(3, 0, 0) @ t_c(p, q, c))
    for c in (rat(1), rat(2), rat("-1/2")):
        result = checks.check_tc_iso_rank(2, 1, c)
        assert result == {"status": "fail", "found": 2, "expected": 3}


def test_tc_equivariance_check_names_the_first_failing_index(monkeypatch, fresh_family_memos):
    """T_1 is certified once per signature and each c through T_c = c.T_1:
    a bent T_1 fails at its first non-equivariant index for every nonzero c,
    and a T_c off the line c.T_1 fails at that c."""
    import liepq.checks as checks

    bent = t_c(2, 1, 1) + _unit(3, 0, 1)
    wedge = wedge_square_rep(standard_rep(2, 1))
    adjoint = adjoint_rep(so_pq_algebra(2, 1))
    x = next(x for x in range(3) if bent @ wedge.actions[x] != adjoint.actions[x] @ bent)
    for module in (checks, fresh_family_memos):
        monkeypatch.setattr(module, "t_c", lambda p, q, c: bent.scale(c))
    for c in (rat(2), rat("-1/2")):
        assert checks.check_tc_equivariance(2, 1, c) == {
            "status": "fail", "reason": f"T_c not equivariant at basis index {x}"
        }
    assert checks.check_tc_equivariance(2, 1, rat(0)) == {"status": "pass"}
    monkeypatch.setattr(checks, "t_c", lambda p, q, c: t_c(p, q, c) + _unit(3, 0, 0))
    assert checks.check_tc_equivariance(2, 1, rat(2)) == {
        "status": "fail", "reason": "T_c is not c.T_1"
    }


def test_embedding_check_names_the_first_failing_pair(monkeypatch, fresh_family_memos):
    """Doubled images stay in so(R^{n+1}, I_{p,q}(c)), but their brackets
    are four times, not twice, the images of the brackets: the first pair
    with a nonzero bracket fails, in degree 0, on either sign branch."""
    import liepq.checks as checks

    real = _Family.branch

    def doubled(record, positive):
        form, images = real(record, positive)
        return form, [tuple(x.scale(2) for x in parts) for parts in images]

    monkeypatch.setattr(_Family, "branch", doubled)
    i, j = min(deformed_algebra(2, 1, 1).algebra.structure)
    for c in (rat(1), rat("-1/2")):
        assert checks.check_embedding(2, 1, c) == {
            "status": "fail",
            "reason": "bracket not intertwined in degree 0: "
            f"homomorphism property fails on basis pair ({i},{j})",
        }


def test_embedding_check_refuses_a_map_that_is_not_injective(monkeypatch, fresh_family_memos):
    """The zero map stays in every so(form) and intertwines every bracket,
    so only the injectivity test can refuse it."""
    import liepq.checks as checks

    real = _Family.branch

    def zero(record, positive):
        form, images = real(record, positive)
        return form, [tuple(x.scale(0) for x in parts) for parts in images]

    monkeypatch.setattr(_Family, "branch", zero)
    assert checks.check_embedding(2, 1, rat(1)) == {
        "status": "fail", "reason": "embedding is not injective"
    }


def test_hom_check_refuses_a_t1_outside_the_hom_span(monkeypatch):
    import liepq.checks as checks

    monkeypatch.setattr(checks, "t_c", lambda p, q, c: _unit(3, 0, 0))
    result = checks.check_hom_wedge_adjoint(2, 1)
    assert (result["status"], result["reason"]) == ("fail", "t_c(1) is not in the Hom span")


@pytest.mark.parametrize("block", ["mixed", "so", "vector"])
def test_killing_blocks_check_names_the_failing_block(fresh_family_memos, block):
    """A symmetric bend of one block of the record's K0 fails that block."""
    import liepq.checks as checks
    record = fresh_family_memos._family(2, 1)
    # so block: indices 0..2, vector block: 3..5
    i, j = {"mixed": (0, 4), "so": (0, 1), "vector": (3, 4)}[block]
    k0, k1, k2 = record.grams
    record.grams = (k0 + _unit(6, i, j) + _unit(6, j, i), k1, k2)
    result = checks.check_killing_blocks(2, 1, rat(1))
    assert result["status"] == "fail"
    assert result["reason"].startswith(f"{block} block")


@pytest.mark.parametrize(
    "gram, i, j, reason",
    [
        ("k1", 0, 4, "mixed block is not zero in degree 1"),
        ("k2", 0, 5, "mixed block is not zero in degree 2"),
        ("k1", 0, 1, "so block is not zero in degree 1"),
        ("k2", 1, 2, "so block is not zero in degree 2"),
        ("k0", 3, 4, "vector block is not zero in degree 0"),
        ("k2", 3, 4, "vector block is not zero in degree 2"),
        ("k1", 3, 4, "vector block not proportional to <.,.>_{p,q}"),
    ],
)
def test_killing_blocks_check_names_the_failing_degree(fresh_family_memos, gram, i, j, reason):
    """a1 is read off the so block of K0 and a2 = c.r1 off the vector
    block of K1: any other degree of a block must vanish."""
    import liepq.checks as checks
    record = fresh_family_memos._family(2, 1)
    grams = list(record.grams)
    d = int(gram[1])
    grams[d] = grams[d] + _unit(6, i, j) + _unit(6, j, i)
    record.grams = tuple(grams)
    assert checks.check_killing_blocks(2, 1, rat(3)) == {"status": "fail", "reason": reason}


def test_killing_blocks_constants_are_a1_and_c_times_r1():
    """a1 = (n-1)/(n-2) for every c, and a2 = -2(n-1).c."""
    import liepq.checks as checks

    for p, q in ((2, 1), (3, 1), (2, 2), (4, 3)):
        n = p + q
        for c in (rat(2), rat("-3/5")):
            assert checks.check_killing_blocks(p, q, c) == {
                "status": "pass",
                "a1": str(rat(n - 1) / (n - 2)),
                "a2": str(-2 * (n - 1) * c),
            }


def test_exceptional_iso_check_names_the_first_failing_pair(monkeypatch):
    import liepq.checks as checks

    iso = exceptional_iso(SO31_SL2C)
    doubled = iso._replace(iso_coeffs=iso.iso_coeffs.scale(2))
    monkeypatch.setattr(checks, "exceptional_iso", lambda name: doubled)
    result = checks.check_exceptional_iso(3, 1)
    assert result["status"] == "fail"
    i, j = pairwise_defect(iso.small_algebra, iso.target, doubled.iso_coeffs)
    assert result["reason"] == f"brackets disagree on pair ({i},{j})"
    singular = iso._replace(iso_coeffs=iso.iso_coeffs - iso.iso_coeffs @ _unit(6, 0, 0))
    monkeypatch.setattr(checks, "exceptional_iso", lambda name: singular)
    assert checks.check_exceptional_iso(3, 1) == {
        "status": "fail", "reason": "intertwiner is not bijective"
    }
