import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from liepq.cli import main, run_suite
from liepq.exact_linalg import Matrix, rat
from liepq.rep_theory import adjoint_rep, wedge_square_rep
from liepq.so_pq import (
    SO31_SL2C,
    _deformation_family,
    _embedding_branch,
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


def test_verify_parallel_runner_matches_serial(capsys, monkeypatch):
    args = ["verify", "--suite", "section2", "--p", "3", "--q", "2", "--mu-list", "2"]
    _, serial = invoke(capsys, *args)
    monkeypatch.setenv("LIEPQ_THREADS", "2")
    _, parallel = invoke(capsys, *args)
    scrub = lambda text: re.sub(r'"elapsed_ms":[0-9.]+', '"elapsed_ms":0', text)
    assert scrub(serial) == scrub(parallel)



class _RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers, starts no
    process and maps serially."""

    workers = []

    def __init__(self, max_workers):
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


def _stub_pool(monkeypatch, cpus):
    import concurrent.futures

    import liepq.cli as cli

    _RecordingExecutor.workers = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingExecutor)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    return _RecordingExecutor.workers


_SECTION2_31 = ("section2", 3, 1, ["2"], ["2"])


@pytest.mark.parametrize(
    "threads,cpus,expected",
    [
        (str(10**9), 4, [4]),
        (str(10**9), 10**6, "jobs"),
        ("3", 4, [3]),
        # one thread or one CPU: serial, no executor at all
        ("1", 4, []),
        ("8", 1, []),
        ("8", None, []),
    ],
)
def test_liepq_threads_is_capped_by_cpus_and_jobs(threads, cpus, expected, monkeypatch):
    """A huge LIEPQ_THREADS asks for no more processes than there are CPUs
    or checks; only the stub executor ever sees the count."""
    import liepq.cli as cli

    if expected == "jobs":
        expected = [len(cli.build_suite(*_SECTION2_31))]
    workers = _stub_pool(monkeypatch, cpus)
    monkeypatch.setenv("LIEPQ_THREADS", threads)
    assert run_suite(*_SECTION2_31)["overall"] == "pass"
    assert workers == expected


@pytest.mark.parametrize("value", ["0", "-2", "two", "2.5", "1e3"])
def test_bad_liepq_threads_exits_2_before_any_work(value, capsys, monkeypatch):
    import liepq.cli as cli

    def forbidden(*args, **kwargs):
        raise AssertionError("a check ran with a bad LIEPQ_THREADS")

    monkeypatch.setattr(cli, "run_check", forbidden)
    workers = _stub_pool(monkeypatch, 4)
    monkeypatch.setenv("LIEPQ_THREADS", value)
    assert main(["verify", "--suite", "section2", "--p", "3", "--q", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: LIEPQ_THREADS") and repr(value) in captured.err
    assert workers == []


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


def test_verify_appendix_builds_each_deformed_algebra_once(monkeypatch, fresh_family_memos):
    """One build per c, for deformed_radical, and every appendix check read
    off one family certificate per (p, q), which check_deformed_jacobi
    reports."""
    import liepq.cli as cli

    monkeypatch.setenv("LIEPQ_THREADS", "1")
    calls = []
    real = cli.deformed_algebra
    monkeypatch.setattr(
        cli, "deformed_algebra", lambda p, q, c: calls.append(c) or real(p, q, c)
    )
    report = run_suite("appendix", 3, 1, ["2", "0", "-1/2"], [])
    certified = fresh_family_memos._deformation_family.cache_info().misses
    assert report["overall"] == "pass"
    assert sorted(str(c) for c in calls) == ["-1/2", "0", "2"]
    assert certified == 1


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
        ("--c-list", "1,,2", "item 2 of '1,,2' is empty"),
        ("--c-list", ",1", "item 1 of ',1' is empty"),
        ("--mu-list", "2,", "item 2 of '2,' is empty"),
        ("--c-list", "1,1/1", "'1/1' repeats the value of '1'"),
        ("--c-list", "0,00/1", "'00/1' repeats the value of '0'"),
        ("--c-list", "-1/2, 2,-2/4", "'-2/4' repeats the value of '-1/2'"),
        ("--mu-list", "3/2,6/4", "'6/4' repeats the value of '3/2'"),
    ]
    for flag, value, message in cases:
        argv = ["verify", "--suite", "all", "--p", "3", "--q", "1", flag, value]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{flag}: {message}" in err


def test_verify_at_p_zero_passes(capsys, monkeypatch):
    """so(0,q) has I_{0,q} = -1: its invariant form is a negative multiple."""
    monkeypatch.setenv("LIEPQ_THREADS", "1")
    for q in ("2", "3", "4"):
        code = main(["verify", "--suite", "all", "--p", "0", "--q", q, "--format", "tsv"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert out.endswith("# overall\tpass\n")


def test_cli_checks_use_the_library_certificates():
    """Bracket compatibility, ratios and ranks come from lie_core,
    exact_linalg and rep_theory; the checks hand-roll none of them."""
    src = Path(__file__).resolve().parent.parent / "src" / "liepq" / "cli.py"
    pattern = re.compile(r"\b(structure_entry|bracket_coeffs|column_list)\b|\brref\(")
    hits = [
        f"cli.py:{number}: {line.strip()}"
        for number, line in enumerate(src.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert hits == []
    for line in ("algebra.structure_entry(i, j)", "x = rref(rows)", "m.column_list(0)"):
        assert pattern.search(line)


# -- fail paths of the certificate checks: each check is fed a perturbed
# object through the cli name it reads, and must name what fails


def test_theta_check_names_the_first_failing_pair(monkeypatch):
    import liepq.cli as cli

    algebra = so_pq_algebra(2, 1)
    # -1 squares to the identity but flips the sign of every bracket
    minus = Matrix.identity(algebra.dim).scale(-1)
    fake = copy.copy(algebra)
    fake.theta_involution = lambda: minus
    monkeypatch.setattr(cli, "so_pq_algebra", lambda p, q: fake)
    result = cli.check_theta_automorphism(2, 1)
    assert result["status"] == "fail"
    i, j = pairwise_defect(algebra, algebra, minus)
    assert result["reason"] == f"theta not an automorphism on pair ({i},{j})"


def test_standard_form_check_fails_on_a_non_multiple(monkeypatch):
    import liepq.cli as cli

    bent = ipq(2, 1) + _unit(3, 0, 1) + _unit(3, 1, 0)
    monkeypatch.setattr(cli, "invariant_symmetric_forms", lambda rep: [bent])
    result = cli.check_standard_form_unique(2, 1)
    assert result == {"status": "fail", "reason": "form is not a multiple of I_{p,q}"}
    monkeypatch.setattr(cli, "invariant_symmetric_forms", lambda rep: [ipq(2, 1).scale(-3)])
    assert cli.check_standard_form_unique(2, 1) == {"status": "pass"}


def _unit(n, i, j):
    return Matrix.from_sparse(n, n, {(i, j): 1})


def test_tc_rank_check_fails_on_a_rank_drop(monkeypatch):
    import liepq.cli as cli

    # T_c followed by the projection that kills the first coordinate
    monkeypatch.setattr(cli, "t_c", lambda p, q, c: t_c(p, q, c) - _unit(3, 0, 0) @ t_c(p, q, c))
    result = cli.check_tc_iso_rank(2, 1, rat(1))
    assert result == {"status": "fail", "found": 2, "expected": 3}


def test_tc_equivariance_check_names_the_first_failing_index(monkeypatch, fresh_family_memos):
    """T_1 is certified once per signature and each c through T_c = c.T_1:
    a bent T_1 fails at its first non-equivariant index for every nonzero c,
    and a T_c off the line c.T_1 fails at that c."""
    import liepq.cli as cli

    bent = t_c(2, 1, 1) + _unit(3, 0, 1)
    wedge = wedge_square_rep(standard_rep(2, 1))
    adjoint = adjoint_rep(so_pq_algebra(2, 1))
    x = next(x for x in range(3) if bent @ wedge.actions[x] != adjoint.actions[x] @ bent)
    for module in (cli, fresh_family_memos):
        monkeypatch.setattr(module, "t_c", lambda p, q, c: bent.scale(c))
    for c in (rat(2), rat("-1/2")):
        assert cli.check_tc_equivariance(2, 1, c) == {
            "status": "fail", "reason": f"T_c not equivariant at basis index {x}"
        }
    assert cli.check_tc_equivariance(2, 1, rat(0)) == {"status": "pass"}
    monkeypatch.setattr(cli, "t_c", lambda p, q, c: t_c(p, q, c) + _unit(3, 0, 0))
    assert cli.check_tc_equivariance(2, 1, rat(2)) == {
        "status": "fail", "reason": "T_c is not c.T_1"
    }


def test_embedding_check_names_the_first_failing_pair(monkeypatch, fresh_family_memos):
    """Doubled images stay in so(R^{n+1}, I_{p,q}(c)), but their brackets
    are four times, not twice, the images of the brackets: the first pair
    with a nonzero bracket fails, in degree 0, on either sign branch."""
    import liepq.cli as cli

    def doubled(p, q, positive):
        form, images = _embedding_branch(p, q, positive)
        return form, [tuple(x.scale(2) for x in parts) for parts in images]

    monkeypatch.setattr(fresh_family_memos, "_embedding_branch", doubled)
    i, j = min(deformed_algebra(2, 1, 1).algebra.structure)
    for c in (rat(1), rat("-1/2")):
        assert cli.check_embedding(2, 1, c) == {
            "status": "fail",
            "reason": "bracket not intertwined in degree 0: "
            f"homomorphism property fails on basis pair ({i},{j})",
        }


def test_embedding_check_refuses_a_map_that_is_not_injective(monkeypatch, fresh_family_memos):
    """The zero map stays in every so(form) and intertwines every bracket,
    so only the injectivity test can refuse it."""
    import liepq.cli as cli

    def zero(p, q, positive):
        form, images = _embedding_branch(p, q, positive)
        return form, [tuple(x.scale(0) for x in parts) for parts in images]

    monkeypatch.setattr(fresh_family_memos, "_embedding_branch", zero)
    assert cli.check_embedding(2, 1, rat(1)) == {
        "status": "fail", "reason": "embedding is not injective"
    }


def test_hom_check_refuses_a_t1_outside_the_hom_span(monkeypatch):
    import liepq.cli as cli

    monkeypatch.setattr(cli, "t_c", lambda p, q, c: _unit(3, 0, 0))
    result = cli.check_hom_wedge_adjoint(2, 1)
    assert (result["status"], result["reason"]) == ("fail", "t_c(1) is not in the Hom span")


@pytest.mark.parametrize("block", ["mixed", "so", "vector"])
def test_killing_blocks_check_names_the_failing_block(monkeypatch, fresh_family_memos, block):
    """A symmetric bend of one block of the family's K0 fails that block."""
    import liepq.cli as cli
    family = _deformation_family(2, 1)
    # so block: indices 0..2, vector block: 3..5
    i, j = {"mixed": (0, 4), "so": (0, 1), "vector": (3, 4)}[block]
    bent = family._replace(k0=family.k0 + _unit(6, i, j) + _unit(6, j, i))
    monkeypatch.setattr(fresh_family_memos, "_deformation_family", lambda p, q: bent)
    result = cli.check_killing_blocks(2, 1, rat(1))
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
def test_killing_blocks_check_names_the_failing_degree(monkeypatch, fresh_family_memos, gram, i, j, reason):
    """a1 is read off the so block of K0 and a2 = c.r1 off the vector
    block of K1: any other degree of a block must vanish."""
    import liepq.cli as cli
    family = _deformation_family(2, 1)
    bend = getattr(family, gram) + _unit(6, i, j) + _unit(6, j, i)
    monkeypatch.setattr(
        fresh_family_memos, "_deformation_family", lambda p, q: family._replace(**{gram: bend})
    )
    assert cli.check_killing_blocks(2, 1, rat(3)) == {"status": "fail", "reason": reason}


def test_killing_blocks_constants_are_a1_and_c_times_r1():
    """a1 = (n-1)/(n-2) for every c, and a2 = -2(n-1).c."""
    import liepq.cli as cli

    for p, q in ((2, 1), (3, 1), (2, 2), (4, 3)):
        n = p + q
        for c in (rat(2), rat("-3/5")):
            assert cli.check_killing_blocks(p, q, c) == {
                "status": "pass",
                "a1": str(rat(n - 1) / (n - 2)),
                "a2": str(-2 * (n - 1) * c),
            }


def test_exceptional_iso_check_names_the_first_failing_pair(monkeypatch):
    import liepq.cli as cli

    iso = exceptional_iso(SO31_SL2C)
    doubled = iso._replace(iso_coeffs=iso.iso_coeffs.scale(2))
    monkeypatch.setattr(cli, "exceptional_iso", lambda name: doubled)
    result = cli.check_exceptional_iso(3, 1)
    assert result["status"] == "fail"
    i, j = pairwise_defect(iso.small_algebra, iso.target, doubled.iso_coeffs)
    assert result["reason"] == f"brackets disagree on pair ({i},{j})"
    singular = iso._replace(iso_coeffs=iso.iso_coeffs - iso.iso_coeffs @ _unit(6, 0, 0))
    monkeypatch.setattr(cli, "exceptional_iso", lambda name: singular)
    assert cli.check_exceptional_iso(3, 1) == {
        "status": "fail", "reason": "intertwiner is not bijective"
    }
