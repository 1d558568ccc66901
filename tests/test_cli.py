import json
import re
import subprocess
import sys

from liepq.cli import main, run_suite


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
    for token in ("1/0", "1/-2"):
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


def test_verify_appendix_builds_each_deformed_algebra_twice(monkeypatch):
    """One build inside check_deformed_jacobi, one shared by the other
    appendix checks, per c."""
    import liepq.cli as cli

    monkeypatch.setenv("LIEPQ_THREADS", "1")
    cli._shared_deformed_algebra.cache_clear()
    calls = []
    real = cli.deformed_algebra
    monkeypatch.setattr(
        cli, "deformed_algebra", lambda p, q, c: calls.append(c) or real(p, q, c)
    )
    try:
        report = run_suite("appendix", 3, 1, ["2", "0", "-1/2"], [])
    finally:
        cli._shared_deformed_algebra.cache_clear()
    assert report["overall"] == "pass"
    assert sorted(str(c) for c in calls) == ["-1/2", "-1/2", "0", "0", "2", "2"]
