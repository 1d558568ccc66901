"""Command-line surface: constructions, verification suites, irrep tables.

Exit codes: 0 pass, 1 verification failure, 2 usage/domain error.
`verify` and `construct` refuse n = p + q below 2 or above MAX_N with
exit 2, and so does `verify` when `--c-list` or `--mu-list` is empty,
has an empty item or repeats a value (equal as rationals); a rational
token (`--c`, or an item of `--c-list` or `--mu-list`) whose numerator or
denominator has more than MAX_RAT_DIGITS digits is refused with exit 2
before any check runs, and so is an integer flag of more digits (a usage
error); `irreps` refuses a rank or a dimension bound above its limits.
Only a `LiepqError` from the arguments exits 2: any exception inside a
check fails that check, its reason led by the exception's type name, and
the report still prints (exit 1).
`verify` runs the checks of `liepq.checks`, one after another.
Reports are canonical JSON (sorted keys, checks ordered by name and
parameters) so two runs differ only in elapsed_ms.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import __version__
from .checks import CHECKS, _fail, _skip
from .errors import ContractError, LiepqError
from .exact_linalg import rat
from .lie_core import canonical_json
from .so_pq import Signature, deformed_algebra, dimension_bound, so_pq_algebra
from .weyl_enum import enumerate_up_to_dim, root_system

# Size limit of `verify` and `construct`, so that a large signature fails
# fast instead of running for hours.  Measured with the pure-Python Fraction
# backend (Python 3.11, shared 2-core Intel Xeon, whole process, median of 3
# runs): `verify --suite all` takes 0.13 s at n = 8, 0.18 s at n = 12 and
# 0.33 s at n = 16 (p = q), about 1.12x more per unit of n, and 0.39 s at
# (16,0) and 0.41 s at (0,16); `construct --c 1` takes about 0.17 s at
# n = 16, of which importing the package is about 40 ms.  With peak RSS
# (median of 3): 0.26 s and 22 MB at (8,8); past the limit, with MAX_N
# raised, 2.7 s and 60 MB at (16,16) and 5.3 s and 102 MB at (20,20).
MAX_N = 16

# Size limit of a rational token, on its numerator and its denominator each,
# and of an integer flag's digits.  Reports print values such as a2 = c.r1
# and the character residuals, which grow to four times mu's digits, and
# `bound` prints n(n-1)/2, twice the digits of p + q; at 1000 digits every
# one stays below Python's 4300-digit limit on int-to-str conversion, so
# every accepted token gives a printable report.
MAX_RAT_DIGITS = 1000

# Limits of `irreps`.  Each Weyl dimension is one closed-form product of
# O(rank^2) integer operations; the number of weights grows fastest for
# D2 = A1 x A1, where dim = (a+1)(b+1).  Measured the same way: D2 takes
# 0.14 s at --max-dim 1000 (7068 weights; 1.4 s in process at 10000), B8
# 0.08 s and D8 0.07 s.  Rank 8 covers so(n) for every n <= MAX_N + 1.
MAX_IRREPS_RANK = 8
MAX_IRREPS_DIM = 1000

SMALL_EXCLUSION_REASON = (
    "so(2,1) x so(2,1) exclusion: the maximality and deformed-bracket "
    "statements require p, q >= 1 and n = p + q >= 3"
)

DEFAULT_C_LIST = ["-2", "-1", "-1/2", "0", "1/2", "1", "2"]
DEFAULT_MU_LIST = ["3/2", "2", "3"]


def build_suite(suite, p, q, c_list, mu_list):
    values = {"c": c_list, "mu": mu_list}
    jobs = []
    for name, (_, part, extra) in CHECKS.items():
        if suite not in (part, "all"):
            continue
        if extra is None:
            jobs.append((name, {"p": p, "q": q}))
        else:
            jobs.extend((name, {"p": p, "q": q, extra: v}) for v in values[extra])
    return jobs


def run_check(name, params):
    """Run one check on its parameters, with the extra value as a rational.
    Every check in c is skipped below n = 3 (SMALL_EXCLUSION_REASON).  Any
    exception a check raises fails it, its reason led by the type name."""
    fn, _, extra = CHECKS[name]
    p, q = params["p"], params["q"]
    start = time.perf_counter()
    try:
        if extra is None:
            result = fn(p, q)
        elif extra == "c" and p + q < 3:
            result = _skip(SMALL_EXCLUSION_REASON)
        else:
            result = fn(p, q, rat(params[extra]))
    except Exception as exc:
        result = _fail(reason=f"{type(exc).__name__}: {exc}")
    result["elapsed_ms"] = round((time.perf_counter() - start) * 1000, 3)
    return name, params, result


def run_suite(suite, p, q, c_list, mu_list):
    checks = []
    for job in build_suite(suite, p, q, c_list, mu_list):
        name, params, result = run_check(*job)
        checks.append({"name": name, "params": params, **result})
    checks.sort(key=lambda e: (e["name"], canonical_json(e["params"])))
    overall = "pass" if all(c["status"] != "fail" for c in checks) else "fail"
    return {
        "schema": "liepq-report/1",
        "tool_version": __version__,
        "parameters": {
            "suite": suite,
            "p": p,
            "q": q,
            "c_list": list(c_list),
            "mu_list": list(mu_list),
        },
        "checks": checks,
        "overall": overall,
    }


# -- argument handling --------------------------------------------------


def _rat_token(flag, token):
    """The value of a rational token, refused when its numerator or its
    denominator has more than MAX_RAT_DIGITS digits."""
    for part in token.strip().lstrip("+-").split("/"):
        if len(part) > MAX_RAT_DIGITS:
            raise ContractError(
                f"{flag}: a numerator or denominator of {len(part)} characters exceeds "
                f"the size limit of {MAX_RAT_DIGITS} digits"
            )
    return rat(token)  # validates syntax; floats are rejected


def _rat_list(flag, text):
    """The comma-separated rational tokens of a list flag, as given.

    An empty list is refused, and so are an empty item and a value equal
    as a rational to an earlier one: either would silently drop a check or
    run one twice.  So is an oversize token (`_rat_token`).
    """
    items = [t.strip() for t in text.split(",")]
    if not any(items):
        raise ContractError(f"{flag} needs at least one rational value")
    seen = {}
    for pos, t in enumerate(items, 1):
        if not t:
            raise ContractError(f"{flag}: item {pos} is empty")
        value = _rat_token(flag, t)
        if value in seen:
            raise ContractError(f"{flag}: item {pos} repeats item {seen[value]}")
        seen[value] = pos
    return items


def _integer(text):
    """An integer flag's value: ASCII digits after an optional sign, as in the
    rational tokens (int() alone also reads other digits and underscores),
    at most MAX_RAT_DIGITS of them."""
    digits = text.lstrip("+-")
    if not (text.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid integer value: {text!r}")
    if len(digits) > MAX_RAT_DIGITS:
        raise argparse.ArgumentTypeError(
            f"invalid integer value: {len(digits)} digits exceed the size limit "
            f"of {MAX_RAT_DIGITS} digits"
        )
    return int(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="liepq",
        description="Exact certificates for so(p,q) constructions and their "
        "representation-theoretic facts.",
    )
    parser.add_argument("--version", action="version", version=f"liepq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    construct = sub.add_parser("construct", help="emit a (deformed) algebra as JSON")
    construct.add_argument("--p", type=_integer, required=True)
    construct.add_argument("--q", type=_integer, required=True)
    construct.add_argument("--c", type=str, default=None, help="rational 'a/b', nonzero optional")
    construct.add_argument("--format", choices=("json", "human"), default="json")

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--suite", choices=("appendix", "section2", "all"), required=True)
    verify.add_argument("--p", type=_integer, required=True)
    verify.add_argument("--q", type=_integer, required=True)
    verify.add_argument("--c-list", type=str, default=",".join(DEFAULT_C_LIST))
    verify.add_argument("--mu-list", type=str, default=",".join(DEFAULT_MU_LIST))
    verify.add_argument("--format", choices=("json", "tsv", "human"), default="json")

    irreps = sub.add_parser("irreps", help="dominant weights up to a dimension bound")
    irreps.add_argument("--type", choices=("B", "D"), required=True)
    irreps.add_argument("--rank", type=_integer, required=True)
    irreps.add_argument("--max-dim", type=_integer, required=True)
    irreps.add_argument("--format", choices=("tsv", "json", "human"), default="tsv")

    bound = sub.add_parser("bound", help="dim G, m(so(p,q)) and their sum")
    bound.add_argument("--p", type=_integer, required=True)
    bound.add_argument("--q", type=_integer, required=True)
    bound.add_argument("--format", choices=("human", "json", "tsv"), default="human")
    return parser


def _too_large(what, value, limit):
    """The usage error for an integer past its limit; past 20 digits it names
    the digit count, as `_integer` does, instead of echoing the value."""
    shown = f"= {value}" if abs(value) < 10**20 else f"has {len(str(abs(value)))} digits and"
    return ContractError(f"{what} {shown} exceeds the size limit {limit}")


def _signature_within_limit(p, q) -> Signature:
    """The signature of so(p,q), refused below n = 2 and above MAX_N."""
    signature = Signature(p, q)
    if signature.n > MAX_N:
        raise _too_large("p + q", signature.n, f"n <= {MAX_N}")
    if signature.n < 2:
        raise ContractError("so(p,q) needs p + q >= 2")
    return signature


def cmd_construct(args) -> int:
    _signature_within_limit(args.p, args.q)
    if args.c is not None:
        c = _rat_token("--c", args.c)
        if c == 0:
            raise ContractError("--c must be nonzero; omit it for plain so(p,q)")
        payload = deformed_algebra(args.p, args.q, c).to_json_dict()
    else:
        payload = so_pq_algebra(args.p, args.q).to_json_dict()
    if args.format == "human":
        kind = "deformed so(p,q) (+) R^{p,q}" if args.c is not None else "so(p,q)"
        print(f"{kind} with (p, q) = ({args.p}, {args.q}); dim = {payload['dim']}")
    else:
        print(canonical_json(payload))
    return 0


def cmd_verify(args) -> int:
    _signature_within_limit(args.p, args.q)
    c_list = _rat_list("--c-list", args.c_list)
    mu_list = _rat_list("--mu-list", args.mu_list)
    for pos, mu in enumerate(mu_list, 1):
        value = rat(mu)
        if value <= 0 or value == 1:
            raise ContractError(f"--mu-list: item {pos}: mu must be positive and different from 1")
    report = run_suite(args.suite, args.p, args.q, c_list, mu_list)
    if args.format == "human":
        for check in report["checks"]:
            line = f"[{check['status']:>7}] {check['name']} {canonical_json(check['params'])}"
            if check["status"] == "skipped":
                line += f"  ({check['reason']})"
            print(line)
        print(f"overall: {report['overall']}")
    elif args.format == "tsv":
        for check in report["checks"]:
            print(
                "\t".join(
                    [
                        check["name"],
                        canonical_json(check["params"]),
                        check["status"],
                        check.get("reason", ""),
                    ]
                )
            )
        print(f"# overall\t{report['overall']}")
    else:
        print(canonical_json(report))
    return 0 if report["overall"] == "pass" else 1


def cmd_irreps(args) -> int:
    if args.rank > MAX_IRREPS_RANK:
        raise _too_large("--rank", args.rank, f"rank <= {MAX_IRREPS_RANK}")
    if not 1 <= args.max_dim <= MAX_IRREPS_DIM:
        raise ContractError(f"--max-dim must be between 1 and {MAX_IRREPS_DIM}")
    rs = root_system(args.type, args.rank)
    table = enumerate_up_to_dim(rs, args.max_dim)
    rows = [
        (args.type, args.rank, " ".join(str(c) for c in weight.coords), dim)
        for weight, dim in table
    ]
    if args.format == "json":
        payload = {
            "type": args.type,
            "rank": args.rank,
            "max_dim": args.max_dim,
            "flag": rs.flag,
            "rows": [
                {"weight": row[2], "dim": row[3]} for row in rows
            ],
        }
        print(canonical_json(payload))
    elif args.format == "human":
        if rs.flag:
            print(f"NOTE: {rs.flag}")
        for row in rows:
            print(f"{row[0]}{row[1]}  weight ({row[2]})  dim {row[3]}")
        print(f"{len(rows)} weight(s) with dim <= {args.max_dim}")
    else:
        if rs.flag:
            print(f"# NOTE: {rs.flag}")
        for row in rows:
            print("\t".join(str(x) for x in row))
    return 0


def cmd_bound(args) -> int:
    bound = dimension_bound(args.p, args.q)
    note = None
    if (args.p, args.q) == (2, 2):
        note = "m(so(2,2)) = 3 via the so(2,1) factor acting on R^{2,1}"
    if args.format == "json":
        payload = {
            "p": args.p,
            "q": args.q,
            "dim_group": bound.dim_group,
            "m": bound.smallest_module,
            "total": bound.total,
        }
        if note:
            payload["note"] = note
        print(canonical_json(payload))
    elif args.format == "tsv":
        print(f"{args.p}\t{args.q}\t{bound.dim_group}\t{bound.smallest_module}\t{bound.total}")
        if note:
            print(f"# NOTE: {note}")
    else:
        print(
            f"dim G = {bound.dim_group}, m(so({args.p},{args.q})) = "
            f"{bound.smallest_module}, dim G + m = {bound.total}"
        )
        if note:
            print(f"NOTE: {note}")
    return 0


def _merge_list_flags(argv):
    """Join '--c-list -2,-1' into '--c-list=-2,-1', and '--c -3/4' into
    '--c=-3/4', so leading minus signs in rationals are not mistaken for
    option strings."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--c", "--c-list", "--mu-list") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_list_flags(list(argv)))
    handlers = {
        "construct": cmd_construct,
        "verify": cmd_verify,
        "irreps": cmd_irreps,
        "bound": cmd_bound,
    }
    try:
        return handlers[args.command](args)
    except LiepqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
