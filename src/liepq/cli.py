"""Command-line surface: constructions, verification suites, irrep tables.

Exit codes: 0 pass, 1 verification failure, 2 usage/domain error.
`verify` and `construct` refuse n = p + q below 2 or above MAX_N with
exit 2, and so does `verify` when `--c-list` or `--mu-list` is empty,
has an empty item or repeats a value (equal as rationals);
`irreps` refuses a rank or a dimension bound above its limits.
The checks certify each fact through one library routine: bracket
compatibility through `homomorphism_defect` or `Representation.validate`,
"A = r.B" through `proportionality`, ranks through `kernel`.  The facts
that hold for every c, or every c of one sign, come from the deformation
family's memoized certificates in `so_pq`; this module only reports them.
Reports are canonical JSON (sorted keys, checks ordered by name and
parameters) so two runs differ only in elapsed_ms.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import __version__
from .errors import ContractError, LiepqError, UnknownSmallestModuleError
from .exact_linalg import (
    Matrix,
    Subspace,
    _intertwining_defect,
    inertia_of_diagonalizable_form,
    kernel,
    proportionality,
    rat,
    rational_sqrt,
)
from .lie_core import canonical_json, homomorphism_defect, orthogonal_complement
from .rep_theory import (
    Representation,
    adjoint_rep,
    character_discrimination_test,
    constrained_form_uniqueness,
    hom_space,
    hom_space_dense,
    invariant_skew_forms,
    invariant_symmetric_forms,
    is_irreducible,
    restrict,
    wedge_square_rep,
)
from .so_pq import (
    SO31_SL2C,
    SO32_SP4R,
    SO33_SL4R,
    Signature,
    _deformation_family,
    _embedding_defect,
    _killing_block_constants,
    _so_centralizer,
    _so_maximality,
    _t1_equivariance_defect,
    deformed_algebra,
    dimension_bound,
    embedding_iso,
    exceptional_iso,
    half_spin_reps,
    ipq,
    ipq_c,
    sl2c_compact_form_vectors,
    so_of_form,
    so_pq_algebra,
    sqrt_conjugation,
    standard_rep,
    t_c,
)
from .weyl_enum import (
    enumerate_up_to_dim,
    no_simple_complex_algebra_of_dim,
    root_system,
)

# Size limit of `verify` and `construct`, so that a large signature fails
# fast instead of running for hours.  Measured with the pure-Python Fraction
# backend (Python 3.11, shared 2-core Intel Xeon, whole process,
# LIEPQ_THREADS=1, median of 7 runs): `verify --suite all` takes 0.16 s at
# n = 8, 0.42 s at n = 12 and 1.0 s at n = 16 (p = q), about 1.25x more per
# unit of n, and 1.0 s at (16,0) and 0.8 s at (0,16); `construct --c 1` takes
# about 0.22 s at n = 16, of which importing the package is about 8 ms.
MAX_N = 16

# Limits of `irreps`, so that the enumeration ends in about a second.  Each
# Weyl dimension costs O(rank^3) scalar operations, and the number of weights
# grows fastest for D2 = A1 x A1, where dim = (a+1)(b+1).  Measured the same
# way: D2 takes 1.4 s at --max-dim 1000 (7069 weights) and 19 s at 10000;
# B8 and D8 take 0.5 s at 1000, B16 takes 6 s at 10000.  Rank 8 covers so(n)
# for every n <= MAX_N + 1.
MAX_IRREPS_RANK = 8
MAX_IRREPS_DIM = 1000

SMALL_EXCLUSION_REASON = (
    "so(2,1) x so(2,1) exclusion: the maximality and deformed-bracket "
    "statements require p, q >= 1 and n = p + q >= 3"
)


# -- individual checks --------------------------------------------------
# Every check takes primitive parameters and returns a result dict with
# at least {"status": "pass" | "fail" | "skipped"}.


def _pass(**extra):
    out = {"status": "pass"}
    out.update(extra)
    return out


def _fail(**extra):
    out = {"status": "fail"}
    out.update(extra)
    return out


def _skip(reason):
    return {"status": "skipped", "reason": reason}


def _matrix_payload(m: Matrix):
    return [[str(x) for x in m.row_list(i)] for i in range(m.rows)]


def _subspace_payload(s: Subspace):
    return [[str(x) for x in row] for row in s.basis_rows()]


def check_defining_property(p, q):
    algebra = so_pq_algebra(p, q)
    form = ipq(p, q)
    for b in algebra.basis:
        if not (b.transpose() @ form + form @ b).is_zero():
            return _fail(witness=_matrix_payload(b))
    return _pass(dim=algebra.dim)


def check_theta_automorphism(p, q):
    algebra = so_pq_algebra(p, q)
    theta = algebra.theta_involution()
    if theta @ theta != Matrix.identity(algebra.dim):
        return _fail(reason="theta^2 != id")
    pair = homomorphism_defect(algebra, algebra, theta)
    if pair is not None:
        return _fail(reason="theta not an automorphism on pair ({},{})".format(*pair))
    return _pass()


def check_killing_vs_trace(p, q):
    algebra = so_pq_algebra(p, q)
    n = p + q
    killing = algebra.killing_form().gram
    trace = algebra.trace_form().gram
    if killing != trace.scale(n - 2):
        return _fail(reason="K != (n-2).Tr")
    return _pass(constant=str(n - 2))


def check_standard_form_unique(p, q):
    rep = standard_rep(p, q)
    forms = invariant_symmetric_forms(rep)
    if len(forms) != 1:
        return _fail(reason=f"expected dim 1, got {len(forms)}")
    if not proportionality(forms[0], ipq(p, q)):
        return _fail(reason="form is not a multiple of I_{p,q}")
    return _pass()


def check_hom_wedge_adjoint(p, q):
    n = p + q
    algebra = so_pq_algebra(p, q)
    std = Representation(algebra, n, list(algebra.basis))
    wedge = wedge_square_rep(std)
    adjoint = adjoint_rep(algebra)
    homs = hom_space(wedge, adjoint)
    expected = 2 if n == 4 else 1
    detail = {"dim": len(homs), "expected": expected}
    m = algebra.dim
    if m * m <= 256:
        dense = hom_space_dense(wedge, adjoint)
        if dense != homs:
            return _fail(reason="dense cross-check disagrees", **detail)
        detail["dense_checked"] = True
    if Subspace.from_vectors(m * m, homs).reduce(t_c(p, q, 1)) is None:
        return _fail(reason="t_c(1) is not in the Hom span", **detail)
    if len(homs) != expected:
        return _fail(**detail)
    return _pass(**detail)


def check_smallest_module_enum(p, q):
    n = p + q
    if n < 4:
        return _skip("complexified so(3,C) has rank 1; table starts at rank 2")
    if n == 4:
        return _skip("D2 is not simple (so(2,2) degeneracy); enumeration not claimed")
    if n % 2:
        rs = root_system("B", n // 2)
    else:
        rs = root_system("D", n // 2)
    table = enumerate_up_to_dim(rs, n)
    dims = sorted(d for _, d in table)
    expected = {
        5: [4, 5],
        6: [4, 4, 6],
        7: [7],
        8: [8, 8, 8],
    }.get(n, [n])
    if dims != expected:
        return _fail(found=dims, expected=expected)
    return _pass(found=dims)


def check_deformed_jacobi(p, q, c):
    n = p + q
    _deformation_family(p, q)  # certifies Jacobi exactly, for every rational c
    return _pass(dim=n * (n + 1) // 2)


def check_deformed_radical(p, q, c):
    dalg = deformed_algebra(p, q, c)
    semisimple = dalg.algebra.is_semisimple()
    expected = c != 0
    if semisimple != expected:
        return _fail(found=semisimple, expected=expected)
    return _pass(semisimple=semisimple)


def check_tc_equivariance(p, q, c):
    if t_c(p, q, c) != t_c(p, q, 1).scale(c):
        return _fail(reason="T_c is not c.T_1")
    x = _t1_equivariance_defect(p, q) if c else None
    if x is not None:
        return _fail(reason=f"T_c not equivariant at basis index {x}")
    return _pass()


def check_tc_iso_rank(p, q, c):
    n = p + q
    tc = t_c(p, q, c)
    rank = tc.cols - kernel(tc).dim
    expected = n * (n - 1) // 2 if c != 0 else 0
    if rank != expected:
        return _fail(found=rank, expected=expected)
    return _pass(rank=rank)


def check_embedding(p, q, c):
    """The embedding of [.,.]_c into so(R^{n+1}, I_{p,q}(c)): images in the
    target, brackets intertwined, injective.  Within one sign branch of c
    the images are P + c.Q and the form F0 + c.F1, so every defect is a
    polynomial of degree <= 2 in c: `_embedding_defect` certifies it once
    per (p, q, sign of c), every degree vanishing."""
    n = p + q
    if c == 0:
        return _skip("embedding_iso requires c != 0 (c = 0 is the semidirect product)")
    reason = _embedding_defect(p, q, c > 0)
    if reason is not None:
        return _fail(reason=reason)
    return _pass(dim=n * (n + 1) // 2)


def check_target_inertia(p, q, c):
    if c == 0:
        return _skip("I_{p,q}(c) needs c != 0")
    found = inertia_of_diagonalizable_form(ipq_c(p, q, c))
    expected = (p + 1, q, 0) if c > 0 else (p, q + 1, 0)
    if found != expected:
        return _fail(found=list(found), expected=list(expected))
    return _pass(inertia=list(found))


def check_sqrt_conjugation(p, q, c):
    n = p + q
    if c == 0:
        return _skip("needs c != 0")
    if rational_sqrt(abs(c)) is None:
        return _skip("|c| is not a perfect rational square; certified via inertia instead")
    s = sqrt_conjugation(p, q, c)
    sinv = Matrix.diagonal([1 / s[i, i] for i in range(n + 1)])
    target = ipq(p + 1, q) if c > 0 else ipq(p, q + 1)
    emb = embedding_iso(p, q, c)
    for im in emb.images:
        conj = s @ im @ sinv
        if not (conj.transpose() @ target + target @ conj).is_zero():
            return _fail(reason="sqrt conjugation left the classical so(p',q')")
    return _pass()


def check_maximality(p, q, c):
    """so(p,q) is a maximal subalgebra of [.,.]_c: H + e_idx generates the
    whole algebra for every vector index.  Certified twice per (p, q), at
    c = 0 and once for every c != 0 (`_so_maximality`)."""
    maximal, witness = _so_maximality(p, q, c != 0)
    if not maximal:
        return _fail(witness=_subspace_payload(witness))
    return _pass()


def check_centralizer(p, q, c):
    """The centralizer of so(p,q) in [.,.]_c is zero, certified once per
    (p, q) on the c-free brackets (`_so_centralizer`)."""
    cent = _so_centralizer(p, q)
    if cent.dim != 0:
        return _fail(witness=_subspace_payload(cent))
    return _pass()


def check_killing_blocks(p, q, c):
    """Killing form of the deformed algebra restricted to blocks: zero on
    the mixed block, a1 x Killing(so(p,q)) on the so block, a2 x <.,.>_{p,q}
    on the vector block, with a1, a2 nonzero.  Read once per (p, q) off the
    family's K0, K1 and K2 (`_killing_block_constants`): a1 is c-free and
    a2 = c.r1."""
    if c == 0:
        return _skip("block proportionality with nonzero constants needs c != 0")
    reason, a1, r1 = _killing_block_constants(p, q)
    if reason is not None:
        return _fail(reason=reason)
    return _pass(a1=str(a1), a2=str(c * r1))


def check_complement_irreducible(p, q, c):
    """The trace-form orthogonal complement of the embedded so(p,q) inside
    so(R^{n+1}, I_{p,q}(c)) is n-dimensional, invariant and irreducible."""
    n = p + q
    if c == 0:
        return _skip("the matrix-side pipeline needs c != 0")
    emb = embedding_iso(p, q, c)
    target = so_of_form(emb.target_form)
    coord = target.coordinatizer()
    m = n * (n - 1) // 2
    embedded = [coord.express(im) for im in emb.images[:m]]
    if any(v is None for v in embedded):
        return _fail(reason="embedded so(p,q) not inside so_of_form basis span")
    subalg = Subspace.from_vectors(target.dim, embedded)
    beta = target.trace_form()
    complement = orthogonal_complement(beta, subalg)
    if complement.dim != n:
        return _fail(reason=f"complement has dim {complement.dim}, expected {n}")
    # the first m images are so(p,q)'s frozen basis, block-embedded, so they
    # have its structure constants
    actions = [target.ad_matrix(v) for v in embedded]
    try:
        module = restrict(Representation(so_pq_algebra(p, q), target.dim, actions), complement)
    except ContractError:
        return _fail(reason="complement is not invariant")
    verdict = is_irreducible(module)
    if verdict.status != "IRREDUCIBLE":
        return _fail(reason=f"verdict {verdict.status}", endo_dim=verdict.endo_dim)
    return _pass(dim=complement.dim)


def check_character_identity(p, q, mu):
    if (p, q) != (3, 1):
        return _skip("the boost character test is specific to so(3,1)")
    report = character_discrimination_test(mu)
    if report.residual_standard != 0:
        return _fail(reason="identity fails for V = R^{3,1}")
    if report.residual_complex == 0:
        return _fail(reason="identity unexpectedly holds for V = C^2 realified")
    return _pass(
        residual_standard=str(report.residual_standard),
        residual_complex=str(report.residual_complex),
    )


def check_half_spin(p, q):
    if (p, q) != (4, 4):
        return _skip("half-spin construction exists only at signature (4,4)")
    hs = half_spin_reps(4, 4)
    eta = ipq(4, 4)
    ident = Matrix.identity(16)
    for i in range(8):
        for j in range(8):
            anti = hs.gammas[i] @ hs.gammas[j] + hs.gammas[j] @ hs.gammas[i]
            if anti != ident.scale(2 * eta[i, j]):
                return _fail(reason=f"Clifford relation fails at ({i},{j})")
    if hs.chirality @ hs.chirality != ident:
        return _fail(reason="chirality does not square to the identity")
    for a in hs.spinor_rep.actions:
        if _intertwining_defect(hs.chirality, a, hs.chirality)[0]:
            return _fail(reason="chirality does not commute with the embedded algebra")
    if hs.plus_space.dim != 8 or hs.minus_space.dim != 8:
        return _fail(reason="chiral split is not 8 + 8")
    for half in (hs.c_plus, hs.c_minus):
        half.validate()
        verdict = is_irreducible(half)
        if verdict.status != "IRREDUCIBLE":
            return _fail(reason=f"half-spin verdict {verdict.status}")
        if len(invariant_symmetric_forms(half)) != 1:
            return _fail(reason="half-spin symmetric form space is not 1-dimensional")
        if len(invariant_skew_forms(half)) != 0:
            return _fail(reason="half-spin skew form space is not trivial")
    return _pass()


def check_exceptional_iso(p, q):
    name = {(3, 1): SO31_SL2C, (3, 2): SO32_SP4R, (3, 3): SO33_SL4R}.get((p, q))
    if name is None:
        return _skip("no exceptional small-module isomorphism at this signature")
    iso = exceptional_iso(name)
    if iso.small_algebra.dim != iso.target.dim or kernel(iso.iso_coeffs).dim:
        return _fail(reason="intertwiner is not bijective")
    pair = homomorphism_defect(iso.small_algebra, iso.target, iso.iso_coeffs)
    if pair is not None:
        return _fail(reason="brackets disagree on pair ({},{})".format(*pair))
    return _pass(iso=name, scale=str(iso.scale))


def check_su2_collapse(p, q):
    if (p, q) != (3, 1):
        return _skip("the su(2)-perpendicularity collapse lives on so(3,1)")
    iso = exceptional_iso(SO31_SL2C)
    adjoint = adjoint_rep(iso.small_algebra)
    forms = invariant_symmetric_forms(adjoint)
    if len(forms) != 2:
        return _fail(reason=f"adjoint form space has dim {len(forms)}, expected 2")
    compact = Subspace.from_vectors(6, sl2c_compact_form_vectors())
    verdict = constrained_form_uniqueness(adjoint, compact)
    if verdict.solution_dim != 1:
        return _fail(reason=f"constrained space has dim {verdict.solution_dim}")
    if verdict.killing_ratio is None or verdict.killing_ratio == 0:
        return _fail(reason="surviving form is not a nonzero multiple of the Killing form")
    return _pass(killing_ratio=str(verdict.killing_ratio))


def check_dimension_bound(p, q):
    try:
        bound = dimension_bound(p, q)
    except UnknownSmallestModuleError as exc:
        return _skip(str(exc))
    n = p + q
    expected_m = 3 if (p, q) == (2, 2) else n
    if bound.smallest_module != expected_m:
        return _fail(found=bound.smallest_module, expected=expected_m)
    if bound.dim_group != n * (n - 1) // 2 or bound.total != bound.dim_group + bound.smallest_module:
        return _fail(reason="bound arithmetic is inconsistent")
    return _pass(dim_group=bound.dim_group, m=bound.smallest_module, total=bound.total)


def check_simple_dim_scan(p, q):
    expectations = {
        5: [],
        18: [],
        10: ["B2", "C2"],
        36: ["B4", "C4"],
    }
    for d, expected in expectations.items():
        absent, candidates = no_simple_complex_algebra_of_dim(d)
        labels = sorted(f"{t}{r}" for t, r, _ in candidates if r is not None)
        labels += sorted(t for t, r, _ in candidates if r is None)
        if labels != expected or absent != (not expected):
            return _fail(dimension=d, found=labels, expected=expected)
    return _pass()


# The check registry, in suite order: name -> (function, suite, extra
# parameter).  Every check takes p and q; the extra parameter, when named,
# runs once per value of its list ("c" from --c-list, "mu" from --mu-list)
# and reaches the check as a rational.
CHECKS = {
    "defining_property": (check_defining_property, "appendix", None),
    "theta_automorphism": (check_theta_automorphism, "appendix", None),
    "killing_vs_trace": (check_killing_vs_trace, "appendix", None),
    "standard_form_unique": (check_standard_form_unique, "appendix", None),
    "hom_wedge_adjoint": (check_hom_wedge_adjoint, "appendix", None),
    "smallest_module_enum": (check_smallest_module_enum, "appendix", None),
    "deformed_jacobi": (check_deformed_jacobi, "appendix", "c"),
    "deformed_radical": (check_deformed_radical, "appendix", "c"),
    "tc_equivariance": (check_tc_equivariance, "appendix", "c"),
    "tc_iso_rank": (check_tc_iso_rank, "appendix", "c"),
    "embedding_iso": (check_embedding, "appendix", "c"),
    "target_inertia": (check_target_inertia, "appendix", "c"),
    "sqrt_conjugation": (check_sqrt_conjugation, "appendix", "c"),
    "maximality": (check_maximality, "appendix", "c"),
    "centralizer_trivial": (check_centralizer, "appendix", "c"),
    "killing_blocks": (check_killing_blocks, "appendix", "c"),
    "complement_irreducible": (check_complement_irreducible, "appendix", "c"),
    "character_identity": (check_character_identity, "section2", "mu"),
    "half_spin": (check_half_spin, "section2", None),
    "exceptional_iso": (check_exceptional_iso, "section2", None),
    "su2_perp_collapse": (check_su2_collapse, "section2", None),
    "dimension_bound": (check_dimension_bound, "section2", None),
    "simple_dim_scan": (check_simple_dim_scan, "section2", None),
}

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
    Every check in c is skipped below n = 3 (SMALL_EXCLUSION_REASON)."""
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
    except LiepqError as exc:
        result = _fail(reason=f"{type(exc).__name__}: {exc}")
    result["elapsed_ms"] = round((time.perf_counter() - start) * 1000, 3)
    return name, params, result


def _run_job(job):
    return run_check(*job)


def _worker_count(n_jobs):
    """The suite runner's process count: LIEPQ_THREADS (default 1), refused
    unless it is an integer >= 1, and at most the job count and the CPU count."""
    text = os.environ.get("LIEPQ_THREADS", "1") or "1"
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ContractError(f"LIEPQ_THREADS must be an integer >= 1, got {text!r}")
    return min(value, n_jobs, os.cpu_count() or 1)


def run_suite(suite, p, q, c_list, mu_list):
    jobs = build_suite(suite, p, q, c_list, mu_list)
    workers = _worker_count(len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_job, jobs))
    else:
        results = [run_check(name, params) for name, params in jobs]
    checks = []
    for name, params, result in results:
        entry = {"name": name, "params": params}
        entry.update(result)
        checks.append(entry)
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


def _rat_list(flag, text):
    """The comma-separated rational tokens of a list flag, as given.

    An empty list is refused, and so are an empty item and a value equal
    as a rational to an earlier one: either would silently drop a check or
    run one twice.
    """
    items = [t.strip() for t in text.split(",")]
    if not any(items):
        raise ContractError(f"{flag} needs at least one rational value")
    seen = {}
    for pos, t in enumerate(items, 1):
        if not t:
            raise ContractError(f"{flag}: item {pos} of {text!r} is empty")
        value = rat(t)  # validates syntax; floats are rejected
        if value in seen:
            raise ContractError(f"{flag}: {t!r} repeats the value of {seen[value]!r}")
        seen[value] = t
    return items


def build_parser():
    parser = argparse.ArgumentParser(
        prog="liepq",
        description="Exact certificates for so(p,q) constructions and their "
        "representation-theoretic facts.",
    )
    parser.add_argument("--version", action="version", version=f"liepq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    construct = sub.add_parser("construct", help="emit a (deformed) algebra as JSON")
    construct.add_argument("--p", type=int, required=True)
    construct.add_argument("--q", type=int, required=True)
    construct.add_argument("--c", type=str, default=None, help="rational 'a/b', nonzero optional")
    construct.add_argument("--format", choices=("json", "human"), default="json")

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--suite", choices=("appendix", "section2", "all"), required=True)
    verify.add_argument("--p", type=int, required=True)
    verify.add_argument("--q", type=int, required=True)
    verify.add_argument("--c-list", type=str, default=",".join(DEFAULT_C_LIST))
    verify.add_argument("--mu-list", type=str, default=",".join(DEFAULT_MU_LIST))
    verify.add_argument("--format", choices=("json", "tsv", "human"), default="json")

    irreps = sub.add_parser("irreps", help="dominant weights up to a dimension bound")
    irreps.add_argument("--type", choices=("B", "D"), required=True)
    irreps.add_argument("--rank", type=int, required=True)
    irreps.add_argument("--max-dim", type=int, required=True)
    irreps.add_argument("--format", choices=("tsv", "json", "human"), default="tsv")

    bound = sub.add_parser("bound", help="dim G, m(so(p,q)) and their sum")
    bound.add_argument("--p", type=int, required=True)
    bound.add_argument("--q", type=int, required=True)
    bound.add_argument("--format", choices=("human", "json", "tsv"), default="human")
    return parser


def _signature_within_limit(p, q) -> Signature:
    """The signature of so(p,q), refused below n = 2 and above MAX_N."""
    signature = Signature(p, q)
    if signature.n > MAX_N:
        raise ContractError(
            f"p + q = {signature.n} exceeds the size limit n <= {MAX_N}"
        )
    if signature.n < 2:
        raise ContractError("so(p,q) needs p + q >= 2")
    return signature


def cmd_construct(args) -> int:
    _signature_within_limit(args.p, args.q)
    if args.c is not None:
        c = rat(args.c)
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
    for mu in mu_list:
        value = rat(mu)
        if value <= 0 or value == 1:
            raise ContractError(f"--mu-list: mu must be positive and different from 1, got {mu}")
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
        raise ContractError(
            f"--rank {args.rank} exceeds the size limit rank <= {MAX_IRREPS_RANK}"
        )
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
    except (LiepqError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
