"""The checks of `liepq verify` and their registry.

Each check certifies one fact through one library routine: bracket
compatibility through `rep_theory._bracket_defect` (`_map_defect`,
`Representation.validate`), "A = r.B" through `proportionality`, ranks
through `kernel`.  The facts that hold for every c, or every c of one
sign, are facts of the one record per signature in `so_pq` (`_family`);
this module only reports them.  Every check takes p, q and,
when `CHECKS` names one, an extra rational parameter, and returns a result
dict with at least {"status": "pass" | "fail" | "skipped"}.
"""

from __future__ import annotations

from .errors import UnknownSmallestModuleError
from .exact_linalg import (
    Matrix,
    Subspace,
    _intertwining_defect,
    inertia_of_diagonalizable_form,
    kernel,
    proportionality,
)
from .rep_theory import (
    _map_defect,
    adjoint_rep,
    character_discrimination_test,
    constrained_form_uniqueness,
    hom_space,
    hom_space_dense,
    invariant_skew_forms,
    invariant_symmetric_forms,
    is_irreducible,
    wedge_square_rep,
)
from .so_pq import (
    SO31_SL2C,
    SO32_SP4R,
    SO33_SL4R,
    _family,
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
from .weyl_enum import enumerate_up_to_dim, no_simple_complex_algebra_of_dim, root_system


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
    pair = _map_defect(algebra, algebra, theta)
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
    wedge = wedge_square_rep(standard_rep(p, q))
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
    _family(p, q).jacobi  # certifies Jacobi exactly, for every rational c, or raises
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
    x = _family(p, q).t1_equivariance_defect if c else None
    if x is not None:
        return _fail(reason=f"T_c not equivariant at basis index {x}")
    return _pass()


def check_tc_iso_rank(p, q, c):
    """rank T_c, n(n-1)/2 for c != 0 and 0 at c = 0: T_c = c.T_1 is checked
    at each c, and rank T_1 is computed once per (p, q) (`_Family.t1_rank`)."""
    n = p + q
    if t_c(p, q, c) != t_c(p, q, 1).scale(c):
        return _fail(reason="T_c is not c.T_1")
    rank = _family(p, q).t1_rank if c else 0
    expected = n * (n - 1) // 2 if c != 0 else 0
    if rank != expected:
        return _fail(found=rank, expected=expected)
    return _pass(rank=rank)


def check_embedding(p, q, c):
    """The embedding of [.,.]_c into so(R^{n+1}, I_{p,q}(c)): images in the
    target, brackets intertwined, injective.  Within one sign branch of c
    the images are P + c.Q and the form F0 + c.F1, so every defect is a
    polynomial of degree <= 2 in c: (E), `_Family.embedding_defect`,
    certifies it once per (p, q, sign of c), every degree vanishing."""
    n = p + q
    if c == 0:
        return _skip("embedding_iso requires c != 0 (c = 0 is the semidirect product)")
    reason = _family(p, q).embedding_defect(c > 0)
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
    """For a perfect-square |c|, S.rho_c.S^{-1} lies in so(J), J = I_{p+1,q}
    (c > 0) or I_{p,q+1} (c < 0), S = `sqrt_conjugation`: when S.J.S = F =
    I_{p,q}(c), A = S.rho.S^{-1} has A^t.J + J.A = S^{-1}.(rho^t.F + F.rho).S^{-1},
    which is zero by (E) (`_Family.embedding_defect`)."""
    if c == 0:
        return _skip("needs c != 0")
    s = sqrt_conjugation(p, q, c)
    if s is None:
        return _skip("|c| is not a perfect rational square; certified via inertia instead")
    target = ipq(p + 1, q) if c > 0 else ipq(p, q + 1)
    if s @ target @ s != embedding_iso(p, q, c).target_form:
        return _fail(reason="S.J.S is not I_{p,q}(c)")
    reason = _family(p, q).embedding_defect(c > 0)
    return _pass() if reason is None else _fail(reason=reason)


def check_maximality(p, q, c):
    """so(p,q) is a maximal subalgebra of [.,.]_c: H + e_idx generates the
    whole algebra for every vector index.  Certified twice per (p, q), at
    c = 0 and once for every c != 0 (`_Family.maximality`)."""
    maximal, witness = _family(p, q).maximality(c != 0)
    if not maximal:
        return _fail(witness=_subspace_payload(witness))
    return _pass()


def check_centralizer(p, q, c):
    """The centralizer of so(p,q) in [.,.]_c is zero, certified once per
    (p, q) on the c-free brackets (`_Family.centralizer`)."""
    cent = _family(p, q).centralizer
    if cent.dim != 0:
        return _fail(witness=_subspace_payload(cent))
    return _pass()


def check_killing_blocks(p, q, c):
    """Killing form of the deformed algebra restricted to blocks: zero on
    the mixed block, a1 x Killing(so(p,q)) on the so block, a2 x <.,.>_{p,q}
    on the vector block, with a1, a2 nonzero.  Read once per (p, q) off the
    family's K0, K1 and K2 (`_Family.killing_blocks`): a1 is c-free and
    a2 = c.r1."""
    if c == 0:
        return _skip("block proportionality with nonzero constants needs c != 0")
    reason, a1, r1 = _family(p, q).killing_blocks
    if reason is not None:
        return _fail(reason=reason)
    return _pass(a1=str(a1), a2=str(c * r1))


def check_complement_irreducible(p, q, c):
    """The trace-form orthogonal complement of the embedded so(p,q) inside
    T = so(R^{n+1}, I_{p,q}(c)) is n-dimensional, invariant and irreducible.
    The only work at c is dim T = m + n, m = dim so(p,q); given that, the
    certified embedding, the standard action of so on the vectors and the
    irreducibility of R^{p,q} prove it once per sign of c
    (`_Family.complement_defect`)."""
    n = p + q
    if c == 0:
        return _skip("the matrix-side pipeline needs c != 0")
    dim, expected = so_of_form(ipq_c(p, q, c)).dim, n * (n + 1) // 2
    if dim != expected:
        return _fail(reason=f"so(R^{{n+1}}, I_{{p,q}}(c)) has dim {dim}, expected {expected}")
    reason = _family(p, q).complement_defect(c > 0)
    if reason is not None:
        return _fail(reason=reason)
    return _pass(dim=n)


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
        for j in range(i, 8):  # the anticommutator is symmetric in i and j
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
    pair = _map_defect(iso.small_algebra, iso.target, iso.iso_coeffs)
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
