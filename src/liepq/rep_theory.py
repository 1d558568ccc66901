"""Module-level computations: Hom spaces, invariant forms, irreducibility,
induced actions, and the boost-family character test.

Hom spaces are cut out by the exact linear system
phi . rho_V(x) = rho_W(x) . phi for every basis element x.  When some basis
elements act diagonalizably with rational eigenvalues on both modules, the
solver starts from the joint eigenspaces of a pool of pairwise-commuting such
elements (an intertwiner maps each joint eigenspace of V into the one of W
with the same eigenvalues) and then intersects with the constraint kernels;
otherwise it starts from all of Hom(V, W).  Both paths return the same
canonical (reduced-echelon) basis.  `rational_eigensplit` rejects most
non-splitting elements by the sign of tr(a^2) before any minimal polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractError, FactorizationCapExceeded, NotStableError, ShapeMismatchError
from .exact_linalg import (
    Echelon,
    Matrix,
    NO_SOLUTION,
    ONE,
    Rational,
    Subspace,
    ZERO,
    invert,
    kernel,
    mat_mul,
    mat_vec,
    rat,
    rational_sqrt,
    rref,
    solve_linear,
    wedge_square_index,
)
from .lie_core import LieAlgebra
from .ratpoly import char_poly, factor_poly, min_poly, poly_eval_matrix, rational_roots

_DENSE_HOM_CAP = 4096  # unknown-count bound for the stacked fallback solver


class Representation:
    """A LieAlgebra together with one action matrix per basis element."""

    __slots__ = ("algebra", "module_dim", "actions")

    def __init__(self, algebra: LieAlgebra, module_dim: int, actions):
        actions = list(actions)
        if len(actions) != algebra.dim:
            raise ShapeMismatchError("one action matrix per basis element required")
        for a in actions:
            if a.rows != module_dim or a.cols != module_dim:
                raise ShapeMismatchError("action matrices must be module_dim square")
        self.algebra = algebra
        self.module_dim = module_dim
        self.actions = actions

    def validate(self):
        """Check the homomorphism property on every basis pair exactly."""
        d = self.algebra.dim
        for i in range(d):
            ai = self.actions[i]
            for j in range(i + 1, d):
                aj = self.actions[j]
                comm = mat_mul(ai, aj) - mat_mul(aj, ai)
                expected = Matrix.zeros(self.module_dim, self.module_dim)
                for k, c in self.algebra.structure_entry(i, j).items():
                    expected = expected + self.actions[k].scale(c)
                if comm != expected:
                    raise ContractError(
                        f"homomorphism property fails on basis pair ({i},{j})"
                    )

    def __repr__(self):
        return f"Representation(dim {self.module_dim} of algebra dim {self.algebra.dim})"


def adjoint_rep(algebra: LieAlgebra) -> Representation:
    return Representation(
        algebra, algebra.dim, [algebra.ad_basis_matrix(i) for i in range(algebra.dim)]
    )


def dual_rep(v: Representation) -> Representation:
    """Dual module via x -> -action(x)^t."""
    return Representation(
        v.algebra, v.module_dim, [(-a).transpose() for a in v.actions]
    )


def wedge_square_rep(v: Representation) -> Representation:
    """Induced action on wedge^2 of the module, in the lexicographic basis."""
    n = v.module_dim
    pairs = wedge_square_index(n)
    index = {p: r for r, p in enumerate(pairs)}
    m = len(pairs)
    actions = []
    for a in v.actions:
        out = Matrix.zeros(m, m)
        for col, (i, j) in enumerate(pairs):
            # x.(e_i ^ e_j) = (x e_i) ^ e_j + e_i ^ (x e_j)
            for k in range(n):
                c = a[k, i]
                if c and k != j:
                    row, sign = (index[(k, j)], ONE) if k < j else (index[(j, k)], -ONE)
                    out.entries[row * m + col] += sign * c
                c = a[k, j]
                if c and k != i:
                    row, sign = (index[(i, k)], ONE) if i < k else (index[(k, i)], -ONE)
                    out.entries[row * m + col] += sign * c
        actions.append(out)
    return Representation(v.algebra, m, actions)


def direct_sum(v: Representation, w: Representation) -> Representation:
    _require_same_algebra(v, w)
    n, m = v.module_dim, w.module_dim
    actions = []
    for a, b in zip(v.actions, w.actions):
        out = Matrix.zeros(n + m, n + m)
        for i in range(n):
            for j in range(n):
                out.entries[i * (n + m) + j] = a[i, j]
        for i in range(m):
            for j in range(m):
                out.entries[(n + i) * (n + m) + (n + j)] = b[i, j]
        actions.append(out)
    return Representation(v.algebra, n + m, actions)


def restrict(v: Representation, subspace: Subspace) -> Representation:
    """Restriction to an invariant subspace, in the subspace's canonical basis."""
    if subspace.ambient_dim != v.module_dim:
        raise ShapeMismatchError("subspace lives in the wrong module")
    cols = subspace.basis_rows()
    k = len(cols)
    b = Matrix.from_rows([[cols[j][i] for j in range(k)] for i in range(v.module_dim)])
    actions = []
    for a in v.actions:
        sol, ker = solve_linear(b, mat_mul(a, b))
        if sol is NO_SOLUTION:
            raise ContractError("subspace is not invariant under the action")
        actions.append(sol)
    return Representation(v.algebra, k, actions)


def _require_same_algebra(v: Representation, w: Representation):
    av, aw = v.algebra, w.algebra
    if av is aw:
        return
    if av.dim != aw.dim or av.structure != aw.structure:
        raise ContractError("representations are over different algebras")


# -- Hom-space solver -------------------------------------------------


def hom_space(v: Representation, w: Representation):
    """Canonical basis of Hom_g(V, W) = {phi : phi rho_V(x) = rho_W(x) phi}."""
    _require_same_algebra(v, w)
    n, m = v.module_dim, w.module_dim
    if n == 0 or m == 0:
        return []
    maps = _initial_hom_basis(v, w)
    for a in range(v.algebra.dim):
        if not maps:
            return []
        av, aw = v.actions[a], w.actions[a]
        images = [mat_mul(aw, phi) - mat_mul(phi, av) for phi in maps]
        if all(img.is_zero() for img in images):
            continue
        coeff_cols = [img.entries for img in images]
        system = Matrix(
            m * n,
            len(maps),
            [coeff_cols[c][r] for r in range(m * n) for c in range(len(maps))],
        )
        ker = kernel(system)
        maps = [_combine_maps(maps, coeffs, m, n) for coeffs in ker.basis_rows()]
    rows, _ = rref([list(phi.entries) for phi in maps])
    return [Matrix(m, n, r) for r in rows]


def hom_space_dense(v: Representation, w: Representation):
    """Brute-force variant: one stacked kernel on the full intertwiner system.

    Used as an independent cross-check on small modules.
    """
    _require_same_algebra(v, w)
    n, m = v.module_dim, w.module_dim
    if m * n > _DENSE_HOM_CAP:
        raise ContractError("dense hom solver capped; use hom_space")
    rows = []
    for a in range(v.algebra.dim):
        av, aw = v.actions[a], w.actions[a]
        # row index (i, j) of T(phi) = aw.phi - phi.av; unknowns phi[k, l]
        for i in range(m):
            for j in range(n):
                row = [ZERO] * (m * n)
                for k in range(m):
                    c = aw[i, k]
                    if c:
                        row[k * n + j] += c
                for l in range(n):
                    c = av[l, j]
                    if c:
                        row[i * n + l] -= c
                rows.append(row)
    ker = kernel(Matrix.from_rows(rows)) if rows else Subspace.full(m * n)
    return [Matrix(m, n, r) for r in ker.basis_rows()]


def _combine_rows(coeffs, rows):
    out = [ZERO] * len(rows[0])
    for c, r in zip(coeffs, rows):
        if c:
            out = [x + c * y for x, y in zip(out, r)]
    return out


def _combine_maps(maps, coeffs, m, n):
    return Matrix(m, n, _combine_rows(coeffs, [phi.entries for phi in maps]))


def _initial_hom_basis(v, w):
    split = _find_splitting_element(v, w)
    if split is not None:
        return split
    n, m = v.module_dim, w.module_dim
    if m * n > _DENSE_HOM_CAP:
        raise ContractError(
            "no rational-split element found and module pair is too large "
            "for the dense fallback"
        )
    maps = []
    for i in range(m):
        for j in range(n):
            phi = Matrix.zeros(m, n)
            phi.entries[i * n + j] = ONE
            maps.append(phi)
    return maps


def rational_eigensplit(a: Matrix):
    """Eigenspace decomposition when `a` is diagonalizable over Q, else None.

    A matrix diagonalizable over Q has real eigenvalues, so tr(a^2) is their
    sum of squares: negative rules it out, and so does zero unless a = 0.
    That O(n^2) test runs before the minimal polynomial.
    """
    n = a.rows
    e = a.entries
    tr2 = ZERO
    for idx, x in enumerate(e):
        if x:
            i, j = divmod(idx, n)
            y = e[j * n + i]
            if y:
                tr2 += x * y
    if tr2 < 0 or (tr2 == 0 and any(e)):
        return None
    mp = min_poly(a)
    roots = rational_roots(mp)
    if len(roots) != len(mp) - 1:
        return None
    spaces = []
    total = 0
    for r in sorted(roots):
        shifted = Matrix(
            n, n, [x - (r if i % (n + 1) == 0 else 0) for i, x in enumerate(e)]
        )
        ker = kernel(shifted)
        spaces.append((r, ker))
        total += ker.dim
    if total != n:
        return None
    return spaces


def _find_splitting_element(v, w):
    """Initial Hom basis from the joint eigenspaces of commuting elements.

    Every basis element that splits rationally on both modules is scored by
    the size of the Hom basis its split gives.  The best one starts the
    split; each further element of a greedy commuting pool (at most 8)
    refines it block by block, and a block's key is the tuple of its
    eigenvalues.  An intertwiner maps each joint eigenspace of V into the
    one of W with the same key, so the initial basis spans Hom_g(V, W).
    """
    singles = []
    for a in range(v.algebra.dim):
        ev = rational_eigensplit(v.actions[a])
        if ev is None:
            continue
        ew = ev if w is v or w.actions[a] is v.actions[a] else rational_eigensplit(w.actions[a])
        if ew is None:
            continue
        singles.append((a, _split_score(ev, ew), ev, ew))
    if not singles:
        return None
    singles.sort(key=lambda t: t[1])
    pool = []
    for cand in singles:
        if all(not v.algebra.structure_entry(cand[0], b[0]) for b in pool):
            pool.append(cand)
        if len(pool) >= 8:
            break
    _, _, ev, ew = pool[0]
    blocks_v = [((lam,), sp.basis_rows()) for lam, sp in ev]
    blocks_w = blocks_v if ew is ev else [((lam,), sp.basis_rows()) for lam, sp in ew]
    for a, _, xv, xw in pool[1:]:
        refined_v = _refine_blocks(blocks_v, v.actions[a], [lam for lam, _ in xv])
        if blocks_w is blocks_v and xw is xv:
            refined_w = refined_v
        else:
            refined_w = _refine_blocks(blocks_w, w.actions[a], [lam for lam, _ in xw])
        if refined_v is None or refined_w is None:
            break
        blocks_v, blocks_w = refined_v, refined_w
    return _hom_basis_from_split(v, w, blocks_v, blocks_w)


def _refine_blocks(blocks, x, eigenvalues):
    """Split each block (key, basis rows) into its intersections with the
    eigenspaces of x, B . ker((x - lam) B^t), keyed key + (lam,).

    None when some block is not the sum of its intersections, that is when
    x does not act on the blocks as an operator commuting with their split.
    """
    n = x.rows
    out = []
    for key, rows in blocks:
        k = len(rows)
        bt = Matrix(n, k, [rows[j][i] for i in range(n) for j in range(k)])
        xb = mat_mul(x, bt)
        found = 0
        for lam in eigenvalues:
            ker = kernel(xb - bt.scale(lam))
            if ker.dim:
                out.append((key + (lam,), [_combine_rows(c, rows) for c in ker.basis_rows()]))
                found += ker.dim
                if found == k:
                    break
        if found != k:
            return None
    return out


def _split_score(ev, ew):
    mw = {lam: sp.dim for lam, sp in ew}
    return sum(sp.dim * mw.get(lam, 0) for lam, sp in ev)


def _hom_basis_from_split(v, w, blocks_v, blocks_w):
    n, m = v.module_dim, w.module_dim
    v_cols = []
    v_blocks = {}
    for key, rows in blocks_v:
        start = len(v_cols)
        v_cols.extend(rows)
        v_blocks[key] = range(start, len(v_cols))
    pv = Matrix.from_rows([[v_cols[j][i] for j in range(n)] for i in range(n)])
    dual = invert(pv)  # row a of dual is the functional picking coordinate a
    w_blocks = dict(blocks_w)
    maps = []
    for key, cols in v_blocks.items():
        for wvec in w_blocks.get(key, []):
            for a in cols:
                drow = dual.row_list(a)
                entries = [wi * dj for wi in wvec for dj in drow]
                maps.append(Matrix(m, n, entries))
    return maps


# -- invariant bilinear forms ----------------------------------------


def invariant_symmetric_forms(v: Representation):
    """Canonical basis of invariant symmetric gram matrices on the module."""
    return _invariant_forms(v, symmetric=True)


def invariant_skew_forms(v: Representation):
    return _invariant_forms(v, symmetric=False)


def _invariant_forms(v, symmetric):
    homs = hom_space(v, dual_rep(v))
    if not homs:
        return []
    n = v.module_dim
    sign = ONE if symmetric else -ONE
    cols = []
    for h in homs:
        diff = h - h.transpose().scale(sign)
        cols.append(diff.entries)
    system = Matrix(
        n * n, len(homs), [cols[c][r] for r in range(n * n) for c in range(len(homs))]
    )
    ker = kernel(system)
    out = []
    for coeffs in ker.basis_rows():
        out.append(_combine_maps(homs, coeffs, n, n))
    rows, _ = rref([list(b.entries) for b in out])
    return [Matrix(n, n, r) for r in rows]


# -- submodules and irreducibility ------------------------------------


def cyclic_submodule(v: Representation, vector) -> Subspace:
    """Smallest action-invariant subspace containing the vector (spinning)."""
    if isinstance(vector, Matrix):
        vector = list(vector.entries)
    vector = [rat(x) for x in vector]
    if len(vector) != v.module_dim:
        raise ShapeMismatchError("vector length != module dimension")
    ech = Echelon(v.module_dim)
    frontier = [vector] if ech.insert({i: x for i, x in enumerate(vector) if x}) else []
    while frontier:
        new = []
        for x in frontier:
            for a in v.actions:
                y = mat_vec(a, x)
                sparse = {i: val for i, val in enumerate(y) if val}
                if sparse and ech.insert(sparse):
                    new.append(y)
        frontier = new
    return Subspace(ech)


@dataclass
class IrreducibilityVerdict:
    status: str  # "IRREDUCIBLE" | "REDUCIBLE" | "INCONCLUSIVE"
    witness: Subspace | None = None
    endo_dim: int = 0

    def __bool__(self):
        return self.status == "IRREDUCIBLE"


def is_irreducible(v: Representation) -> IrreducibilityVerdict:
    """Three-stage decision procedure over Q with an honest INCONCLUSIVE.

    (i) one-dimensional endomorphism space certifies irreducibility;
    (ii) factor characteristic polynomials of endomorphisms and spin factor
    kernels, any proper invariant kernel certifies reducibility;
    (iii) a 2- or 4-dimensional endomorphism algebra with no detected zero
    divisor is a division algebra, certifying irreducibility.
    """
    algebra = v.algebra
    abelian_path = algebra.is_abelian() and algebra.dim > 0
    if not abelian_path and not algebra.is_semisimple():
        raise ContractError("is_irreducible requires a semisimple algebra")
    if v.module_dim == 0:
        raise ContractError("the zero module has no irreducibility verdict")
    if v.module_dim == 1:
        return IrreducibilityVerdict("IRREDUCIBLE", endo_dim=1)
    endos = hom_space(v, v)
    if len(endos) == 1 and not abelian_path:
        return IrreducibilityVerdict("IRREDUCIBLE", endo_dim=1)
    n = v.module_dim
    identity = Matrix.identity(n)
    cap_hit = False
    for e in _endo_candidates(endos, identity):
        ker = kernel(e)
        if 0 < ker.dim < n:
            return IrreducibilityVerdict("REDUCIBLE", witness=ker, endo_dim=len(endos))
        if n > 8:
            cap_hit = True
            continue
        try:
            factors = factor_poly(char_poly(e))
        except FactorizationCapExceeded:
            cap_hit = True
            continue
        for irr, _mult in factors:
            sub = kernel(poly_eval_matrix(irr, e))
            if 0 < sub.dim < n:
                return IrreducibilityVerdict(
                    "REDUCIBLE", witness=sub, endo_dim=len(endos)
                )
    if abelian_path:
        if len(endos) == 2 and n == 2 and not cap_hit:
            return IrreducibilityVerdict("IRREDUCIBLE", endo_dim=2)
        return IrreducibilityVerdict("INCONCLUSIVE", endo_dim=len(endos))
    if len(endos) in (2, 4) and not cap_hit:
        return IrreducibilityVerdict("IRREDUCIBLE", endo_dim=len(endos))
    return IrreducibilityVerdict("INCONCLUSIVE", endo_dim=len(endos))


def _endo_candidates(endos, identity):
    seen = set()
    cands = []

    def push(m):
        if _is_scalar_multiple(m, identity):
            return
        key = tuple(m.entries)
        if key not in seen:
            seen.add(key)
            cands.append(m)

    for e in endos:
        push(e)
    for i in range(len(endos)):
        for j in range(i + 1, len(endos)):
            push(endos[i] + endos[j])
            push(endos[i] - endos[j])
            push(mat_mul(endos[i], endos[j]))
    return cands


def _is_scalar_multiple(m, identity):
    lead = m.entries[0]
    return m == identity.scale(lead)


# -- group-element actions and characters ------------------------------


def wedge_action(g: Matrix) -> Matrix:
    """Induced action of an invertible g on wedge^2 (2x2 minors)."""
    n = g.rows
    pairs = wedge_square_index(n)
    m = len(pairs)
    out = Matrix.zeros(m, m)
    for r, (i, j) in enumerate(pairs):
        for c, (k, l) in enumerate(pairs):
            out.entries[r * m + c] = g[i, k] * g[j, l] - g[i, l] * g[j, k]
    return out


def adjoint_action(g: Matrix, algebra: LieAlgebra) -> Matrix:
    """Conjugation X -> g X g^-1 expressed in the algebra basis."""
    coord = algebra.coordinatizer()
    ginv = invert(g)
    d = algebra.dim
    out = Matrix.zeros(d, d)
    for j, b in enumerate(algebra.basis):
        coeffs = coord.express(mat_mul(mat_mul(g, b), ginv))
        if coeffs is None:
            raise NotStableError("conjugation leaves the span of the basis")
        for i, c in enumerate(coeffs):
            out.entries[i * d + j] = c
    return out


@dataclass
class BoostElement:
    """The rational boost g(t) with lambda = e^t, acting on R^{3,1}."""

    lam: Rational
    matrix_on_v: Matrix


def boost_element(lam) -> BoostElement:
    lam = rat(lam)
    if lam <= 0:
        raise ContractError("boost parameter lambda = e^t must be positive")
    ch = (lam + 1 / lam) / 2
    sh = (lam - 1 / lam) / 2
    m = Matrix.from_rows(
        [
            [ch, ZERO, ZERO, sh],
            [ZERO, ONE, ZERO, ZERO],
            [ZERO, ZERO, ONE, ZERO],
            [sh, ZERO, ZERO, ch],
        ]
    )
    return BoostElement(lam, m)


def realified_complex_boost(mu) -> Matrix:
    """diag(mu, 1/mu) on C^2, realified to a 4x4 rational matrix."""
    mu = rat(mu)
    if mu <= 0:
        raise ContractError("mu must be positive")
    return Matrix.diagonal([mu, mu, 1 / mu, 1 / mu])


@dataclass
class CharacterReport:
    mu: Rational
    lam: Rational
    chi_adjoint: Rational
    wedge_standard: Rational
    wedge_complex: Rational
    residual_standard: Rational
    residual_complex: Rational

    @property
    def standard_matches(self) -> bool:
        return self.residual_standard == 0

    @property
    def complex_matches(self) -> bool:
        return self.residual_complex == 0


def character_discrimination_test(mu) -> CharacterReport:
    """Evaluate chi_{wedge^2 V}(g) against chi_adjoint(Ad g) at the boost.

    mu parametrizes the complex side; lambda = mu^2 parametrizes the boost on
    R^{3,1} so every entry stays rational.  The identity must hold exactly
    for V = R^{3,1} and fail for V = realified C^2 whenever mu != 1.
    """
    from .so_pq import so_pq_algebra

    mu = rat(mu)
    if mu <= 0 or mu == 1:
        raise ContractError("mu must be positive and different from 1")
    lam = mu * mu
    algebra = so_pq_algebra(3, 1)
    g = boost_element(lam).matrix_on_v
    g2 = boost_element(lam * lam).matrix_on_v
    chi_adj = adjoint_action(g, algebra).trace()

    chi_v = g.trace()
    chi_v2 = g2.trace()
    wedge_standard = (chi_v * chi_v - chi_v2) / 2

    c = realified_complex_boost(mu)
    c2 = realified_complex_boost(mu * mu)
    chi_c = c.trace()
    chi_c2 = c2.trace()
    wedge_complex = (chi_c * chi_c - chi_c2) / 2

    return CharacterReport(
        mu=mu,
        lam=lam,
        chi_adjoint=chi_adj,
        wedge_standard=wedge_standard,
        wedge_complex=wedge_complex,
        residual_standard=wedge_standard - chi_adj,
        residual_complex=wedge_complex - chi_adj,
    )


# -- the constrained-form collapse on sl(2,C) realified ----------------


@dataclass
class ConstrainedFormVerdict:
    solution_dim: int
    form: Matrix | None
    killing_ratio: Rational | None


def complex_structure_endomorphism(v: Representation) -> Matrix:
    """The rational J with J^2 = -1 inside a 2-dimensional endomorphism space."""
    endos = hom_space(v, v)
    if len(endos) != 2:
        raise ContractError("expected a 2-dimensional endomorphism space")
    n = v.module_dim
    identity = Matrix.identity(n)
    cand = None
    for e in endos:
        if not _is_scalar_multiple(e, identity):
            cand = e
            break
    if cand is None:
        raise ContractError("endomorphism space is spanned by scalars")
    a = cand.trace() / rat(n)
    g = cand - identity.scale(a)
    g2 = mat_mul(g, g)
    sigma = g2.entries[0]
    if g2 != identity.scale(sigma) or sigma >= 0:
        raise ContractError("endomorphism space is not of complex type")
    b = rational_sqrt(-sigma)
    if b is None:
        raise ContractError("complex structure is not rational in this basis")
    return g.scale(1 / b)


def constrained_form_uniqueness(
    v: Representation, compact_form: Subspace
) -> ConstrainedFormVerdict:
    """Collapse the 2-dim invariant-form space on a realified adjoint module
    by the condition B(u, J u') = 0 for u, u' in a compact real form."""
    if compact_form.ambient_dim != v.module_dim:
        raise ShapeMismatchError("compact form lives in the wrong module")
    kill = v.algebra.killing_form()
    rows = compact_form.basis_rows()
    gram_rows = [
        [kill.evaluate(x, y) for y in rows] for x in rows
    ]
    from .exact_linalg import inertia_of_diagonalizable_form

    inertia = inertia_of_diagonalizable_form(Matrix.from_rows(gram_rows))
    if inertia != (0, compact_form.dim, 0):
        raise ContractError("input is not a compact form (Killing not negative definite)")
    forms = invariant_symmetric_forms(v)
    if len(forms) != 2:
        raise ContractError("expected a 2-dimensional invariant symmetric form space")
    j = complex_structure_endomorphism(v)
    constraint_rows = []
    for x in rows:
        for y in rows:
            jy = mat_vec(j, y)
            constraint_rows.append(
                [_bilinear(f, x, jy) for f in forms]
            )
    ker = kernel(Matrix.from_rows(constraint_rows))
    if ker.dim == 0:
        return ConstrainedFormVerdict(0, None, None)
    coeffs = ker.basis_rows()[0]
    surviving = _combine_maps(forms, coeffs, v.module_dim, v.module_dim)
    ratio = _proportionality(surviving, kill.gram)
    return ConstrainedFormVerdict(ker.dim, surviving, ratio)


def _bilinear(gram: Matrix, x, y) -> Rational:
    gx = mat_vec(gram, y)
    return sum((xi * gi for xi, gi in zip(x, gx) if xi), ZERO)


def _proportionality(a: Matrix, b: Matrix):
    """Exact ratio r with a = r.b, or None."""
    if a.rows != b.rows or a.cols != b.cols:
        return None
    r = None
    for x, y in zip(a.entries, b.entries):
        if y == 0:
            if x != 0:
                return None
            continue
        q = x / y
        if r is None:
            r = q
        elif r != q:
            return None
    if r is None:
        r = ZERO
    return r
