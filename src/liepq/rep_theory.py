"""Module-level computations: Hom spaces, invariant forms, irreducibility,
induced actions, and the boost-family character test.

Hom spaces are cut out by the exact linear system
phi . rho_V(x) = rho_W(x) . phi for every basis element x.  The solver
starts from maps fixed by their values on module generators of V
(spinning, as in Parker's Meat-Axe and Holt and Rees, J. Austral. Math.
Soc. A 57, 1994).  A first-fit commuting pool of basis elements that act
diagonalizably with rational eigenvalues on both modules splits V and W
into joint eigenspaces; the basis is walked in order from the whole of V
and W, and the walk stops once the pool is non-empty and some joint
eigenspace of V is one vector, or the basis runs out.  V is then spun
breadth-first from its eigenspace vectors, those whose eigenspace in W is
smallest first: an intertwiner maps a generator into the joint eigenspace
of W with the same eigenvalues and commutes with every word of the spin,
so one map per generator and vector of that eigenspace spans Hom_g(V, W)
(with an empty pool the generators are unit vectors); End(V) holds the
identity, so a lone start map of Hom_g(V, V) is the identity, and no
constraint is checked.  Each constraint
image rho_W(x) . phi - phi . rho_V(x) is one integer vector over a
denominator from `_intertwining_defect`, one pass with no product matrix,
and the kernel of the images is taken on those vectors over the lcm of
their denominators.  `hom_space` and the brute-force `hom_space_dense`,
one kernel of the whole stacked system built on the integer rows of the
actions, return the same canonical (reduced-echelon) basis.  The invariant
symmetric and skew forms are the two parts of one Hom_g(V, V*), solved
once per module object and kept on it (`Representation`).
`rational_eigensplit` only decides diagonalizability over Q, rejecting
most non-splitting elements by the sign of tr(a^2) before any minimal
polynomial; eigenspaces are cut out by `_refine_blocks` alone, for every
pool member, the first included.
"""

from __future__ import annotations

from math import gcd as _gcd, lcm as _lcm
from typing import NamedTuple

from .errors import ContractError, FactorizationCapExceeded, NotStableError, ShapeMismatchError, UnsupportedRealizationError
from .exact_linalg import (
    Echelon,
    Matrix,
    ONE,
    Rational,
    Subspace,
    ZERO,
    _accumulated,
    _combine_maps,
    _echelon,
    _integer_list,
    _intertwining_defect,
    _mat_vec_int,
    _null_space,
    _reduced,
    _trusted,
    invert,
    kernel,
    mat_mul,
    mat_vec,
    proportionality,
    rat,
    rational_sqrt,
    wedge_square_index,
)
from .lie_core import MATRIX, BilinearForm, LieAlgebra
from .ratpoly import char_poly, factor_poly, min_poly, poly_eval_matrix, rational_roots

# unknown-count bound of the dense solver (m.n) and of the constraint
# kernels (the spun start's map count)
_DENSE_HOM_CAP = 4096


class Representation:
    """A LieAlgebra together with one action matrix per basis element.

    `_dual_homs` holds the canonical basis of Hom_g(V, V*) once the first
    invariant-form call has solved it, keyed by the tuple of action
    matrices it was solved for: the symmetric and the skew forms of one
    module object share one solve, and a module whose actions were
    replaced since solves again.  It lives as long as the module object.
    """

    __slots__ = ("algebra", "module_dim", "actions", "_dual_homs")

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
        self._dual_homs = None

    def validate(self):
        """Check the homomorphism property on every basis pair exactly: the
        `_bracket_defect` of the actions, whose error names the
        lexicographically first failing pair."""
        defect = _bracket_defect(self.algebra, self.actions)
        if defect is not None:
            a, b = defect
            raise ContractError(f"homomorphism property fails on basis pair ({a},{b})")

    def __repr__(self):
        return f"Representation(dim {self.module_dim} of algebra dim {self.algebra.dim})"


def _bracket_defect(algebra: LieAlgebra, images):
    """The first (a, b), a < b, with [rho_a, rho_b] != rho [b_a, b_b], or
    None, for one image matrix per basis element.

    On integer rows R = D.rho over the images' common denominator D and the
    integer tensor (den * constant), the property reads den [R_a, R_b] =
    D sum_k (den c_ab^k) R_k.  One pass per a files every term of every pair
    (a, b > a) in one accumulator per row keyed by b.n + column: each entry
    of R_a meets the row and the column of the R_b side by side that it
    multiplies, then the brackets of a subtract their terms.
    """
    if not images:
        return None
    n = images[0].cols
    den = algebra._tensor[0]
    brackets = algebra._brackets
    big = _lcm(1, *(x.den for x in images))
    ints = [
        {r: {c: v * (big // x.den) for c, v in row.items()} for r, row in x._data.items()}
        for x in images
    ]
    # row t and column t of each R_b, b > a, side by side
    side, below = {}, {}
    for b, rows in enumerate(ints):
        base = b * n
        for r, row in rows.items():
            block = side.setdefault(r, {})
            for c, x in row.items():
                block[base + c] = x
                below.setdefault(c, {})[base + r] = x
    for a, rows in enumerate(ints):
        base = a * n
        for r, row in rows.items():
            block = side[r]
            for c in row:
                del block[base + c]
                del below[c][base + r]
        acc = {}
        for r, row in rows.items():
            out = acc.setdefault(r, {})
            for t, x in row.items():
                x *= den
                for key, y in side.get(t, {}).items():  # R_a R_b
                    out[key] = out.get(key, 0) + x * y
                for key, y in below.get(r, {}).items():  # - R_b R_a
                    u = key % n  # entry (u, r) of R_b
                    other = acc.setdefault(u, {})
                    key += t - u
                    other[key] = other.get(key, 0) - y * x
        for b, entry, sign in brackets.get(a, ()):
            if b > a:
                base = b * n
                for k, s in entry.items():
                    f = sign * s * big
                    for r, row in ints[k].items():
                        out = acc.setdefault(r, {})
                        for c, y in row.items():
                            out[base + c] = out.get(base + c, 0) - f * y
        bad = [key // n for out in acc.values() for key, x in out.items() if x]
        if bad:
            return a, min(bad)
    return None


def _map_defect(src: LieAlgebra, dst: LieAlgebra, phi: Matrix):
    """The first basis pair (i, j), i < j, with phi[b_i, b_j] != [phi b_i,
    phi b_j], or None: phi (column j the image of b_j) is a homomorphism
    exactly when the matrices sum_k phi[k, j].B_k of dst's MATRIX basis, an
    independent basis closed under the commutator, represent src, which
    `_bracket_defect` decides."""
    if phi.rows != dst.dim or phi.cols != src.dim:
        raise ShapeMismatchError("phi must be a dim(dst) x dim(src) matrix")
    if dst.realization != MATRIX:
        raise UnsupportedRealizationError("the target needs a MATRIX realization")
    columns = phi.transpose()._data
    n = dst.basis[0].rows
    images = [_combine_maps(dst.basis, columns.get(j, {}), n, n, phi.den) for j in range(src.dim)]
    return _bracket_defect(src, images)


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
        at = a.transpose()._data  # integer rows over a.den
        out = {}
        for col, (i, j) in enumerate(pairs):
            # x.(e_i ^ e_j) = (x e_i) ^ e_j + e_i ^ (x e_j)
            for k, c in at.get(i, {}).items():
                if k != j:
                    row, c = (index[(k, j)], c) if k < j else (index[(j, k)], -c)
                    r = out.setdefault(row, {})
                    r[col] = r.get(col, 0) + c
            for k, c in at.get(j, {}).items():
                if k != i:
                    row, c = (index[(i, k)], c) if i < k else (index[(k, i)], -c)
                    r = out.setdefault(row, {})
                    r[col] = r.get(col, 0) + c
        actions.append(_accumulated(m, m, out, a.den))
    return Representation(v.algebra, m, actions)


def direct_sum(v: Representation, w: Representation) -> Representation:
    _require_same_algebra(v, w)
    n, m = v.module_dim, w.module_dim
    actions = []
    for a, b in zip(v.actions, w.actions):
        out = {(i, j): x for i in range(n) for j, x in a.sparse_row(i).items()}
        for i in range(m):
            for j, x in b.sparse_row(i).items():
                out[(n + i, n + j)] = x
        actions.append(Matrix.from_sparse(n + m, n + m, out))
    return Representation(v.algebra, n + m, actions)


def restrict(v: Representation, subspace: Subspace) -> Representation:
    """Restriction to an invariant subspace, in the subspace's canonical basis.

    Basis vector j is the primitive integer echelon row_j over its pivot
    entry lead_j, and the basis is the identity on the pivot columns, so the
    coordinates of a.b_j are its own entries there: column j of the
    restricted action is the integer vector a.row_j read at the pivots, over
    a.den * lead_j.  The rows are indexed by column once per call, so one
    walk over each action's stored entries builds all k images a.row_j;
    each must reduce to zero against the echelon.
    """
    if subspace.ambient_dim != v.module_dim:
        raise ShapeMismatchError("subspace lives in the wrong module")
    ech = subspace._echelon
    pivots = subspace.pivot_columns()
    rows = subspace._integer_rows()
    leads = [row[p] for p, row in zip(pivots, rows)]
    den = _lcm(1, *leads)
    k = len(rows)
    by_column = {}  # column c -> [(j, row_j[c])]
    for j, row in enumerate(rows):
        for c, x in row.items():
            hits = by_column.get(c)
            if hits is None:
                by_column[c] = [(j, x)]
            else:
                hits.append((j, x))
    actions = []
    for a in v.actions:
        images = []
        for _ in range(k):
            images.append({})
        for i, arow in a._data.items():
            for c, y in arow.items():
                hits = by_column.get(c)
                if hits is not None:
                    for j, x in hits:
                        image = images[j]
                        image[i] = image.get(i, 0) + y * x
        data = {}
        for j, image in enumerate(images):
            if 0 in image.values():  # a sum cancelled
                nonzero = {}
                for i, s in image.items():
                    if s:
                        nonzero[i] = s
                image = nonzero
            if ech.reduce(image)[0]:
                raise ContractError("subspace is not invariant under the action")
            f = den // leads[j]
            for r, p in enumerate(pivots):
                x = image.get(p)
                if x is not None:
                    data.setdefault(r, {})[j] = x * f
        actions.append(_reduced(k, k, data, a.den * den))
    return Representation(v.algebra, k, actions)


def _require_same_algebra(v: Representation, w: Representation):
    av, aw = v.algebra, w.algebra
    if av is aw:
        return
    if av.dim != aw.dim or av._tensor != aw._tensor:
        raise ContractError("representations are over different algebras")


# -- Hom-space solver -------------------------------------------------


def hom_space(v: Representation, w: Representation):
    """Canonical basis of Hom_g(V, W) = {phi : phi rho_V(x) = rho_W(x) phi}.

    The maps start as `_initial_hom_basis`: one per spun generator of V and
    vector of W with the generator's eigenvalues under a commuting pool,
    which span Hom_g(V, W).  End(V) (w is v) holds the identity, so a lone
    start map is the identity (Schur's lemma read off the start) and is
    returned as it is, with no constraint checked.  Otherwise, per basis
    element x, the images aw.phi - phi.av of the current maps come from
    `_intertwining_defect` as integer vectors over their denominators, and
    the maps are cut down to the combinations whose image vanishes.
    """
    _require_same_algebra(v, w)
    n, m = v.module_dim, w.module_dim
    if n == 0 or m == 0:
        return []
    maps = _initial_hom_basis(v, w)
    if w is v and len(maps) == 1:
        return maps
    for a in range(v.algebra.dim):
        if not maps:
            return []
        av, aw = v.actions[a], w.actions[a]
        images = [_intertwining_defect(aw, phi, av) for phi in maps]
        if not any(vec for vec, _ in images):
            continue
        # integer kernel rows are multiples of the canonical ones: the same span
        ker = kernel(_column_system(images, m * n))
        maps = [_combine_maps(maps, coeffs, m, n) for coeffs in ker._integer_rows()]
    return Subspace.from_vectors(m * n, maps).basis_matrices(m, n)


def hom_space_dense(v: Representation, w: Representation):
    """Brute-force variant: one stacked kernel on the full intertwiner system,
    with no eigensplit and no spin.  Used as an independent cross-check on
    small modules; it returns the canonical basis `hom_space` does.

    Row a.m.n + i.n + j reads entry (i, j) of aw.phi - phi.av for basis
    element a, in the unknowns phi[k, l] at k.n + l.  It is built on the
    integer rows over D = lcm(aw.den, av.den): D.aw[i, k] from row i of aw
    at k.n + j, and -D.av[l, j] from column j of av at i.n + l.  Scaling a
    row leaves the kernel as it is; only key i.n + j takes two terms.
    """
    _require_same_algebra(v, w)
    n, m = v.module_dim, w.module_dim
    if m * n > _DENSE_HOM_CAP:
        raise ContractError("dense hom solver capped; use hom_space")
    data = {}
    for a, (av, aw) in enumerate(zip(v.actions, w.actions)):
        big = _lcm(av.den, aw.den)
        fw, fv = big // aw.den, -(big // av.den)
        columns = av.transpose()._data
        for i in range(m):
            wrow = aw._data.get(i, {})
            base = i * n
            for j in range(n):
                row = {k * n + j: fw * x for k, x in wrow.items()}
                for l, x in columns.get(j, {}).items():
                    key = base + l
                    row[key] = row.get(key, 0) + fv * x
                data[(a * m + i) * n + j] = row
    return kernel(_accumulated(v.algebra.dim * m * n, m * n, data, 1)).basis_matrices(m, n)


def _combine_int_rows(coeffs: dict, rows):
    """The primitive integer vector proportional to sum of coeffs[i] * rows[i],
    for sparse integer coefficients and rows."""
    acc = {}
    for i, c in coeffs.items():
        for k, x in rows[i].items():
            acc[k] = acc.get(k, 0) + c * x
    acc = {k: x for k, x in acc.items() if x}
    g = _gcd(*acc.values())
    return acc if g == 1 else {k: x // g for k, x in acc.items()}


def _column_system(images, size):
    """A positive multiple of the size x len(images) matrix whose column c is
    vec / den for images[c] = (vec, den), a flattened integer vector over a
    positive denominator (the same kernel), as integers over the lcm of the
    denominators."""
    big = _lcm(1, *(den for _, den in images))
    data = {}
    for c, (vec, den) in enumerate(images):
        f = big // den
        for r, x in vec.items():
            data.setdefault(r, {})[c] = x * f
    return _trusted(size, len(images), data)


def rational_eigensplit(a: Matrix):
    """Sorted eigenvalues of `a` if it is diagonalizable over Q, else None.

    A matrix diagonalizable over Q has real eigenvalues, so tr(a^2) is their
    sum of squares: negative rules it out, and so does zero unless a = 0.
    That test, over the nonzeros of a, runs before the minimal polynomial m;
    then a is diagonalizable over Q exactly when m has deg m distinct
    rational roots.  The eigenspaces are left to `_refine_blocks`.
    """
    data = a._data
    # den^2 tr(a^2), the same sign
    tr2 = sum(x * data[j].get(i, 0) for i, row in data.items() for j, x in row.items() if j in data)
    if tr2 < 0 or (tr2 == 0 and data):
        return None
    mp = min_poly(a)
    roots = rational_roots(mp)
    if len(roots) != len(mp) - 1:
        return None
    return sorted(roots)


def _initial_hom_basis(v, w):
    """Maps spanning Hom_g(V, W), fixed by their values on spun module
    generators of V, which a first-fit commuting pool confines to blocks.

    The blocks start as the whole of V and the whole of W, of key (), and
    the basis is walked in order.  An element whose bracket with a pool
    member is nonzero is skipped before any eigensplit; one that splits
    rationally on both modules joins the pool, and `_refine_blocks` splits
    the blocks by its eigenspaces, a block's key being the tuple of its
    eigenvalues.  The walk stops once the pool is non-empty and some block
    of V is a single vector, or when the basis runs out.  An intertwiner maps each block of V into the block of W with the
    same key.  `_spun_maps` then spins V from its block vectors and gives
    one map per generator u_s and vector of W's block of u_s's key,
    sum_s |W_key(u_s)| maps, the unknowns of the first constraint kernel
    and a bound on those of the others.  With an empty pool the key is ()
    and the generators are unit vectors.
    """
    brackets = v.algebra._tensor[1]
    n, m = v.module_dim, w.module_dim
    blocks_v = [((), [{j: 1} for j in range(n)])]
    blocks_w = blocks_v if m == n else [((), [{i: 1} for i in range(m)])]
    pool = []
    for a in range(v.algebra.dim):
        if pool and any(len(rows) == 1 for _, rows in blocks_v):
            break
        if any((b, a) in brackets for b in pool):  # pool members precede a
            continue
        ev = rational_eigensplit(v.actions[a])
        if ev is None:
            continue
        ew = ev if w is v or w.actions[a] is v.actions[a] else rational_eigensplit(w.actions[a])
        if ew is None:
            continue
        refined_v = _refine_blocks(blocks_v, v.actions[a], ev)
        if blocks_w is blocks_v and ew is ev:
            refined_w = refined_v
        else:
            refined_w = _refine_blocks(blocks_w, w.actions[a], ew)
        if refined_v is None or refined_w is None:
            break
        blocks_v, blocks_w = refined_v, refined_w
        pool.append(a)
    return _spun_maps(v, w, blocks_v, dict(blocks_w))


def _spun_maps(v, w, blocks_v, blocks_w):
    """Maps Psi_{s,i} = Z_{s,i} . P^-1 spanning every intertwiner that sends
    each vector of a block of V into the block of W with the same key.

    The generators u_s are the block vectors of V, those whose key has the
    smallest block in W first, each skipped when it already lies in the
    span.  V is spun breadth-first from them (Parker's Meat-Axe, Holt and
    Rees 1994) until the span is all of V, and each step's word is carried
    to every vector z_{s,i} of u_s's W block, the V vector and its images
    kept over one common factor.  P holds the spun vectors as columns;
    column k of Z_{s,i} is word_k . z_{s,i} when vector k = word_k . u_s and
    0 otherwise.  An intertwiner phi has phi(word . u_s) = word . phi(u_s)
    with phi(u_s) in the span of the z_{s,i}, so phi lies in the span of
    the Psi_{s,i}; a key that W lacks contributes no map.  A pair whose
    generators reach more than `_DENSE_HOM_CAP` maps is refused as soon as
    they do, before any map is built.  When w is v and the generators give
    one map, that map spans End(V), which holds the identity, so it is a
    multiple of I: the identity is returned with no Z, no P^-1 and no
    product.
    """
    n, m = v.module_dim, w.module_dim
    order = sorted(
        ((len(blocks_w.get(key, ())), key, u) for key, rows in blocks_v for u in rows),
        key=lambda t: t[0],
    )
    pairs = []  # integer rows of each action on V and W, and their factors
    for av, aw in zip(v.actions, w.actions):
        big = _lcm(av.den, aw.den)
        pairs.append((av._data, aw._data, big // av.den, big // aw.den))
    ech = Echelon(n)
    spun = []  # (generator s, V vector, its W images), over one factor each
    gens = []  # the W block of each generator
    count = 0  # the maps the generators give, sum of their W blocks
    for _, key, u in order:
        if ech.dim == n:
            break
        if not ech.insert(u):
            continue
        head = len(spun)  # spun from here on is the breadth-first queue
        gens.append(blocks_w.get(key, []))
        count += len(gens[-1])
        if count > _DENSE_HOM_CAP:
            raise ContractError(
                f"module pair is too large: the spun start needs more than "
                f"{_DENSE_HOM_CAP} maps"
            )
        spun.append((len(gens) - 1, u, gens[-1]))
        while head < len(spun) and ech.dim < n:
            s, x, images = spun[head]
            head += 1
            for av, aw, fv, fw in pairs:
                y = _mat_vec_int(av, x)
                if not ech.insert(y):
                    continue
                zy = [_mat_vec_int(aw, z) for z in images]
                g = _gcd(*(c * fv for c in y.values()), *(c * fw for z in zy for c in z.values()))
                y = {k: c * fv // g for k, c in y.items()}
                spun.append((s, y, [{r: c * fw // g for r, c in z.items()} for z in zy]))
                if ech.dim == n:
                    break
    if not any(gens):
        return []
    if count == 1 and w is v:
        return [Matrix.identity(n)]
    zs = [[{} for _ in block] for block in gens]  # the rows of each Z_{s,i}
    for k, (s, _, images) in enumerate(spun):
        for z, image in zip(zs[s], images):
            for r, c in image.items():
                z.setdefault(r, {})[k] = c
    dual = invert(_trusted(n, n, {k: x for k, (_, x, _) in enumerate(spun)}).transpose())
    return [mat_mul(_trusted(m, n, z), dual) for block in zs for z in block]


def _refine_blocks(blocks, x, eigenvalues):
    """Split each block (key, integer basis rows b_j) into its intersections
    with the eigenspaces of x, B . ker((x - lam) B^t), keyed key + (lam,).

    For lam = a/b and x = X/D (X the integer rows of x), the kernel is that
    of the integer rows of b.D.(x - lam).B^t: row r holds
    b.(X B^t)[r, j] - a.D.(b_j)_r at column j, built from x's stored rows
    with no matrix temporary; X B^t is taken once per block, for every lam.
    The block of key () must be the whole space of unit rows, B = I: its
    system is b.X - a.D.I, and its split is the integer kernel rows
    themselves, with no recombination.

    None when some block is not the sum of its intersections, that is when
    x does not act on the blocks as an operator commuting with their split.
    """
    data, den = x._data, x.den
    n = x.rows
    out = []
    for key, rows in blocks:
        k = len(rows)
        if key:
            bt = {}  # row r of B^t: {j: (b_j)_r}
            for j, row in enumerate(rows):
                for r, y in row.items():
                    col = bt.get(r)
                    if col is None:
                        bt[r] = {j: y}
                    else:
                        col[j] = y
            xbt = {}  # the rows of X B^t, cancelled zeros and all
            for r, xrow in data.items():
                acc = {}
                for t, y in xrow.items():
                    col = bt.get(t)
                    if col is not None:
                        for j, z in col.items():
                            acc[j] = acc.get(j, 0) + y * z
                xbt[r] = acc
        else:
            xbt = data
        found = 0
        for lam in eigenvalues:
            a, b = lam.as_integer_ratio()
            a, b = int(a) * den, int(b)
            system = []
            for r in (range(n) if a else xbt):
                row = {}
                xrow = xbt.get(r)
                if xrow:
                    for j, y in xrow.items():
                        if y:
                            row[j] = b * y
                if a:
                    for j, y in (bt.get(r, {}) if key else {r: 1}).items():
                        s = row.get(j, 0) - a * y
                        if s:
                            row[j] = s
                        else:
                            del row[j]
                if row:
                    system.append(row)
            ker = _null_space(_echelon(k, system), k)
            if ker.dim:
                split = ker._integer_rows()
                if key:
                    split = [_combine_int_rows(c, rows) for c in split]
                out.append((key + (lam,), split))
                found += ker.dim
                if found == k:
                    break
        if found != k:
            return None
    return out


# -- invariant bilinear forms ----------------------------------------


def invariant_symmetric_forms(v: Representation):
    """Canonical basis of invariant symmetric gram matrices on the module:
    the symmetric part of Hom_g(V, V*), solved once per module object and
    shared with `invariant_skew_forms`."""
    return _invariant_forms(v, symmetric=True)


def invariant_skew_forms(v: Representation):
    """Canonical basis of invariant skew gram matrices on the module: the
    skew part of the Hom_g(V, V*) that `invariant_symmetric_forms` shares."""
    return _invariant_forms(v, symmetric=False)


def _dual_hom_basis(v):
    """Hom_g(V, V*), from `v._dual_homs` while the actions are those it was
    solved for; an unchanged module compares the same matrix objects, which
    the tuple comparison accepts without reading an entry."""
    actions = tuple(v.actions)
    if v._dual_homs is None or v._dual_homs[0] != actions:
        v._dual_homs = (actions, hom_space(v, dual_rep(v)))
    return v._dual_homs[1]


def _invariant_forms(v, symmetric):
    homs = _dual_hom_basis(v)
    if not homs:
        return []
    n = v.module_dim
    sign = 1 if symmetric else -1
    diffs = []  # h - sign * h^t, flattened over h.den
    for h in homs:
        vec = h._flat()
        for i, row in h._data.items():
            for j, x in row.items():
                k = j * n + i
                vec[k] = vec.get(k, 0) - sign * x
        diffs.append(({k: x for k, x in vec.items() if x}, h.den))
    ker = kernel(_column_system(diffs, n * n))
    out = [_combine_maps(homs, coeffs, n, n) for coeffs in ker._integer_rows()]
    return Subspace.from_vectors(n * n, out).basis_matrices(n, n)


# -- submodules and irreducibility ------------------------------------


def cyclic_submodule(v: Representation, vector) -> Subspace:
    """Smallest action-invariant subspace containing the vector (spinning),
    on integer vectors: an action a = A / d sends x into the span of A x."""
    if isinstance(vector, Matrix):
        vector = vector.entries
    if len(vector) != v.module_dim:
        raise ShapeMismatchError("vector length != module dimension")
    start = _integer_list(vector)[0]
    ech = Echelon(v.module_dim)
    frontier = [start] if ech.insert(start) else []
    while frontier:
        new = []
        for x in frontier:
            for a in v.actions:
                y = _mat_vec_int(a._data, x)
                if ech.insert(y):
                    new.append(y)
        frontier = new
    return Subspace(ech)


class IrreducibilityVerdict(NamedTuple):
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
    (iii) a 2-dimensional endomorphism algebra Q[e] with no such kernel is
    a field, e's minimal polynomial being irreducible, which certifies
    irreducibility.  Any other is INCONCLUSIVE: a 4-dimensional one may be
    M_2(Q), whose candidates can all have irreducible char polynomials.
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
    if len(endos) == 2 and not cap_hit:
        return IrreducibilityVerdict("IRREDUCIBLE", endo_dim=2)
    return IrreducibilityVerdict("INCONCLUSIVE", endo_dim=len(endos))


def _endo_candidates(endos, identity):
    seen = set()
    cands = []

    def push(m):
        if _is_scalar_multiple(m, identity):
            return
        if m not in seen:
            seen.add(m)
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
    lead = m[0, 0]
    return m == identity.scale(lead)


# -- group-element actions and characters ------------------------------


def wedge_action(g: Matrix) -> Matrix:
    """Induced action of an invertible g on wedge^2 (2x2 minors); raises
    ShapeMismatchError when g is not square."""
    if g.rows != g.cols:
        raise ShapeMismatchError(f"wedge action of a non-square {g.rows}x{g.cols} matrix")
    n = g.rows
    pairs = wedge_square_index(n)
    m = len(pairs)
    return Matrix.from_sparse(m, m, {
        (r, c): g[i, k] * g[j, l] - g[i, l] * g[j, k]
        for r, (i, j) in enumerate(pairs)
        for c, (k, l) in enumerate(pairs)
    })


def adjoint_action(g: Matrix, algebra: LieAlgebra) -> Matrix:
    """Conjugation X -> g X g^-1 expressed in the algebra basis."""
    coord = algebra.coordinatizer()
    ginv = invert(g)
    d = algebra.dim
    out = {}
    for j, b in enumerate(algebra.basis):
        coeffs = coord.express_sparse(mat_mul(mat_mul(g, b), ginv))
        if coeffs is None:
            raise NotStableError("conjugation leaves the span of the basis")
        for i, c in coeffs.items():
            out[(i, j)] = c
    return Matrix.from_sparse(d, d, out)


class BoostElement(NamedTuple):
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


class CharacterReport(NamedTuple):
    mu: Rational
    lam: Rational
    chi_adjoint: Rational
    wedge_standard: Rational
    wedge_complex: Rational
    residual_standard: Rational
    residual_complex: Rational


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


class ConstrainedFormVerdict(NamedTuple):
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
    sigma = g2[0, 0]
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
    n = v.module_dim
    bilinear = [BilinearForm(n, f) for f in forms]
    constraint_rows = []
    for x in rows:
        for y in rows:
            jy = mat_vec(j, y)
            constraint_rows.append([f.evaluate(x, jy) for f in bilinear])
    ker = kernel(Matrix.from_rows(constraint_rows))
    if ker.dim == 0:
        return ConstrainedFormVerdict(0, None, None)
    # the canonical first kernel row: its integer row over the pivot entry
    pivot, coeffs = ker.pivot_columns()[0], ker._integer_rows()[0]
    surviving = _combine_maps(forms, coeffs, n, n, coeffs[pivot])
    return ConstrainedFormVerdict(ker.dim, surviving, proportionality(surviving, kill.gram))
