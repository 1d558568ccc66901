from fractions import Fraction
from math import lcm

import pytest

from liepq import so_pq
from liepq.exact_linalg import (
    NO_SOLUTION, ONE, Echelon, Matrix, Subspace, _quotient, _reduced, _trusted, invert, rat,
    solve_linear,
)
from liepq.lie_core import LieAlgebra, canonical_json
from liepq.so_pq import generator_pairs, so_pq_algebra


def generator(p, n, i, j):
    """The frozen so(p,q) generator for the pair (i, j), i < j, entry by
    entry: E_ij - E_ji when coordinates i and j carry the same sign of
    I_{p,q}, and E_ij + E_ji otherwise."""
    sign = -ONE if (i < p) == (j < p) else ONE
    return Matrix.from_sparse(n, n, {(i, j): ONE, (j, i): sign})


def fresh_so_pq(p, q):
    """so(p,q) from its frozen generators by `from_matrices`, which solves
    every commutator: the reference for the closed form of `so_pq_algebra`."""
    n = p + q
    basis = [generator(p, n, i, j) for i, j in generator_pairs(n)]
    return LieAlgebra.from_matrices(basis, validate=False)


def unit_matrix(i, j, n):
    return Matrix.from_sparse(n, n, {(i, j): rat(1)})


def column(values):
    """The column vector of the values, a len(values) x 1 matrix."""
    return Matrix(len(values), 1, list(values))


def zero_subspace(ambient_dim):
    return Subspace(Echelon(ambient_dim))


def column_list(m, j):
    """Column j of a matrix as a dense list of rationals."""
    return [m[i, j] for i in range(m.rows)]


def contains(space, vector) -> bool:
    return space.reduce(vector) is not None


def contains_subspace(space, other) -> bool:
    return all(contains(space, row) for row in other.basis_rows())


def restrict_by_solve(v, subspace):
    """The actions of v restricted to an invariant subspace, by one
    solve_linear(b, a.b) per action with b the canonical basis as columns:
    the oracle for `rep_theory.restrict`."""
    b = Matrix.from_rows(subspace.basis_rows()).transpose()
    actions = []
    for a in v.actions:
        sol, _ = solve_linear(b, a @ b)
        assert sol is not NO_SOLUTION
        actions.append(sol)
    return actions


def to_json(obj) -> str:
    """The canonical JSON text of an algebra's (or deformed algebra's)
    `to_json_dict`."""
    return canonical_json(obj.to_json_dict())


def algebra_from_json_dict(data) -> LieAlgebra:
    """The algebra a `LieAlgebra.to_json_dict` payload describes, validated."""
    if data["realization"] == "matrix":
        return LieAlgebra.from_matrices([Matrix.from_rows(b) for b in data["basis"]])
    entries = [(i, j, k, rat(v)) for i, j, k, v in data["structure"]]
    return LieAlgebra.from_structure(data["dim"], entries)


class FrozenRow(dict):
    """A dict that refuses every write.  `Matrix` rows may be shared between
    matrices because no one writes a stored row after construction; a
    matrix whose row map and rows are FrozenRow turns a write into a
    TypeError."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("write into a stored matrix row")

    __setitem__ = __delitem__ = __ior__ = _refuse
    update = pop = popitem = clear = setdefault = _refuse


def freeze_rows(data):
    """data {i: {j: int}} as a FrozenRow of FrozenRow rows; a row that is
    already frozen stays the same object, so shared rows stay shared."""
    return FrozenRow({i: row if type(row) is FrozenRow else FrozenRow(row) for i, row in data.items()})


def frozen(m):
    """m with a frozen row map and frozen rows, the same matrix."""
    return _trusted(m.rows, m.cols, freeze_rows(m._data), m.den)


@pytest.fixture
def fresh_family_memos():
    """liepq.so_pq with the memo caches of the deformation family and of its
    certificates emptied before and after the test, so that every
    per-signature certificate reads the sources a test patches and none
    outlives it."""
    memos = [
        so_pq._deformation_family, so_pq._so_centralizer, so_pq._so_maximality,
        so_pq._embedding_defect, so_pq._killing_block_constants, so_pq._t1_equivariance_defect,
    ]
    for memo in memos:
        memo.cache_clear()
    yield so_pq
    for memo in memos:
        memo.cache_clear()


@pytest.fixture(scope="session")
def so3_rotations():
    """so(3) in the classic rotation-generator basis with [L1, L2] = L3."""
    l1 = Matrix.from_rows([[0, 0, 0], [0, 0, -1], [0, 1, 0]])
    l2 = Matrix.from_rows([[0, 0, 1], [0, 0, 0], [-1, 0, 0]])
    l3 = Matrix.from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    return LieAlgebra.from_matrices([l1, l2, l3])


@pytest.fixture(scope="session")
def so21():
    return so_pq_algebra(2, 1)


@pytest.fixture(scope="session")
def so31():
    return so_pq_algebra(3, 1)


@pytest.fixture(scope="session")
def so22():
    return so_pq_algebra(2, 2)


# -- dense oracle: Gauss-Jordan elimination on lists of Fractions -----------


def dense_rref(rows):
    """(nonzero reduced rows, pivot columns) by dense elimination on a copy:
    column by column, forward elimination below each pivot, then clearing
    above the pivots from the last one up."""
    rows = [[Fraction(x) for x in r] for r in rows]
    m = len(rows)
    if m == 0:
        return [], []
    n = len(rows[0])
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        prow = rows[r] = [x / pv for x in rows[r]]
        for i in range(r + 1, m):
            f = rows[i][c]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for idx in range(len(pivots) - 1, 0, -1):
        c = pivots[idx]
        prow = rows[idx]
        for i in range(idx):
            f = rows[i][c]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], prow)]
    return rows[: len(pivots)], pivots


def dense_kernel(rows, ncols):
    """Canonical reduced basis rows of {x : rows . x = 0}."""
    reduced, pivots = dense_rref(rows)
    vectors = []
    for f in range(ncols):
        if f not in pivots:
            v = [Fraction(0)] * ncols
            v[f] = Fraction(1)
            for k, c in enumerate(pivots):
                v[c] = -reduced[k][f]
            vectors.append(v)
    return dense_rref(vectors)[0]


def dense_solve(a_rows, b_rows, ncols, k):
    """Rows of the particular solution X of a.X = b that is zero at the free
    unknowns, or None when the system is inconsistent; a has ncols columns
    and b has k."""
    reduced, pivots = dense_rref([list(ra) + list(rb) for ra, rb in zip(a_rows, b_rows)])
    if any(c >= ncols for c in pivots):
        return None
    sol = [[Fraction(0)] * k for _ in range(ncols)]
    for r, c in enumerate(pivots):
        sol[c] = reduced[r][ncols:]
    return sol


def dense_express(basis, m):
    """Coefficients of m in the basis by one dense elimination of
    [b_0 ... b_k | m] (columns), or None when m is outside the span."""
    k = len(basis)
    rows = [[b.entries[r] for b in basis] + [m.entries[r]] for r in range(m.rows * m.cols)]
    reduced, pivots = dense_rref(rows)
    if k in pivots:
        return None
    assert pivots == list(range(k))
    return [row[k] for row in reduced]


def gaussian_inertia(rows):
    """Sylvester inertia (n+, n-, n0) of a symmetric matrix by symmetric
    Gaussian congruence on a dense copy, shearing a zero diagonal entry with
    an off-diagonal partner when no later diagonal entry is nonzero."""
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    plus = minus = zero = 0
    for k in range(n):
        if m[k][k] == 0:
            swap = next((j for j in range(k + 1, n) if m[j][j] != 0), None)
            if swap is not None:
                m[k], m[swap] = m[swap], m[k]
                for row in m:
                    row[k], row[swap] = row[swap], row[k]
            else:
                off = next((j for j in range(k + 1, n) if m[k][j] != 0), None)
                if off is None:
                    zero += 1
                    continue
                for j in range(n):
                    m[k][j] = m[k][j] + m[off][j]
                for row in m:
                    row[k] = row[k] + row[off]
        d = m[k][k]
        if d > 0:
            plus += 1
        else:
            minus += 1
        for i in range(k + 1, n):
            f = m[i][k] / d
            if f:
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
                for row in m:
                    row[i] -= f * row[k]
    return plus, minus, zero


def pairwise_defect(src, dst, phi):
    """The first basis pair (i, j), i < j, with phi[b_i, b_j] != [phi b_i, phi b_j],
    or None: every pair compared as dense rational coefficient lists, through
    `structure_entry`, `column_list` and `bracket_coeffs`."""
    d = src.dim
    for i in range(d):
        xi = column_list(phi, i)
        for j in range(i + 1, d):
            lhs = [rat(0)] * dst.dim
            for k, v in src.structure_entry(i, j).items():
                for r in range(dst.dim):
                    lhs[r] += v * phi[r, k]
            if lhs != dst.bracket_coeffs(xi, column_list(phi, j)):
                return i, j
    return None


def dense_ratio(a, b):
    """The ratio r with a = r.b over the dense entries, or None."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        return None
    ratios = set()
    for x, y in zip(a.entries, b.entries):
        if y:
            ratios.add(x / y)
        elif x:
            return None
    if len(ratios) > 1:
        return None
    return ratios.pop() if ratios else Fraction(0)


def pairwise_validate(rep):
    """The first basis pair (i, j), i < j, with [rho_i, rho_j] != sum_k c_ij^k rho_k,
    or None: every pair compared as `Matrix` values, two products and one
    scaled sum per pair."""
    d, n = rep.algebra.dim, rep.module_dim
    for i in range(d):
        ai = rep.actions[i]
        for j in range(i + 1, d):
            aj = rep.actions[j]
            expected = Matrix.zeros(n, n)
            for k, c in rep.algebra.structure_entry(i, j).items():
                expected = expected + rep.actions[k].scale(c)
            if ai @ aj - aj @ ai != expected:
                return i, j
    return None


def pairwise_trace_gram(algebra):
    """The trace form's gram, tr(b_a b_b) for each pair a <= b of basis
    matrices entry by entry on their integer rows over the lcm of the basis
    denominators, mirrored: the oracle for `LieAlgebra.trace_form`."""
    d = algebra.dim
    den = lcm(1, *(b.den for b in algebra.basis))
    rows = [b._data for b in algebra.basis]
    cols = [b.transpose()._data for b in algebra.basis]
    scale = [den // b.den for b in algebra.basis]
    gram = {}
    for a in range(d):
        for b in range(a, d):
            s = sum(
                x * y
                for i, row in rows[a].items()
                if i in cols[b]
                for j, x in row.items()
                if (y := cols[b][i].get(j))
            )
            if s:
                gram.setdefault(a, {})[b] = gram.setdefault(b, {})[a] = s * scale[a] * scale[b]
    return _reduced(d, d, gram, den * den)


def block_pairing_basis(v, w, blocks_v, blocks_w):
    """The Hom basis that pairs every vector of a block of V with every
    vector of the block of W with the same key, sum_b |V_b| |W_b| rank-one
    maps w_vec . (dual functional of the V vector), for blocks
    [(key, integer rows)] that together form bases of V and W: the Hom
    solver's start before it spun module generators."""
    n, m = v.module_dim, w.module_dim
    v_cols = []
    v_blocks = {}
    for key, rows in blocks_v:
        start = len(v_cols)
        v_cols.extend(rows)
        v_blocks[key] = range(start, len(v_cols))
    dual = invert(_trusted(n, n, dict(enumerate(v_cols))).transpose())
    w_blocks = dict(blocks_w)
    maps = []
    for key, cols in v_blocks.items():
        for wvec in w_blocks.get(key, []):
            for a in cols:
                drow = dual._data[a]
                maps.append(_reduced(
                    m, n, {i: {j: wi * dj for j, dj in drow.items()} for i, wi in wvec.items()},
                    dual.den,
                ))
    return maps


def per_c_deformed_algebra(p, q, c):
    """The bracket [.,.]_c built and Jacobi-validated for this one c: every
    constant of so(p,q) (+) R^{p,q} through `from_structure`, with the
    action [X, e_i] = X e_i and [e_i, e_j] = -c X_ij for i < j < p, c X_ij
    otherwise."""
    c = rat(c)
    n = p + q
    so = so_pq_algebra(p, q)
    m = so.dim
    entries = [(i, j, k, v) for (i, j), entry in so.structure.items() for k, v in entry.items()]
    for a, gen in enumerate(so.basis):
        for i, column in gen.transpose()._data.items():
            for k, x in column.items():
                entries.append((a, m + i, m + k, _quotient(x, gen.den)))
    for idx, (i, j) in enumerate(generator_pairs(n)):
        entries.append((m + i, m + j, idx, -c if (i < p and j < p) else c))
    return LieAlgebra.from_structure(m + n, entries, validate=True)


def three_run_family(p, q):
    """(dim, base, vec, k0, k1, k2) of the family base + c.vec by three
    validated algebras: base, vec and base + vec, each built through
    `from_structure` with its own Jacobi run, and K1 = K(base + vec) - K0 -
    K2.  J(base) = 0, J(vec) = 0 and J(base + vec) = 0 force the cross term
    to vanish, so the three runs certify the family for every c."""
    dim, base, vec = so_pq._deformation_constants(p, q)
    b = LieAlgebra.from_structure(dim, base)
    v = LieAlgebra.from_structure(dim, vec)
    joint = LieAlgebra.from_structure(dim, base + vec)
    k0, k2 = b.killing_form().gram, v.killing_form().gram
    k1 = joint.killing_form().gram - k0 - k2
    return dim, b.structure, v.structure, k0, k1, k2


def dense_congruence_diagonalize(b):
    """(P, diagonal) with P^t.b.P diagonal by symmetric Gaussian congruence
    on dense lists of rationals: at step k a zero diagonal entry is swapped
    with the first later nonzero one, or else sheared with the first later
    index it pairs with, and then row and column k are cleared below and
    right of the diagonal, the transform P tracked column by column."""
    n = b.rows
    m = [row[:] for row in b.to_rows()]
    p = [row[:] for row in Matrix.identity(n).to_rows()]

    def col_op(dst, src, f):
        for row in m:
            row[dst] += f * row[src]
        for row in p:
            row[dst] += f * row[src]

    def row_op(dst, src, f):
        m[dst] = [x + f * y for x, y in zip(m[dst], m[src])]

    def swap(i, j):
        m[i], m[j] = m[j], m[i]
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in p:
            row[i], row[j] = row[j], row[i]

    for k in range(n):
        if m[k][k] == 0:
            pivot = next((j for j in range(k + 1, n) if m[j][j] != 0), None)
            if pivot is not None:
                swap(k, pivot)
            else:
                off = next((j for j in range(k + 1, n) if m[k][j] != 0), None)
                if off is None:
                    continue
                row_op(k, off, ONE)
                col_op(k, off, ONE)
        d = m[k][k]
        for i in range(k + 1, n):
            f = -m[i][k] / d
            if f:
                row_op(i, k, f)
                col_op(i, k, f)
    return Matrix.from_rows(p), [m[i][i] for i in range(n)]
