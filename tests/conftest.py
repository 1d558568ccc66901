from fractions import Fraction

import pytest

from liepq.exact_linalg import Matrix, _quotient, rat
from liepq.lie_core import LieAlgebra
from liepq.so_pq import generator_pairs, so_pq_algebra


def unit_matrix(i, j, n):
    return Matrix.from_sparse(n, n, {(i, j): rat(1)})


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
        xi = phi.column_list(i)
        for j in range(i + 1, d):
            lhs = [rat(0)] * dst.dim
            for k, v in src.structure_entry(i, j).items():
                for r in range(dst.dim):
                    lhs[r] += v * phi[r, k]
            if lhs != dst.bracket_coeffs(xi, phi.column_list(j)):
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
