"""Exact dense linear algebra over the rationals.

Every operation here is pure and exact: no floating point, no rounding.
Scalars are `gmpy2.mpq` when available (much faster), otherwise
`fractions.Fraction`; both keep values in lowest terms with a positive
denominator.
"""

from __future__ import annotations

import math as _math
import re as _re

from .errors import ContractError, ShapeMismatchError

try:
    from gmpy2 import mpq as Rational
except ImportError:  # pure-Python fallback; the acceptance budgets hold on it too
    from fractions import Fraction as Rational

ZERO = Rational(0)
ONE = Rational(1)


# optional sign, digits, then optionally '/' and an unsigned nonzero denominator
_RAT_TOKEN = _re.compile(r"^[+-]?\d+(/0*[1-9]\d*)?$")


def rat(value) -> Rational:
    """Coerce ints, 'p/q' strings and rational types to the scalar in use."""
    if type(value) is Rational:
        return value  # already exact and normalized; scalars are immutable
    if isinstance(value, float):
        raise ContractError("floats are not accepted; use 'p/q' strings or ints")
    if isinstance(value, str):
        value = value.strip()
        if not _RAT_TOKEN.match(value):
            raise ContractError(f"not a 'p/q' rational token: {value!r}")
    return Rational(value)


def rational_sqrt(value):
    """Exact square root of a rational, or None if it is not a perfect square.

    Only non-negative inputs can succeed.
    """
    value = rat(value)
    if value < 0:
        return None
    rn = _isqrt_exact(value.numerator)
    rd = None if rn is None else _isqrt_exact(value.denominator)
    if rd is None:
        return None
    return Rational(rn, rd)


def _isqrt_exact(n):
    r = _math.isqrt(int(n))
    return r if r * r == n else None


class Matrix:
    """Dense rational matrix with shape; entries stored row-major.

    `Matrix(...)` and the public constructors validate every entry through
    `rat()`.  Results of matrix operations come from `_trusted`, which skips
    that: their entries are already scalars of the type in use.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = [rat(x) for x in entries]
        if len(entries) != rows * cols:
            raise ShapeMismatchError(
                f"expected {rows * cols} entries, got {len(entries)}"
            )
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def _trusted(cls, rows: int, cols: int, entries: list) -> "Matrix":
        """Wrap a fresh list of rows * cols scalars without re-coercion.

        The new matrix owns `entries`; callers must not keep or share it.
        """
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.entries = entries
        return m

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat = []
        for r in rows:
            if len(r) != ncols:
                raise ShapeMismatchError("ragged rows")
            flat.extend(r)
        return cls(nrows, ncols, flat)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._trusted(rows, cols, [ZERO] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        m = cls.zeros(n, n)
        for i in range(n):
            m.entries[i * n + i] = ONE
        return m

    @classmethod
    def diagonal(cls, diag) -> "Matrix":
        n = len(diag)
        m = cls.zeros(n, n)
        for i, d in enumerate(diag):
            m.entries[i * n + i] = rat(d)
        return m

    @classmethod
    def column(cls, values) -> "Matrix":
        return cls(len(values), 1, list(values))

    def __getitem__(self, ij) -> Rational:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row_list(self, i: int):
        c = self.cols
        return self.entries[i * c : (i + 1) * c]

    def to_rows(self):
        return [self.row_list(i) for i in range(self.rows)]

    def column_list(self, j: int):
        return [self.entries[i * self.cols + j] for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        r, c, e = self.rows, self.cols, self.entries
        return Matrix._trusted(c, r, [e[i * c + j] for j in range(c) for i in range(r)])

    def trace(self) -> Rational:
        if self.rows != self.cols:
            raise ShapeMismatchError("trace of a non-square matrix")
        n = self.rows
        return sum((self.entries[i * n + i] for i in range(n)), ZERO)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        n = self.rows
        e = self.entries
        return all(
            e[i * n + j] == e[j * n + i] for i in range(n) for j in range(i + 1, n)
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.entries)))

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatchError("matrix addition shape mismatch")
        return Matrix._trusted(
            self.rows,
            self.cols,
            [
                a + b if a and b else (b if b else a)
                for a, b in zip(self.entries, other.entries)
            ],
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatchError("matrix subtraction shape mismatch")
        return Matrix._trusted(
            self.rows,
            self.cols,
            [
                a - b if a and b else (-b if b else a)
                for a, b in zip(self.entries, other.entries)
            ],
        )

    def __neg__(self) -> "Matrix":
        return Matrix._trusted(self.rows, self.cols, [-a for a in self.entries])

    def scale(self, k) -> "Matrix":
        k = rat(k)
        return Matrix._trusted(
            self.rows, self.cols, [k * a if a else ZERO for a in self.entries]
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return mat_mul(self, other)

    def __repr__(self):
        body = "; ".join(
            " ".join(str(x) for x in self.row_list(i)) for i in range(self.rows)
        )
        return f"Matrix({self.rows}x{self.cols}: {body})"


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact matrix product; raises ShapeMismatchError on bad shapes."""
    if a.cols != b.rows:
        raise ShapeMismatchError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    n, m, k = a.rows, a.cols, b.cols
    ae, be = a.entries, b.entries
    out = []
    # nonzero (column, value) pairs of each row of b; zeros contribute nothing
    brows = [
        [(l, y) for l, y in enumerate(be[j * k : (j + 1) * k]) if y] for j in range(m)
    ]
    for i in range(n):
        acc = [ZERO] * k
        base = i * m
        for j in range(m):
            aij = ae[base + j]
            if aij:
                for l, y in brows[j]:
                    acc[l] += aij * y
        out.extend(acc)
    return Matrix._trusted(n, k, out)


def mat_vec(a: Matrix, v):
    """Product of a matrix with a coefficient list."""
    if a.cols != len(v):
        raise ShapeMismatchError("matrix-vector shape mismatch")
    e = a.entries
    c = a.cols
    out = []
    for i in range(a.rows):
        base = i * c
        s = ZERO
        for j, vj in enumerate(v):
            if vj:
                s += e[base + j] * vj
        out.append(s)
    return out


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product (used for the Clifford gamma construction)."""
    out = Matrix.zeros(a.rows * b.rows, a.cols * b.cols)
    oc = out.cols
    for i in range(a.rows):
        for j in range(a.cols):
            aij = a[i, j]
            if not aij:
                continue
            for k in range(b.rows):
                base = (i * b.rows + k) * oc + j * b.cols
                brow = b.row_list(k)
                for l, x in enumerate(brow):
                    if x:
                        out.entries[base + l] = aij * x
    return out


def rref(rows):
    """In-place reduced row echelon form.

    Returns (nonzero reduced rows, pivot column indices).  Leading entries
    are 1 and pivot columns are cleared above and below, which makes the
    result canonical for the row space.
    """
    m = len(rows)
    if m == 0:
        return [], []
    n = len(rows[0])
    pivots = []
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        pv = prow[c]
        if pv != 1:
            prow = rows[r] = [x / pv for x in prow]
        for i in range(r + 1, m):
            f = rows[i][c]
            if f:
                ri = rows[i]
                rows[i] = [x - f * y for x, y in zip(ri, prow)]
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
                ri = rows[i]
                rows[i] = [x - f * y for x, y in zip(ri, prow)]
    return rows[: len(pivots)], pivots


class Subspace:
    """Subspace of Q^n held in canonical reduced echelon form.

    Two Subspace objects are equal exactly when they describe the same
    subspace, whatever generating vectors they were built from.
    """

    __slots__ = ("ambient_dim", "_rows")

    def __init__(self, ambient_dim: int, reduced_rows):
        self.ambient_dim = ambient_dim
        self._rows = tuple(tuple(r) for r in reduced_rows)

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors) -> "Subspace":
        rows = []
        for v in vectors:
            if isinstance(v, Matrix):
                if v.cols != 1 or v.rows != ambient_dim:
                    raise ShapeMismatchError("basis vectors must be ambient_dim x 1")
                rows.append(list(v.entries))
            else:
                if len(v) != ambient_dim:
                    raise ShapeMismatchError("vector length != ambient dimension")
                rows.append([rat(x) for x in v])
        reduced, _ = rref(rows)
        return cls(ambient_dim, reduced)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, [])

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls.from_vectors(
            ambient_dim, Matrix.identity(ambient_dim).to_rows()
        )

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def basis(self):
        """Canonical basis as a list of column vectors."""
        return [Matrix.column(r) for r in self._rows]

    def basis_rows(self):
        return [list(r) for r in self._rows]

    def pivot_columns(self):
        pivots = []
        for row in self._rows:
            for j, x in enumerate(row):
                if x:
                    pivots.append(j)
                    break
        return pivots

    def contains(self, vector) -> bool:
        return self.reduce(vector) is not None

    def reduce(self, vector):
        """Return coordinates of `vector` w.r.t. the canonical basis, or None."""
        if isinstance(vector, Matrix):
            vector = list(vector.entries)
        else:
            vector = [rat(x) for x in vector]
        if len(vector) != self.ambient_dim:
            raise ShapeMismatchError("vector length != ambient dimension")
        coords = []
        for row in self._rows:
            pivot = next(j for j, x in enumerate(row) if x)
            f = vector[pivot]
            coords.append(f)
            if f:
                vector = [x - f * y for x, y in zip(vector, row)]
        if any(x != 0 for x in vector):
            return None
        return coords

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(list(r)) for r in other._rows)

    def complement_coordinate_indices(self):
        """Coordinate indices spanning a complement (the non-pivot columns)."""
        pivots = set(self.pivot_columns())
        return [j for j in range(self.ambient_dim) if j not in pivots]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.ambient_dim, self._rows))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def kernel(a: Matrix) -> Subspace:
    """Canonical basis of the null space {x : a.x = 0}."""
    reduced, pivots = rref(a.to_rows())
    n = a.cols
    free = [j for j in range(n) if j not in pivots]
    vectors = []
    for f in free:
        v = [ZERO] * n
        v[f] = ONE
        for k, c in enumerate(pivots):
            v[c] = -reduced[k][f]
        vectors.append(v)
    return Subspace.from_vectors(n, vectors)


class NoSolutionType:
    """Singleton marker: the linear system has no solution."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NO_SOLUTION"

    def __bool__(self):
        return False


NO_SOLUTION = NoSolutionType()


def solve_linear(a: Matrix, b: Matrix):
    """Exact affine solution set of a.X = b.

    Returns (particular, kernel(a)) where particular is a Matrix with the
    same column count as b, or NO_SOLUTION when the system is inconsistent.
    Inconsistency is a value, not an error.
    """
    if a.rows != b.rows:
        raise ShapeMismatchError("right-hand side row count mismatch")
    n = a.cols
    k = b.cols
    rows = [a.row_list(i) + b.row_list(i) for i in range(a.rows)]
    reduced, pivots = rref(rows)
    for c in pivots:
        if c >= n:
            return NO_SOLUTION, kernel(a)
    sol = [[ZERO] * k for _ in range(n)]
    for r, c in enumerate(pivots):
        sol[c] = reduced[r][n:]
    return Matrix.from_rows(sol), kernel(a)


def invert(a: Matrix) -> Matrix:
    if a.rows != a.cols:
        raise ShapeMismatchError("only square matrices can be inverted")
    sol, ker = solve_linear(a, Matrix.identity(a.rows))
    if sol is NO_SOLUTION or ker.dim:
        raise ContractError("matrix is singular")
    return sol


def inertia_of_diagonalizable_form(b: Matrix):
    """Sylvester inertia (n+, n-, n0) of a symmetric form, by exact
    symmetric Gaussian congruence."""
    if not b.is_symmetric():
        raise ContractError("inertia requires a symmetric matrix")
    n = b.rows
    m = [row[:] for row in b.to_rows()]
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
                # symmetric row+col shear makes the diagonal entry 2*m[k][off]
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
                mk = m[k]
                mi = m[i]
                for j in range(k, n):
                    mi[j] -= f * mk[j]
                for row in m:
                    row[i] -= f * row[k]
    return plus, minus, zero


def congruence_diagonalize(b: Matrix):
    """Invertible rational P with P^t.b.P diagonal; returns (P, diagonal entries).

    Same symmetric Gaussian congruence as the inertia computation, with the
    transform tracked.
    """
    if not b.is_symmetric():
        raise ContractError("congruence diagonalization requires a symmetric matrix")
    n = b.rows
    m = [row[:] for row in b.to_rows()]
    p = [row[:] for row in Matrix.identity(n).to_rows()]

    def col_op(dst, src, f):
        # column_dst += f * column_src, on both m and the transform p
        for row in m:
            row[dst] += f * row[src]
        for row in p:
            row[dst] += f * row[src]

    def row_op(dst, src, f):
        mrow_src = m[src]
        m[dst] = [x + f * y for x, y in zip(m[dst], mrow_src)]

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
    diag = [m[i][i] for i in range(n)]
    return Matrix.from_rows(p), diag


def wedge_square_index(n: int):
    """Lexicographic index pairs (i, j), i < j, fixing the basis of wedge^2."""
    if n < 2:
        raise ContractError("wedge_square_index requires n >= 2")
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def dump_matrix_text(m: Matrix) -> str:
    """Fixture text format: 'rows cols' line, then row-major 'p/q' tokens."""
    lines = [f"{m.rows} {m.cols}"]
    for i in range(m.rows):
        lines.append(" ".join(str(x) for x in m.row_list(i)))
    return "\n".join(lines) + "\n"


def load_matrix_text(text: str) -> Matrix:
    tokens = text.split()
    if len(tokens) < 2:
        raise ContractError("matrix text needs a 'rows cols' header")
    rows, cols = int(tokens[0]), int(tokens[1])
    body = tokens[2:]
    if len(body) != rows * cols:
        raise ShapeMismatchError(
            f"matrix text body has {len(body)} entries, expected {rows * cols}"
        )
    return Matrix(rows, cols, [rat(t) for t in body])
