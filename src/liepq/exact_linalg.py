"""Exact linear algebra over the rationals.

Dense matrices, and one sparse elimination engine, `Echelon`, behind
`rref`, kernels, solves, inverses and subspaces.  Every operation here is
pure and exact: no floating point, no rounding.
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


def _axpy(acc: dict, f, vec: dict):
    """acc += f * vec on sparse {index: value} vectors, dropping zeros.

    f must be nonzero and vec must hold no zeros, so a product landing on an
    index missing from acc is nonzero.
    """
    for k, v in vec.items():
        a = acc.get(k)
        if a is None:
            acc[k] = f * v
        else:
            s = a + f * v
            if s:
                acc[k] = s
            else:
                del acc[k]


class Echelon:
    """Incremental, fully reduced row echelon form over sparse rows.

    `rows` maps pivot -> {column: value}.  Each row is 1 at its pivot, which
    is its smallest column, and 0 at every other pivot, so at every moment
    the rows are the canonical reduced echelon basis of their span, and
    reducing a vector is one pass over its entries.
    """

    __slots__ = ("ambient", "rows")

    def __init__(self, ambient: int):
        self.ambient = ambient
        self.rows = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """A new sparse vector: vec minus the stored rows at its pivots.

        The result is zero at every pivot, and empty exactly when vec lies in
        the span.  A stored row is zero at every other pivot, so the factor
        of each row is vec's own entry at that row's pivot.
        """
        out = dict(vec)
        rows = self.rows
        for k, f in vec.items():
            row = rows.get(k)
            if row is not None:
                _axpy(out, -f, row)
        return out

    def insert(self, vec: dict) -> bool:
        """Add vec to the span; False, with nothing changed, when it is
        already there.  Stored rows are reduced at the new pivot in place."""
        vec = self.reduce(vec)
        if not vec:
            return False
        pivot = min(vec)
        lead = vec[pivot]
        if lead != 1:
            inv = ONE / lead
            vec = {k: v * inv for k, v in vec.items()}
        for row in self.rows.values():
            f = row.get(pivot)
            if f is not None:
                _axpy(row, -f, vec)
        self.rows[pivot] = vec
        return True

    def copy(self) -> "Echelon":
        """An independent copy; each row is copied, since `insert` mutates
        stored rows."""
        out = Echelon(self.ambient)
        out.rows = {p: dict(row) for p, row in self.rows.items()}
        return out

    def pivots(self):
        return sorted(self.rows)

    def dense_rows(self):
        """The canonical reduced rows as dense lists, in pivot order."""
        out = []
        for p in self.pivots():
            v = [ZERO] * self.ambient
            for k, x in self.rows[p].items():
                v[k] = x
            out.append(v)
        return out


def _echelon(ncols: int, rows) -> Echelon:
    """The echelon of the span of dense rows of length ncols."""
    ech = Echelon(ncols)
    for row in rows:
        ech.insert({j: x for j, x in enumerate(row) if x})
    return ech


def rref(rows):
    """Reduced row echelon form of a list of equal-length rows.

    Returns (nonzero reduced rows, pivot column indices).  Leading entries
    are 1 and pivot columns are cleared above and below, which makes the
    result canonical for the row space.  The input is left unchanged.
    """
    if not rows:
        return [], []
    ech = _echelon(len(rows[0]), rows)
    return ech.dense_rows(), ech.pivots()


class Subspace:
    """Subspace of Q^n held in canonical reduced echelon form.

    Two Subspace objects are equal exactly when they describe the same
    subspace, whatever generating vectors they were built from.
    """

    __slots__ = ("ambient_dim", "_echelon", "_rows")

    def __init__(self, echelon: Echelon):
        """The span of the echelon's rows; the subspace takes ownership of it."""
        self.ambient_dim = echelon.ambient
        self._echelon = echelon
        self._rows = tuple(tuple(r) for r in echelon.dense_rows())

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors) -> "Subspace":
        rows = []
        for v in vectors:
            if isinstance(v, Matrix):
                if v.cols != 1 or v.rows != ambient_dim:
                    raise ShapeMismatchError("basis vectors must be ambient_dim x 1")
                rows.append(v.entries)
            else:
                if len(v) != ambient_dim:
                    raise ShapeMismatchError("vector length != ambient dimension")
                rows.append([rat(x) for x in v])
        return cls(_echelon(ambient_dim, rows))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(Echelon(ambient_dim))

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

    def echelon(self) -> Echelon:
        """A fresh copy of the canonical echelon, free to grow."""
        return self._echelon.copy()

    def pivot_columns(self):
        return self._echelon.pivots()

    def contains(self, vector) -> bool:
        return self.reduce(vector) is not None

    def reduce(self, vector):
        """Return coordinates of `vector` w.r.t. the canonical basis, or None.

        The basis is the identity on the pivot columns, so the coordinates
        are the vector's own entries there.
        """
        if isinstance(vector, Matrix):
            vector = vector.entries
        else:
            vector = [rat(x) for x in vector]
        if len(vector) != self.ambient_dim:
            raise ShapeMismatchError("vector length != ambient dimension")
        if self._echelon.reduce({j: x for j, x in enumerate(vector) if x}):
            return None
        return [vector[p] for p in self.pivot_columns()]

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(list(r)) for r in other._rows)

    def complement_coordinate_indices(self):
        """Coordinate indices spanning a complement (the non-pivot columns)."""
        pivots = self._echelon.rows
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


def _null_space(ech: Echelon, n: int) -> Subspace:
    """Kernel of the first n columns of a system whose reduced rows are ech.

    Row p with p < n reads x_p = -sum of row[f] * x_f over the free columns
    f < n; each free column gives one kernel vector.
    """
    free = {f: {f: ONE} for f in range(n) if f not in ech.rows}
    for p, row in ech.rows.items():
        if p < n:
            for k, x in row.items():
                if k < n and k != p:
                    free[k][p] = -x
    null = Echelon(n)
    for v in free.values():
        null.insert(v)
    return Subspace(null)


def kernel(a: Matrix) -> Subspace:
    """Canonical basis of the null space {x : a.x = 0}."""
    return _null_space(_echelon(a.cols, a.to_rows()), a.cols)


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
    Inconsistency is a value, not an error.  One echelon of [a | b] serves
    both: its rows with pivots in a's columns, cut to those columns, are the
    reduced echelon form of a.
    """
    if a.rows != b.rows:
        raise ShapeMismatchError("right-hand side row count mismatch")
    n = a.cols
    k = b.cols
    ech = _echelon(n + k, (a.row_list(i) + b.row_list(i) for i in range(a.rows)))
    ker = _null_space(ech, n)
    if any(p >= n for p in ech.rows):
        return NO_SOLUTION, ker
    sol = [ZERO] * (n * k)
    for p, row in ech.rows.items():
        for col, x in row.items():
            if col >= n:
                sol[p * k + col - n] = x
    return Matrix._trusted(n, k, sol), ker


def invert(a: Matrix) -> Matrix:
    if a.rows != a.cols:
        raise ShapeMismatchError("only square matrices can be inverted")
    sol, ker = solve_linear(a, Matrix.identity(a.rows))
    if sol is NO_SOLUTION or ker.dim:
        raise ContractError("matrix is singular")
    return sol


def inertia_of_diagonalizable_form(b: Matrix):
    """Sylvester inertia (n+, n-, n0) of a symmetric form: the signs of the
    diagonal that `congruence_diagonalize` reaches."""
    _, diag = congruence_diagonalize(b)
    plus = sum(1 for d in diag if d > 0)
    minus = sum(1 for d in diag if d < 0)
    return plus, minus, len(diag) - plus - minus


def congruence_diagonalize(b: Matrix):
    """Invertible rational P with P^t.b.P diagonal; returns (P, diagonal entries).

    Exact symmetric Gaussian congruence, with the transform tracked.
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
