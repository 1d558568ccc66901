"""Exact linear algebra over the rationals.

Sparse matrices, stored as rows of nonzeros, and one sparse elimination
engine, `Echelon`, behind `rref`, kernels, solves, inverses and subspaces;
a matrix's stored rows go into the engine as they are.  Every operation
here is pure and exact: no floating point, no rounding.
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
    """Sparse rational matrix with shape, stored as rows of nonzeros.

    `_data` maps a row index to {column: value}; a zero is never stored and
    neither is an empty row, so two matrices are equal exactly when their
    shapes and stored rows are.  Products, sums, scaling, negation,
    transposition and the zero and symmetry tests visit only nonzeros.  A
    matrix is never changed after construction: `entries` is a fresh dense
    row-major list on each access, and new matrices come from `Matrix(...)`,
    the named constructors or the `from_sparse` builder, which validate
    every entry through `rat()`.  Results of matrix operations come from
    `_trusted`, which skips that: their entries are already nonzero scalars
    of the type in use.
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: int, cols: int, entries):
        entries = [rat(x) for x in entries]
        _check_shape(rows, cols)
        if len(entries) != rows * cols:
            raise ShapeMismatchError(
                f"expected {rows * cols} entries, got {len(entries)}"
            )
        data = {}
        for i in range(rows):
            row = {j: x for j, x in enumerate(entries[i * cols : (i + 1) * cols]) if x}
            if row:
                data[i] = row
        self.rows = rows
        self.cols = cols
        self._data = data

    @classmethod
    def _trusted(cls, rows: int, cols: int, data: dict) -> "Matrix":
        """Wrap fresh sparse rows {i: {j: value}} without re-coercion.

        Every value must be a nonzero scalar of the type in use and every
        row nonempty.  The new matrix owns `data`; callers must not keep or
        share it, nor any of its rows.
        """
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m._data = data
        return m

    @classmethod
    def from_sparse(cls, rows: int, cols: int, entries) -> "Matrix":
        """The rows x cols matrix with the given {(i, j): value} entries and
        zeros elsewhere; values go through `rat()` and zeros are dropped."""
        _check_shape(rows, cols)
        data = {}
        for (i, j), x in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ShapeMismatchError(
                    f"entry ({i}, {j}) outside a {rows}x{cols} matrix"
                )
            x = rat(x)
            if x:
                row = data.get(i)
                if row is None:
                    data[i] = {j: x}
                else:
                    row[j] = x
        return cls._trusted(rows, cols, data)

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
        _check_shape(rows, cols)
        return cls._trusted(rows, cols, {})

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        _check_shape(n, n)
        return cls._trusted(n, n, {i: {i: ONE} for i in range(n)})

    @classmethod
    def diagonal(cls, diag) -> "Matrix":
        n = len(diag)
        return cls.from_sparse(n, n, {(i, i): d for i, d in enumerate(diag)})

    @classmethod
    def column(cls, values) -> "Matrix":
        return cls(len(values), 1, list(values))

    @property
    def entries(self):
        """A fresh dense row-major list of all rows * cols entries."""
        out = [ZERO] * (self.rows * self.cols)
        c = self.cols
        for i, row in self._data.items():
            base = i * c
            for j, x in row.items():
                out[base + j] = x
        return out

    def sparse_vector(self) -> dict:
        """The nonzeros as a fresh {i * cols + j: value} vector over the
        row-major flattening."""
        c = self.cols
        return {i * c + j: x for i, row in self._data.items() for j, x in row.items()}

    def __getitem__(self, ij) -> Rational:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index ({i}, {j}) outside a {self.rows}x{self.cols} matrix")
        row = self._data.get(i)
        return row.get(j, ZERO) if row else ZERO

    def row_list(self, i: int):
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} outside a {self.rows}-row matrix")
        out = [ZERO] * self.cols
        for j, x in self._data.get(i, {}).items():
            out[j] = x
        return out

    def sparse_row(self, i: int) -> dict:
        """Row i's nonzeros as a fresh {column: value} dict."""
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} outside a {self.rows}-row matrix")
        return dict(self._data.get(i, {}))

    def to_rows(self):
        return [self.row_list(i) for i in range(self.rows)]

    def column_list(self, j: int):
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} outside a {self.cols}-column matrix")
        out = [ZERO] * self.rows
        for i, row in self._data.items():
            x = row.get(j)
            if x is not None:
                out[i] = x
        return out

    def transpose(self) -> "Matrix":
        out = {}
        for i, row in self._data.items():
            for j, x in row.items():
                orow = out.get(j)
                if orow is None:
                    out[j] = {i: x}
                else:
                    orow[i] = x
        return Matrix._trusted(self.cols, self.rows, out)

    def trace(self) -> Rational:
        if self.rows != self.cols:
            raise ShapeMismatchError("trace of a non-square matrix")
        return sum((row[i] for i, row in self._data.items() if i in row), ZERO)

    def is_zero(self) -> bool:
        return not self._data

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        data = self._data
        return all(
            data.get(j, {}).get(i) == x for i, row in data.items() for j, x in row.items()
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._data == other._data
        )

    def __hash__(self):
        return hash((
            self.rows,
            self.cols,
            frozenset((i, j, x) for i, row in self._data.items() for j, x in row.items()),
        ))

    def _combine(self, other: "Matrix", sign: int, what: str) -> "Matrix":
        """self + other (sign 1) or self - other (sign -1), on nonzeros."""
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatchError(f"matrix {what} shape mismatch")
        out = {i: dict(row) for i, row in self._data.items()}
        for i, orow in other._data.items():
            row = out.get(i)
            if row is None:
                out[i] = dict(orow) if sign > 0 else {j: -y for j, y in orow.items()}
                continue
            for j, y in orow.items():
                x = row.get(j)
                if x is None:
                    row[j] = y if sign > 0 else -y
                else:
                    s = x + y if sign > 0 else x - y
                    if s:
                        row[j] = s
                    else:
                        del row[j]
            if not row:
                del out[i]
        return Matrix._trusted(self.rows, self.cols, out)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, 1, "addition")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, -1, "subtraction")

    def __neg__(self) -> "Matrix":
        return Matrix._trusted(
            self.rows,
            self.cols,
            {i: {j: -x for j, x in row.items()} for i, row in self._data.items()},
        )

    def scale(self, k) -> "Matrix":
        k = rat(k)
        if not k:
            return Matrix._trusted(self.rows, self.cols, {})
        return Matrix._trusted(
            self.rows,
            self.cols,
            {i: {j: k * x for j, x in row.items()} for i, row in self._data.items()},
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return mat_mul(self, other)

    def __repr__(self):
        body = "; ".join(
            " ".join(str(x) for x in self.row_list(i)) for i in range(self.rows)
        )
        return f"Matrix({self.rows}x{self.cols}: {body})"


def _check_shape(rows: int, cols: int):
    if rows < 0 or cols < 0:
        raise ShapeMismatchError(f"negative matrix shape {rows}x{cols}")


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact matrix product; raises ShapeMismatchError on bad shapes.

    Row by row over nonzeros only (Gustavson, ACM TOMS 4, 1978): row i of
    the product accumulates a_ij times row j of b for each nonzero a_ij,
    and a sum that cancels to zero is dropped at once.
    """
    if a.cols != b.rows:
        raise ShapeMismatchError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    bdata = b._data
    out = {}
    for i, arow in a._data.items():
        acc = {}
        for j, x in arow.items():
            brow = bdata.get(j)
            if brow is None:
                continue
            for l, y in brow.items():
                s = acc.get(l)
                if s is None:
                    acc[l] = x * y
                else:
                    s += x * y
                    if s:
                        acc[l] = s
                    else:
                        del acc[l]
        if acc:
            out[i] = acc
    return Matrix._trusted(a.rows, b.cols, out)


def mat_vec(a: Matrix, v):
    """Product of a matrix with a coefficient list."""
    if a.cols != len(v):
        raise ShapeMismatchError("matrix-vector shape mismatch")
    out = [ZERO] * a.rows
    for i, row in a._data.items():
        s = ZERO
        for j, x in row.items():
            vj = v[j]
            if vj:
                s += x * vj
        out[i] = s
    return out


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product (used for the Clifford gamma construction)."""
    br, bc = b.rows, b.cols
    out = {}
    for i, arow in a._data.items():
        for k, brow in b._data.items():
            out[i * br + k] = {
                j * bc + l: x * y for j, x in arow.items() for l, y in brow.items()
            }
    return Matrix._trusted(a.rows * br, a.cols * bc, out)


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


def _echelon(ncols: int, vectors) -> Echelon:
    """The echelon of the span of sparse {index: value} vectors in Q^ncols.

    `Echelon.insert` never changes its argument, so a matrix's stored rows
    can go in as they are.
    """
    ech = Echelon(ncols)
    for vec in vectors:
        ech.insert(vec)
    return ech


def _sparse_list(values) -> dict:
    """A list of values as a sparse {index: value} vector, through `rat()`."""
    out = {}
    for j, x in enumerate(values):
        x = rat(x)
        if x:
            out[j] = x
    return out


def rref(rows):
    """Reduced row echelon form of a list of equal-length rows.

    Returns (nonzero reduced rows, pivot column indices).  Leading entries
    are 1 and pivot columns are cleared above and below, which makes the
    result canonical for the row space.  The input is left unchanged.
    """
    if not rows:
        return [], []
    ech = _echelon(len(rows[0]), ({j: x for j, x in enumerate(r) if x} for r in rows))
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
        sparse = []
        for v in vectors:
            if isinstance(v, Matrix):
                if v.cols != 1 or v.rows != ambient_dim:
                    raise ShapeMismatchError("basis vectors must be ambient_dim x 1")
                sparse.append(v.sparse_vector())
            else:
                if len(v) != ambient_dim:
                    raise ShapeMismatchError("vector length != ambient dimension")
                sparse.append(_sparse_list(v))
        return cls(_echelon(ambient_dim, sparse))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(Echelon(ambient_dim))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(_echelon(ambient_dim, ({j: ONE} for j in range(ambient_dim))))

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
            size = vector.rows * vector.cols
            vector = vector.sparse_vector()
        else:
            size = len(vector)
            vector = _sparse_list(vector)
        if size != self.ambient_dim:
            raise ShapeMismatchError("vector length != ambient dimension")
        if self._echelon.reduce(vector):
            return None
        return [vector.get(p, ZERO) for p in self.pivot_columns()]

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
    return _null_space(_echelon(a.cols, a._data.values()), a.cols)


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
    adata, bdata = a._data, b._data
    rows = []
    for i in adata.keys() | bdata.keys():
        row = dict(adata.get(i, {}))
        for j, x in bdata.get(i, {}).items():
            row[n + j] = x
        rows.append(row)
    ech = _echelon(n + k, rows)
    ker = _null_space(ech, n)
    if any(p >= n for p in ech.rows):
        return NO_SOLUTION, ker
    sol = {}
    for p, row in ech.rows.items():
        srow = {col - n: x for col, x in row.items() if col >= n}
        if srow:
            sol[p] = srow
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
