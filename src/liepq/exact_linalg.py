"""Exact linear algebra over the rationals, computed on Python integers.

Sparse matrices, stored as integer rows over one common denominator, and one
sparse fraction-free elimination engine, `Echelon`, behind `rref`, kernels,
solves, inverses and subspaces.  Every operation here is pure and exact: no
floating point, no rounding.  The inner loops see only Python ints; a
rational scalar is built at the boundary only, when a value is read out
(`m[i, j]`, `row_list`, `entries`, `Echelon.rows`, `basis_rows`, ...), and
read in, through `rat()`.  Scalars are `gmpy2.mpq` when gmpy2 is installed,
otherwise `fractions.Fraction`; both keep values in lowest terms with a
positive denominator, and numerators and denominators enter the integer
core through `int()` either way.
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

_gcd = _math.gcd
_lcm = _math.lcm


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


def _over_common_den(vec: dict):
    """(ints, den): the nonzeros of a sparse vector of rationals (or ints) as
    integers over their least common denominator, vec = ints / den."""
    den = _lcm(1, *{int(x.denominator) for x in vec.values()})
    return {k: int(x.numerator) * (den // int(x.denominator)) for k, x in vec.items() if x}, den


def _quotient(x: int, den: int) -> Rational:
    """The rational x / den, for ints x and den > 0."""
    return Rational(x) if den == 1 else Rational(x, den)


class Matrix:
    """Sparse rational matrix with shape: integer rows over one denominator.

    `_data` maps a row index to {column: int} and `den` is a positive int;
    entry (i, j) is _data[i][j] / den.  A zero is never stored, neither is
    an empty row, and the form is canonical: the gcd of `den` and all stored
    entries is 1 (so the zero matrix has den 1).  Two matrices are therefore
    equal exactly when their shapes, denominators and stored rows are.
    Products, sums, scaling, negation, transposition and the zero and
    symmetry tests visit only nonzeros and run on ints; the result's
    denominator is the product or lcm of the operands' ones, reduced by one
    gcd pass (a sum with a zero operand is a copy, and scaling by an integer
    k cancels only gcd(den, k)).  A matrix is never changed after construction, and no
    operation returns an operand or shares rows with one.  Every read
    (`m[i, j]`, `entries`, `row_list`, `sparse_row`, `sparse_vector`,
    `trace`, ...) returns fresh rational scalars.  New matrices come from
    `Matrix(...)`, the named constructors or the `from_sparse` builder,
    which validate every entry through `rat()`.
    """

    __slots__ = ("rows", "cols", "_data", "den")

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
        self._data, self.den = _integer_rows(data)

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
        return _trusted(rows, cols, *_integer_rows(data))

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
        return _trusted(rows, cols, {})

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        _check_shape(n, n)
        return _trusted(n, n, {i: {i: 1} for i in range(n)})

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
        c, den = self.cols, self.den
        for i, row in self._data.items():
            base = i * c
            for j, x in row.items():
                out[base + j] = _quotient(x, den)
        return out

    def _flat(self) -> dict:
        """The stored integers as a fresh {i * cols + j: int} vector over the
        row-major flattening (the matrix is that vector over `den`)."""
        c = self.cols
        return {i * c + j: x for i, row in self._data.items() for j, x in row.items()}

    def sparse_vector(self) -> dict:
        """The nonzeros as a fresh {i * cols + j: value} vector over the
        row-major flattening."""
        den = self.den
        return {k: _quotient(x, den) for k, x in self._flat().items()}

    def __getitem__(self, ij) -> Rational:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index ({i}, {j}) outside a {self.rows}x{self.cols} matrix")
        row = self._data.get(i)
        return _quotient(row.get(j, 0), self.den) if row else ZERO

    def row_list(self, i: int):
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} outside a {self.rows}-row matrix")
        out = [ZERO] * self.cols
        den = self.den
        for j, x in self._data.get(i, {}).items():
            out[j] = _quotient(x, den)
        return out

    def sparse_row(self, i: int) -> dict:
        """Row i's nonzeros as a fresh {column: value} dict."""
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} outside a {self.rows}-row matrix")
        den = self.den
        return {j: _quotient(x, den) for j, x in self._data.get(i, {}).items()}

    def to_rows(self):
        return [self.row_list(i) for i in range(self.rows)]

    def column_list(self, j: int):
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} outside a {self.cols}-column matrix")
        out = [ZERO] * self.rows
        den = self.den
        for i, row in self._data.items():
            x = row.get(j)
            if x is not None:
                out[i] = _quotient(x, den)
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
        return _trusted(self.cols, self.rows, out, self.den)

    def trace(self) -> Rational:
        if self.rows != self.cols:
            raise ShapeMismatchError("trace of a non-square matrix")
        return Rational(sum(row.get(i, 0) for i, row in self._data.items()), self.den)

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
            and self.den == other.den
            and self._data == other._data
        )

    def __hash__(self):
        return hash((
            self.rows,
            self.cols,
            self.den,
            frozenset((i, j, x) for i, row in self._data.items() for j, x in row.items()),
        ))

    def _combine(self, other: "Matrix", sign: int, what: str) -> "Matrix":
        """self + other (sign 1) or self - other (sign -1), on nonzeros."""
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatchError(f"matrix {what} shape mismatch")
        if not other._data:  # x +- 0: a copy of x, already canonical
            data = {i: dict(row) for i, row in self._data.items()}
            return _trusted(self.rows, self.cols, data, self.den)
        if not self._data:  # 0 +- x: a copy of x or of -x
            data = {i: {j: sign * y for j, y in row.items()} for i, row in other._data.items()}
            return _trusted(self.rows, self.cols, data, other.den)
        da, db = self.den, other.den
        den = da if da == db else _lcm(da, db)
        fa, fb = den // da, sign * (den // db)
        if fa == 1:
            out = {i: dict(row) for i, row in self._data.items()}
        else:
            out = {i: {j: x * fa for j, x in row.items()} for i, row in self._data.items()}
        for i, orow in other._data.items():
            row = out.get(i)
            if row is None:
                out[i] = {j: y * fb for j, y in orow.items()}
                continue
            for j, y in orow.items():
                s = row.get(j, 0) + y * fb
                if s:
                    row[j] = s
                else:
                    del row[j]
            if not row:
                del out[i]
        return _reduced(self.rows, self.cols, out, den)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, 1, "addition")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, -1, "subtraction")

    def __neg__(self) -> "Matrix":
        return _trusted(
            self.rows,
            self.cols,
            {i: {j: -x for j, x in row.items()} for i, row in self._data.items()},
            self.den,
        )

    def scale(self, k) -> "Matrix":
        k = rat(k)
        if not k:
            return _trusted(self.rows, self.cols, {})
        kn, kd = int(k.numerator), int(k.denominator)
        if kd == 1:
            # the entries are coprime to den, so only gcd(den, k) cancels
            g = _gcd(self.den, kn)
            kn //= g
            data = {i: {j: kn * x for j, x in row.items()} for i, row in self._data.items()}
            return _trusted(self.rows, self.cols, data, self.den // g)
        return _reduced(
            self.rows,
            self.cols,
            {i: {j: kn * x for j, x in row.items()} for i, row in self._data.items()},
            self.den * kd,
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return mat_mul(self, other)

    def __repr__(self):
        body = "; ".join(
            " ".join(str(x) for x in self.row_list(i)) for i in range(self.rows)
        )
        return f"Matrix({self.rows}x{self.cols}: {body})"


def _trusted(rows: int, cols: int, data: dict, den: int = 1) -> Matrix:
    """Wrap fresh integer rows {i: {j: int}} over den as a Matrix as they are.

    Every value must be a nonzero int, every row nonempty and the form
    canonical (gcd of den and the entries 1).  The new matrix owns `data`;
    callers must not keep or share it, nor any of its rows.
    """
    m = object.__new__(Matrix)
    m.rows = rows
    m.cols = cols
    m._data = data
    m.den = den
    return m


def _reduced(rows: int, cols: int, data: dict, den: int) -> Matrix:
    """`_trusted` after one gcd pass that brings den and the entries to
    lowest terms; skipped when den is 1."""
    if den != 1:
        g = den
        for row in data.values():
            g = _gcd(g, *row.values())
            if g == 1:
                break
        if g != 1:
            data = {i: {j: x // g for j, x in row.items()} for i, row in data.items()}
            den //= g
    return _trusted(rows, cols, data, den)


def _check_shape(rows: int, cols: int):
    if rows < 0 or cols < 0:
        raise ShapeMismatchError(f"negative matrix shape {rows}x{cols}")


def _integer_rows(data: dict):
    """(integer rows, den) for rows {i: {j: nonzero rational}}, over the
    least common denominator of all entries, which is already canonical."""
    den = _lcm(1, *{int(x.denominator) for row in data.values() for x in row.values()})
    return {
        i: {j: int(x.numerator) * (den // int(x.denominator)) for j, x in row.items()}
        for i, row in data.items()
    }, den


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact matrix product; raises ShapeMismatchError on bad shapes.

    Row by row over nonzeros only (Gustavson, ACM TOMS 4, 1978): row i of
    the product accumulates a_ij times row j of b for each nonzero a_ij, on
    the integer rows, over the product of the two denominators.
    """
    if a.cols != b.rows:
        raise ShapeMismatchError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    bdata = b._data
    out = {}
    for i, arow in a._data.items():
        acc = {}
        get = acc.get
        for j, x in arow.items():
            brow = bdata.get(j)
            if brow is not None:
                for l, y in brow.items():
                    acc[l] = get(l, 0) + x * y
        if 0 in acc.values():  # a sum cancelled
            acc = {l: s for l, s in acc.items() if s}
        if acc:
            out[i] = acc
    return _reduced(a.rows, b.cols, out, a.den * b.den)


def mat_vec(a: Matrix, v):
    """Product of a matrix with a coefficient list."""
    if a.cols != len(v):
        raise ShapeMismatchError("matrix-vector shape mismatch")
    vec, vden = _over_common_den(dict(enumerate(v)))
    den = a.den * vden
    out = [ZERO] * a.rows
    for i, s in _mat_vec_int(a._data, vec).items():
        out[i] = Rational(s, den)
    return out


def _mat_vec_int(data: dict, vec: dict) -> dict:
    """Integer rows {i: {j: int}} times a sparse integer vector, as a
    sparse integer vector."""
    out = {}
    for i, row in data.items():
        s = 0
        for j, x in row.items():
            y = vec.get(j)
            if y is not None:
                s += x * y
        if s:
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
    return _reduced(a.rows * br, a.cols * bc, out, a.den * b.den)


def proportionality(a: Matrix, b: Matrix):
    """The exact ratio r with a = r.b, or None when there is none.

    Zero when a is zero, and None when the shapes differ or b is zero and
    a is not.  On the integer rows: a's nonzeros lie inside b's, and every
    entry pair has the cross product of the first, a_k b_0 = a_0 b_k.
    """
    if a.rows != b.rows or a.cols != b.cols:
        return None
    va, vb = a._flat(), b._flat()
    if not va.keys() <= vb.keys():
        return None
    if not vb:
        return ZERO
    k0 = next(iter(vb))
    a0, b0 = va.get(k0, 0), vb[k0]
    if any(va.get(k, 0) * b0 != a0 * y for k, y in vb.items()):
        return None
    return Rational(a0 * b.den, b0 * a.den)


class Echelon:
    """Incremental, fully reduced row echelon form over sparse integer rows.

    `_rows` maps pivot -> {column: int}.  Each row is primitive (its entries
    have gcd 1), positive at its pivot, which is its smallest column, and 0
    at every other pivot.  Divided by its pivot entry it is the canonical
    reduced echelon row, so the integer rows are canonical for their span
    too, and reducing a vector is one pass over its entries.  Elimination
    is fraction-free (Bareiss, Math. Comp. 22, 1968): a row update is
    lead * row - f * new, then division by the content.  `rows`,
    `reduce` and `dense_rows` read out rationals; `_reduce_int` and
    `_insert_int` are the integer paths the library uses.
    """

    __slots__ = ("ambient", "_rows")

    def __init__(self, ambient: int):
        self.ambient = ambient
        self._rows = {}

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> dict:
        """The canonical reduced rows, pivot -> {column: value}, 1 at the
        pivot; a fresh rational copy."""
        return {
            p: {k: _quotient(x, row[p]) for k, x in row.items()}
            for p, row in self._rows.items()
        }

    def _reduce_int(self, vec: dict):
        """(out, scale): out = scale * vec minus integer multiples of the
        stored rows at vec's pivots, a new integer vector with no zeros.

        out / scale is vec reduced: zero at every pivot, and empty exactly
        when vec lies in the span.  A stored row is zero at every other
        pivot, so the factor of each row is vec's own entry at its pivot;
        scale is the lcm of the leads of the rows used.
        """
        rows = self._rows
        hits = [(rows[p], p, f) for p, f in vec.items() if p in rows]
        if not hits:
            return dict(vec), 1
        scale = 1
        for row, p, _ in hits:
            lead = row[p]
            if lead != 1:
                scale = _lcm(scale, lead)
        out = dict(vec) if scale == 1 else {k: x * scale for k, x in vec.items()}
        get = out.get
        for row, p, f in hits:
            f = -f * (scale // row[p])
            for k, y in row.items():
                out[k] = get(k, 0) + f * y
        return {k: x for k, x in out.items() if x}, scale

    def reduce(self, vec: dict) -> dict:
        """A new sparse vector: vec minus the stored rows at its pivots.

        The result is zero at every pivot, and empty exactly when vec lies in
        the span.
        """
        ints, den = _over_common_den(vec)
        out, scale = self._reduce_int(ints)
        den *= scale
        return {k: Rational(x, den) for k, x in out.items()}

    def insert(self, vec: dict) -> bool:
        """Add vec (rational entries) to the span; False, with nothing
        changed, when it is already there."""
        return self._insert_int(_over_common_den(vec)[0])

    def _insert_int(self, vec: dict) -> bool:
        """`insert` for an integer vector with no zeros, left unchanged.
        Stored rows are reduced at the new pivot in place."""
        vec, _ = self._reduce_int(vec)
        if not vec:
            return False
        pivot = min(vec)
        g = _gcd(*vec.values())
        if vec[pivot] < 0:
            g = -g
        if g != 1:
            vec = {k: x // g for k, x in vec.items()}
        lead = vec[pivot]
        for row in self._rows.values():
            f = row.get(pivot)
            if f is not None:
                if lead != 1:
                    for k in row:
                        row[k] *= lead
                for k, y in vec.items():
                    s = row.get(k, 0) - f * y
                    if s:
                        row[k] = s
                    else:
                        del row[k]
                g = _gcd(*row.values())
                if g != 1:
                    for k in row:
                        row[k] //= g
        self._rows[pivot] = vec
        return True

    def copy(self) -> "Echelon":
        """An independent copy; each row is copied, since `insert` mutates
        stored rows."""
        out = Echelon(self.ambient)
        out._rows = {p: dict(row) for p, row in self._rows.items()}
        return out

    def pivots(self):
        return sorted(self._rows)

    def dense_rows(self):
        """The canonical reduced rows as dense lists, in pivot order."""
        out = []
        for p in self.pivots():
            row = self._rows[p]
            lead = row[p]
            v = [ZERO] * self.ambient
            for k, x in row.items():
                v[k] = _quotient(x, lead)
            out.append(v)
        return out


def _echelon(ncols: int, vectors) -> Echelon:
    """The echelon of the span of sparse integer {index: int} vectors in
    Q^ncols.  `Echelon._insert_int` never changes its argument, so a
    matrix's stored rows can go in as they are."""
    ech = Echelon(ncols)
    for vec in vectors:
        ech._insert_int(vec)
    return ech


def _sparse_list(values) -> dict:
    """A list of values as a sparse {index: value} vector, through `rat()`."""
    out = {}
    for j, x in enumerate(values):
        if x is ZERO:  # the zero that dense reads fill in
            continue
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
    ech = _echelon(len(rows[0]), (_over_common_den(_sparse_list(r))[0] for r in rows))
    return ech.dense_rows(), ech.pivots()


class Subspace:
    """Subspace of Q^n held in canonical reduced echelon form.

    Two Subspace objects are equal exactly when they describe the same
    subspace, whatever generating vectors they were built from: the
    primitive integer echelon rows are canonical for the span.
    """

    __slots__ = ("ambient_dim", "_echelon")

    def __init__(self, echelon: Echelon):
        """The span of the echelon's rows; the subspace takes ownership of it."""
        self.ambient_dim = echelon.ambient
        self._echelon = echelon

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors) -> "Subspace":
        ints = []
        for v in vectors:
            if isinstance(v, Matrix):
                if v.cols != 1 or v.rows != ambient_dim:
                    raise ShapeMismatchError("basis vectors must be ambient_dim x 1")
                ints.append(v._flat())
            else:
                if len(v) != ambient_dim:
                    raise ShapeMismatchError("vector length != ambient dimension")
                ints.append(_over_common_den(_sparse_list(v))[0])
        return cls(_echelon(ambient_dim, ints))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(Echelon(ambient_dim))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(_echelon(ambient_dim, ({j: 1} for j in range(ambient_dim))))

    @property
    def dim(self) -> int:
        return len(self._echelon._rows)

    @property
    def basis(self):
        """Canonical basis as a list of column vectors."""
        return self.basis_matrices(self.ambient_dim, 1)

    def basis_matrices(self, rows: int, cols: int):
        """The canonical basis, each vector reshaped row-major into a
        rows x cols matrix: its primitive integer row over its pivot entry."""
        if rows * cols != self.ambient_dim:
            raise ShapeMismatchError(f"a {rows}x{cols} matrix does not hold Q^{self.ambient_dim}")
        out = []
        for p, vec in zip(self.pivot_columns(), self._integer_rows()):
            data = {}
            for k, x in vec.items():
                i, j = divmod(k, cols)
                data.setdefault(i, {})[j] = x
            out.append(_trusted(rows, cols, data, vec[p]))
        return out

    def _integer_rows(self):
        """The primitive integer echelon rows {column: int}, in pivot order:
        each is a positive multiple of the canonical basis row.  Read only."""
        rows = self._echelon._rows
        return [rows[p] for p in self.pivot_columns()]

    def basis_rows(self):
        return self._echelon.dense_rows()

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
            ints, den = vector._flat(), vector.den
        else:
            size = len(vector)
            ints, den = _over_common_den(_sparse_list(vector))
        if size != self.ambient_dim:
            raise ShapeMismatchError("vector length != ambient dimension")
        if self._echelon._reduce_int(ints)[0]:
            return None
        return [_quotient(ints.get(p, 0), den) for p in self.pivot_columns()]

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ShapeMismatchError("vector length != ambient dimension")
        reduce = self._echelon._reduce_int
        return all(not reduce(row)[0] for row in other._echelon._rows.values())

    def complement_coordinate_indices(self):
        """Coordinate indices spanning a complement (the non-pivot columns)."""
        pivots = self._echelon._rows
        return [j for j in range(self.ambient_dim) if j not in pivots]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self._echelon._rows == other._echelon._rows
        )

    def __hash__(self):
        return hash((
            self.ambient_dim,
            frozenset((p, frozenset(row.items())) for p, row in self._echelon._rows.items()),
        ))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def _null_space(ech: Echelon, n: int) -> Subspace:
    """Kernel of the first n columns of a system whose integer rows are ech.

    Row p with p < n and lead r_p reads r_p x_p = -sum of row[f] * x_f over
    the free columns f < n.  Each free column f gives one integer kernel
    vector: x_f = L, the lcm of the leads of the rows that reach f, and
    x_p = -row[f] * L / r_p.
    """
    rows = ech._rows
    free = {f: [] for f in range(n) if f not in rows}
    for p, row in rows.items():
        if p < n:
            for k, x in row.items():
                if k < n and k != p:
                    free[k].append((p, x, row[p]))
    null = Echelon(n)
    for f, terms in free.items():
        big = 1
        for _, _, lead in terms:
            if lead != 1:
                big = _lcm(big, lead)
        vec = {f: big}
        for p, x, lead in terms:
            vec[p] = -x * (big // lead)
        null._insert_int(vec)
    return Subspace(null)


def kernel(a: Matrix) -> Subspace:
    """Canonical basis of the null space {x : a.x = 0}: that of a's
    integer rows, since a / den has the same kernel."""
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
    Inconsistency is a value, not an error.  With a = A / da and b = B / db
    the system is the integer one db.A.X = da.B (both sides over their gcd),
    and one echelon of [db.A | da.B] serves both answers: its rows with
    pivots in a's columns, cut to those columns, are the echelon of a, and
    the particular solution is read over the lcm of their leads.
    """
    if a.rows != b.rows:
        raise ShapeMismatchError("right-hand side row count mismatch")
    n = a.cols
    k = b.cols
    g = _gcd(a.den, b.den)
    fa, fb = b.den // g, a.den // g
    adata, bdata = a._data, b._data
    rows = []
    for i in adata.keys() | bdata.keys():
        row = {j: x * fa for j, x in adata.get(i, {}).items()}
        for j, x in bdata.get(i, {}).items():
            row[n + j] = x * fb
        rows.append(row)
    ech = _echelon(n + k, rows)
    ker = _null_space(ech, n)
    if any(p >= n for p in ech._rows):
        return NO_SOLUTION, ker
    parts = []
    den = 1
    for p, row in ech._rows.items():
        srow = {col - n: x for col, x in row.items() if col >= n}
        if srow:
            lead = row[p]
            parts.append((p, srow, lead))
            if lead != 1:
                den = _lcm(den, lead)
    sol = {}
    for p, srow, lead in parts:
        f = den // lead
        sol[p] = srow if f == 1 else {j: x * f for j, x in srow.items()}
    return _reduced(n, k, sol, den), ker


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
