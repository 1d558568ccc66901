"""Exact linear algebra over the rationals, computed on Python integers.

Sparse matrices, stored as integer rows over one common denominator, and one
sparse fraction-free elimination engine, `Echelon`, behind `rref`, kernels,
solves, inverses and subspaces.  Every operation here is pure and exact: no
floating point, no rounding.  The inner loops see only Python ints; a
rational scalar is built at the boundary only, when a value is read out
(`m[i, j]`, `row_list`, `entries`, `basis_rows`, `Subspace.reduce`, ...),
and read in, through `rat()`; `Echelon` itself takes and keeps integer
vectors only.  Scalars are `gmpy2.mpq` when gmpy2 is installed,
otherwise `fractions.Fraction`; both keep values in lowest terms with a
positive denominator, and numerators and denominators enter the integer
core through `int()` either way.

The matrix kernels keep four rules.  The hot kernels (`mat_mul`, sums
and differences, `scale`, `transpose` and the gcd pass `_reduced`) write
the four slots of their result themselves; rows a caller accumulated,
cancelled zeros and all, become a `Matrix` through `_accumulated`, and
`_trusted` wraps every other result made from integer rows.  An empty
result is the zero matrix with den 1, whatever the operands'
denominators are, and takes no gcd pass.  `a @ b` looks the
module-level `mat_mul` up by name at call time, so that wrapping that
name (as a tracer does) sees every product.  Every hot kernel, `Echelon`'s
`reduce` and `insert`, `_accumulated` and the rational-to-integer intake
(`_integer_rows`, `_integer_list`) included, runs in one Python frame
per call (two where `_reduced` ends it): its loops are plain `for` loops,
not comprehensions.  On
Python 3.11 every comprehension runs in a function frame of its own
(PEP 709 inlines them only from 3.12), and that fixed cost outweighs the
work on rows of one or two nonzeros, the common case of the deformation
family's images.  The intake reads each scalar once, as `int(n), int(d)`
from `as_integer_ratio()`, so the integer core sees Python ints on either
backend.
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
_RAT_TOKEN = _re.compile(r"^[+-]?\d+(/0*[1-9]\d*)?$", _re.ASCII)


def rat(value) -> Rational:
    """Coerce ints, 'p/q' strings and rational types to the scalar in use;
    anything else, a bool or a float included, raises ContractError."""
    if type(value) is Rational:
        return value  # already exact and normalized; scalars are immutable
    if isinstance(value, float):
        raise ContractError("floats are not accepted; use 'p/q' strings or ints")
    if isinstance(value, bool):
        raise ContractError(f"bools are not rationals: {value!r}")
    if isinstance(value, str):
        value = value.strip()
        if not _RAT_TOKEN.match(value):
            raise ContractError(f"not a 'p/q' rational token: {value!r}")
    try:
        return Rational(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ContractError(f"not a rational: {value!r}") from exc


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


def _integer_list(values):
    """(ints, den): a dense list of values, each through `rat()`, as its
    nonzeros {index: int} over their least common denominator."""
    out = {}
    fracs = []
    den = 1
    for j, x in enumerate(values):
        if x is ZERO:  # the zero that dense reads fill in
            continue
        if type(x) is not Rational:
            x = rat(x)
        n, d = x.as_integer_ratio()
        if n:
            out[j] = int(n)
            if d != 1:
                d = int(d)
                fracs.append((j, d))
                if den % d:
                    den = _lcm(den, d)
    if den != 1:
        for j in out:
            out[j] *= den
        for j, d in fracs:
            out[j] //= d
    return out, den


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
    gcd pass when it is not 1 (scaling by an integer k cancels only
    gcd(den, k)).  No stored row, nor the row map, is ever written after
    construction, so a result may be an operand (x + 0, 0 + x and
    x.scale(1) are x) and may share rows with one (a sum copies only the
    rows the other operand touches, and a product shares row j of its
    right factor wherever a row of the left one is e_j).  Every read
    (`m[i, j]`, `entries`, `row_list`, `sparse_row`, `trace`, ...) returns
    fresh rational scalars.  New matrices come from `Matrix(...)`, the
    named constructors or the `from_sparse` builder, which validate every
    entry through `rat()`.  The hot operations (products, sums, scaling,
    transposition) write their result's slots themselves, in per-row plain
    loops; every other result is built by `_trusted`; an empty result has
    den 1 (see the module docstring).
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

    def transpose(self) -> "Matrix":
        out = {}
        for i, row in self._data.items():
            for j, x in row.items():
                orow = out.get(j)
                if orow is None:
                    out[j] = {i: x}
                else:
                    orow[i] = x
        m = object.__new__(Matrix)
        m.rows = self.cols
        m.cols = self.rows
        m._data = out
        m.den = self.den
        return m

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
        return self is other or (
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

    def _combine(self, other: "Matrix", sign: int = 1, what: str = "addition") -> "Matrix":
        """self + other (sign 1) or self - other (sign -1), on nonzeros.

        x +- 0 is x, 0 + x is x and 0 - x is -x.  Otherwise the result
        starts from a shallow copy of self's row map (or scaled copies of
        its rows, when the denominators differ) and copies only the rows of
        self that other touches; a row only other has is other's row when
        it needs no scaling.
        """
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatchError(f"matrix {what} shape mismatch")
        if not other._data:
            return self
        if not self._data:
            return other if sign == 1 else -other
        da, db = self.den, other.den
        den = da if da == db else _lcm(da, db)
        fa, fb = den // da, sign * (den // db)
        if fa == 1:
            out = dict(self._data)
        else:
            out = {}
            for i, row in self._data.items():
                srow = {}
                for j, x in row.items():
                    srow[j] = fa * x
                out[i] = srow
        for i, orow in other._data.items():
            row = out.get(i)
            if row is None:
                if fb == 1:
                    out[i] = orow
                else:
                    row = {}
                    for j, y in orow.items():
                        row[j] = y * fb
                    out[i] = row
                continue
            if fa == 1:  # self's own row: stored rows are never written
                row = dict(row)
            for j, y in orow.items():
                s = row.get(j, 0) + y * fb
                if s:
                    row[j] = s
                else:
                    del row[j]
            if row:
                out[i] = row
            else:
                del out[i]
        if den != 1:
            return _reduced(self.rows, self.cols, out, den)
        m = object.__new__(Matrix)
        m.rows = self.rows
        m.cols = self.cols
        m._data = out
        m.den = 1
        return m

    __add__ = _combine

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, -1, "subtraction")

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, k) -> "Matrix":
        if type(k) is not Rational:
            k = rat(k)
        kn, kd = k.as_integer_ratio()
        kn, kd = int(kn), int(kd)
        den = self.den
        if kd == 1:
            if kn == 1:
                return self
            # the entries are coprime to den, so only gcd(den, k) cancels
            # (all of den when k is 0, which leaves the zero matrix, den 1)
            g = _gcd(den, kn)
            kn //= g
            den //= g
        else:
            den *= kd
        out = {}
        if kn:
            for i, row in self._data.items():
                orow = {}
                for j, x in row.items():
                    orow[j] = kn * x
                out[i] = orow
        if kd != 1:
            return _reduced(self.rows, self.cols, out, den)
        m = object.__new__(Matrix)
        m.rows = self.rows
        m.cols = self.cols
        m._data = out
        m.den = den
        return m

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return mat_mul(self, other)

    def __repr__(self):
        body = "; ".join(
            " ".join(str(x) for x in self.row_list(i)) for i in range(self.rows)
        )
        return f"Matrix({self.rows}x{self.cols}: {body})"


def _trusted(rows: int, cols: int, data: dict, den: int = 1) -> Matrix:
    """Wrap integer rows {i: {j: int}} over den as a Matrix as they are.

    Every value must be a nonzero int, every row nonempty and the form
    canonical (gcd of den and the entries 1).  Rows may be shared with
    other matrices; no one writes a stored row, nor `data` itself, after
    this call, so callers hand over `data` and write no row of it again.
    """
    m = object.__new__(Matrix)
    m.rows = rows
    m.cols = cols
    m._data = data
    m.den = den
    return m


def _reduced(rows: int, cols: int, data: dict, den: int) -> Matrix:
    """The Matrix of integer rows data over den, as `_trusted` takes them
    but after one gcd pass that brings den and the entries to lowest
    terms; skipped when den is 1."""
    if den != 1:
        g = den
        for row in data.values():
            g = _gcd(g, *row.values())
            if g == 1:
                break
        if g != 1:
            out = {}
            for i, row in data.items():
                orow = {}
                for j, x in row.items():
                    orow[j] = x // g
                out[i] = orow
            data = out
            den //= g
    m = object.__new__(Matrix)
    m.rows = rows
    m.cols = cols
    m._data = data
    m.den = den
    return m


def _accumulated(rows: int, cols: int, acc: dict, den: int) -> Matrix:
    """The Matrix of integer rows {i: {j: int}} over den that a caller
    accumulated: a row holding a cancelled zero is rebuilt without it, an
    empty row is dropped, and `_reduced` brings the form to lowest terms.
    The rows of acc are handed over as `_trusted` takes them."""
    data = {}
    for i, row in acc.items():
        if 0 in row.values():
            nonzero = {}
            for j, x in row.items():
                if x:
                    nonzero[j] = x
            row = nonzero
        if row:
            data[i] = row
    return _reduced(rows, cols, data, den)


def _check_shape(rows: int, cols: int):
    if rows < 0 or cols < 0:
        raise ShapeMismatchError(f"negative matrix shape {rows}x{cols}")


def _integer_rows(data: dict):
    """(integer rows, den) for rows {i: {j: nonzero rational}}, over the
    least common denominator of all entries, which is already canonical."""
    out = {}
    fracs = []
    den = 1
    for i, row in data.items():
        orow = {}
        for j, x in row.items():
            n, d = x.as_integer_ratio()
            orow[j] = int(n)
            if d != 1:
                d = int(d)
                fracs.append((orow, j, d))
                if den % d:
                    den = _lcm(den, d)
        out[i] = orow
    if den != 1:
        for orow in out.values():
            for j in orow:
                orow[j] *= den
        for orow, j, d in fracs:
            orow[j] //= d
    return out, den


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact matrix product; raises ShapeMismatchError on bad shapes.

    Row by row over nonzeros only (Gustavson, ACM TOMS 4, 1978): row i of
    the product accumulates a_ij times row j of b for each nonzero a_ij, on
    the integer rows, over the product of the two denominators.  Where
    row i of a is e_j, row i of the product is row j of b itself, shared.
    """
    if a.cols != b.rows:
        raise ShapeMismatchError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    bdata = b._data
    out = {}
    for i, arow in a._data.items():
        if len(arow) == 1:  # row i is x times row j of b
            for j in arow:
                brow = bdata.get(j)
                if brow is not None:
                    x = arow[j]
                    if x == 1:
                        out[i] = brow
                    else:
                        orow = {}
                        for l, y in brow.items():
                            orow[l] = x * y
                        out[i] = orow
            continue
        acc = {}
        get = acc.get
        for j, x in arow.items():
            brow = bdata.get(j)
            if brow is not None:
                for l, y in brow.items():
                    acc[l] = get(l, 0) + x * y
        if 0 in acc.values():  # a sum cancelled
            row = {}
            for l, s in acc.items():
                if s:
                    row[l] = s
            acc = row
        if acc:
            out[i] = acc
    den = a.den * b.den
    if den != 1 and out:
        return _reduced(a.rows, b.cols, out, den)
    m = object.__new__(Matrix)  # an empty product is the zero matrix, den 1
    m.rows = a.rows
    m.cols = b.cols
    m._data = out
    m.den = 1
    return m


def _intertwining_defect(a: Matrix, p: Matrix, b: Matrix):
    """(vec, den) with a.p - p.b = vec / den, for r x r a, r x s p, s x s b.

    vec holds the nonzero ints at the row-major keys i * s + j and den is
    a.den * p.den * b.den, not reduced: every caller feeds an echelon, which
    makes rows primitive.  One Gustavson pass over the integer rows, a.p
    times b.den and then p.b times -a.den into one accumulator (both are
    r x s); no product matrix is built.  Raises ShapeMismatchError on bad
    shapes.
    """
    r, s = p.rows, p.cols
    if (a.rows, a.cols, b.rows, b.cols) != (r, r, s, s):
        raise ShapeMismatchError(
            f"defect of a {a.rows}x{a.cols}, a {r}x{s} and a {b.rows}x{b.cols} matrix"
        )
    acc = {}
    get = acc.get
    for left, right, f in ((a._data, p._data, b.den), (p._data, b._data, -a.den)):
        for i, lrow in left.items():
            base = i * s
            for j, x in lrow.items():
                rrow = right.get(j)
                if rrow is not None:
                    x *= f
                    for l, y in rrow.items():
                        k = base + l
                        acc[k] = get(k, 0) + x * y
    if 0 in acc.values():  # a sum cancelled
        acc = {k: v for k, v in acc.items() if v}
    return acc, a.den * p.den * b.den


def _combine_maps(maps, coeffs: dict, m, n, cden=1):
    """The m x n matrix sum of coeffs[i] * maps[i] / cden, exactly, for sparse
    integer coefficients {i: int} over one positive cden; computed on the
    integer rows over the lcm of the maps' denominators."""
    den = 1
    for i in coeffs:
        den = _lcm(den, maps[i].den)
    acc = {}
    for i, c in coeffs.items():
        phi = maps[i]
        f = c * (den // phi.den)
        for r, row in phi._data.items():
            arow = acc.setdefault(r, {})
            for j, x in row.items():
                arow[j] = arow.get(j, 0) + f * x
    return _accumulated(m, n, acc, den * cden)


def mat_vec(a: Matrix, v):
    """Product of a matrix with a coefficient list."""
    if a.cols != len(v):
        raise ShapeMismatchError("matrix-vector shape mismatch")
    vec, vden = _integer_list(v)
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
    lead * row - f * new, then division by the content.  `insert` and
    `reduce` take sparse integer vectors {column: int} with no zeros;
    `dense_rows` reads the rows out as rationals.
    """

    __slots__ = ("ambient", "_rows")

    def __init__(self, ambient: int):
        self.ambient = ambient
        self._rows = {}

    @property
    def dim(self) -> int:
        return len(self._rows)

    def reduce(self, vec: dict):
        """(out, scale): out = scale * vec minus integer multiples of the
        stored rows at vec's pivots, a new integer vector with no zeros.

        out / scale is vec reduced: zero at every pivot, and empty exactly
        when vec lies in the span.  A stored row is zero at every other
        pivot, so the factor of each row is vec's own entry at its pivot;
        scale is the lcm of the leads of the rows used.
        """
        rows = self._rows
        hits = []
        scale = 1
        for p, f in vec.items():
            row = rows.get(p)
            if row is not None:
                lead = row[p]
                hits.append((row, lead, f))
                if scale % lead:
                    scale = _lcm(scale, lead)
        if not hits:
            return dict(vec), 1
        if scale == 1:
            out = dict(vec)
        else:
            out = {}
            for k, x in vec.items():
                out[k] = x * scale
        get = out.get
        for row, lead, f in hits:
            f = -f * (scale // lead)
            for k, y in row.items():
                s = get(k, 0) + f * y
                if s:
                    out[k] = s
                else:
                    del out[k]
        return out, scale

    def insert(self, vec: dict) -> bool:
        """Add the integer vector vec, left unchanged, to the span; False,
        with nothing changed, when it is already there.  Stored rows are
        reduced at the new pivot in place."""
        vec, _ = self.reduce(vec)
        if not vec:
            return False
        pivot = min(vec)
        g = _gcd(*vec.values())
        if vec[pivot] < 0:
            g = -g
        if g != 1:
            for k in vec:  # vec is reduce's fresh vector
                vec[k] //= g
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
    Q^ncols.  `Echelon.insert` never changes its argument, so a
    matrix's stored rows can go in as they are."""
    ech = Echelon(ncols)
    for vec in vectors:
        ech.insert(vec)
    return ech


def rref(rows):
    """Reduced row echelon form of a list of equal-length rows.

    Returns (nonzero reduced rows, pivot column indices).  Leading entries
    are 1 and pivot columns are cleared above and below, which makes the
    result canonical for the row space.  The input is left unchanged.
    """
    if not rows:
        return [], []
    ech = _echelon(len(rows[0]), (_integer_list(r)[0] for r in rows))
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
        """The span of coefficient lists, or of matrices flattened row-major
        (the inverse of `basis_matrices`), each of ambient_dim entries."""
        ints = []
        for v in vectors:
            if isinstance(v, Matrix):
                if v.rows * v.cols != ambient_dim:
                    raise ShapeMismatchError("matrix size != ambient dimension")
                ints.append(v._flat())
            else:
                if len(v) != ambient_dim:
                    raise ShapeMismatchError("vector length != ambient dimension")
                ints.append(_integer_list(v)[0])
        return cls(_echelon(ambient_dim, ints))

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
            ints, den = _integer_list(vector)
        if size != self.ambient_dim:
            raise ShapeMismatchError("vector length != ambient dimension")
        if self._echelon.reduce(ints)[0]:
            return None
        return [_quotient(ints.get(p, 0), den) for p in self.pivot_columns()]

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
        null.insert(vec)
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

    A nondegenerate diagonal form, each row holding exactly its own nonzero
    diagonal entry, comes back at once with P = I.  Any other form takes
    exact symmetric Gaussian congruence on dense rows, with P tracked
    column by column: step k brings index k to a nonzero diagonal entry, by
    a swap with the first later index that has one or else by adding the
    first later index it pairs with (the shear, which makes the entry twice
    that pairing), and then clears row and column k past the diagonal.
    """
    if not b.is_symmetric():
        raise ContractError("congruence diagonalization requires a symmetric matrix")
    n, den, data = b.rows, b.den, b._data
    if len(data) == n and all(row.keys() == {i} for i, row in data.items()):
        return Matrix.identity(n), [_quotient(data[i][i], den) for i in range(n)]
    m = b.to_rows()
    pt = Matrix.identity(n).to_rows()  # row i of pt is column i of P

    def add(dst, src, f):
        # e_dst += f e_src: row and column dst of the form, column dst of P
        m[dst] = [x + f * y for x, y in zip(m[dst], m[src])]
        for row in m:
            row[dst] += f * row[src]
        pt[dst] = [x + f * y for x, y in zip(pt[dst], pt[src])]

    for k in range(n):
        if not m[k][k]:
            pivot = next((j for j in range(k + 1, n) if m[j][j]), None)
            if pivot is not None:
                m[k], m[pivot] = m[pivot], m[k]
                for row in m:
                    row[k], row[pivot] = row[pivot], row[k]
                pt[k], pt[pivot] = pt[pivot], pt[k]
            else:
                off = next((j for j in range(k + 1, n) if m[k][j]), None)
                if off is None:
                    continue
                add(k, off, ONE)
        d = m[k][k]
        for i in range(k + 1, n):
            if m[i][k]:
                add(i, k, -m[i][k] / d)
    return Matrix.from_rows(pt).transpose(), [m[i][i] for i in range(n)]


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
    # ASCII digits, as for integer flags: int() also reads underscores and other digits
    if not all(t.isascii() and t.isdigit() for t in tokens[:2]):
        raise ContractError(f"matrix text header needs two unsigned integers: {' '.join(tokens[:2])!r}")
    rows, cols = int(tokens[0]), int(tokens[1])
    body = tokens[2:]
    if len(body) != rows * cols:
        raise ShapeMismatchError(
            f"matrix text body has {len(body)} entries, expected {rows * cols}"
        )
    return Matrix(rows, cols, [rat(t) for t in body])
