"""Generic Lie-algebra machinery over exact matrices and structure constants.

A LieAlgebra is either a MATRIX realization (a basis of d x d matrices whose
commutators stay in the exact span of the basis) or an ABSTRACT realization
(a dimension plus a structure-constant tensor).  Both hold one thing: one
sparse integer structure tensor, every constant times one common
denominator, which each constructor writes directly and which the Jacobi
check, the Killing form, ad matrices, closures and the Hom solver read.  The
rational constants (`LieAlgebra.structure`) are a read-only view of it,
built on the first read.  Operations that need actual matrices say so.
"""

from __future__ import annotations

import functools
import json
import math as _math

from .errors import (
    ContractError,
    NotClosedError,
    NotStableError,
    ShapeMismatchError,
    UnsupportedRealizationError,
)
from .exact_linalg import (
    Echelon,
    Matrix,
    Rational,
    Subspace,
    ZERO,
    _accumulated,
    _integer_list,
    _intertwining_defect,
    _quotient,
    _trusted,
    kernel,
    mat_vec,
    rat,
)

MATRIX = "matrix"
ABSTRACT = "abstract"


class _Coordinatizer:
    """Expresses matrices exactly in the span of a fixed matrix basis.

    Basis matrix i = B_i / d_i enters one integer Echelon as its integers
    B_i followed by the tag d_i in column size + i, a multiple of its
    entries followed by a tag 1.  A matrix in the span then reduces to zero
    on its entries and to minus its coefficients on the tags; a basis is
    dependent exactly when some pivot lands on a tag.  Every read goes
    through one flat path, `_express_int`, on a row-major integer vector
    over a denominator: a matrix's stored rows (`express_sparse`, through
    `_express_flat`) or a commutator straight from `_intertwining_defect`
    (`from_matrices`, which keeps the integer coefficients).
    """

    def __init__(self, basis):
        self.dim = len(basis)
        self.shape = (basis[0].rows, basis[0].cols) if basis else (0, 0)
        self.size = size = self.shape[0] * self.shape[1]
        self.echelon = Echelon(size + self.dim)
        for i, b in enumerate(basis):
            if (b.rows, b.cols) != self.shape:
                raise ShapeMismatchError("basis matrices of mixed shapes")
            vec = b._flat()
            vec[size + i] = b.den
            self.echelon.insert(vec)
        if any(p >= size for p in self.echelon._rows):
            raise ContractError("basis matrices are linearly dependent")

    def express(self, m: Matrix):
        """Coefficients of m in the basis, or None if m is outside the span."""
        coeffs = self.express_sparse(m)
        if coeffs is None:
            return None
        out = [ZERO] * self.dim
        for k, v in coeffs.items():
            out[k] = v
        return out

    def express_sparse(self, m: Matrix):
        """The nonzero coefficients {i: c} of m in the basis, or None if m
        is outside the span."""
        if (m.rows, m.cols) != self.shape:
            raise ShapeMismatchError("matrix shape differs from the basis")
        return self._express_flat(m._flat(), m.den)

    def _express_flat(self, vec: dict, den: int):
        """The nonzero coefficients {i: c} of the matrix whose row-major
        flattening is the integer vector vec over den (any positive den,
        reduced or not), or None if it is outside the span."""
        found = self._express_int(vec, den)
        if found is None:
            return None
        coeffs, den = found
        out = {}
        for i, v in coeffs.items():
            out[i] = Rational(v, den)
        return out

    def _express_int(self, vec: dict, den: int):
        """(coeffs, d): the nonzero coefficients of the matrix vec / den, as
        `_express_flat` reads it, as integers {i: int} over d > 0 (not
        necessarily in lowest terms), or None if it is outside the span."""
        size = self.size
        reduced, scale = self.echelon.reduce(vec)
        out = {}
        for k, v in reduced.items():
            if k < size:
                return None
            out[k - size] = -v
        return out, den * scale


class LieAlgebra:
    """Immutable Lie algebra held as one sparse integer structure tensor.

    `_tensor` is (den, rows): rows maps (i, j) with i < j to {k: int}, the
    nonzero coefficients of b_k in den * [b_i, b_j]; antisymmetry fills in
    the rest and diagonal brackets vanish.  The form is canonical: den > 0,
    no zero and no empty row is stored, and den and the entries have gcd 1,
    so two algebras have equal tensors exactly when their brackets agree.
    Equal rows may be one shared dict; no one writes a row.  `structure` is
    the rational view of the tensor, {(i, j): {k: coefficient}}, built on
    its first read; the certificates read the tensor only.
    """

    def __init__(self, realization, dim, tensor, basis=None, validate=True):
        self.realization = realization
        self.dim = dim
        self.basis = basis
        self._tensor = _lowest_terms(*tensor)
        self._killing = None
        self._coordinatizer = None
        if validate:
            self._check_jacobi()

    # -- constructors -------------------------------------------------

    @classmethod
    def from_matrices(cls, basis, validate=True) -> "LieAlgebra":
        """MATRIX realization; raises NotClosedError when some commutator
        falls outside the exact span of the basis.

        Each commutator [b_i, b_j] comes from `_intertwining_defect` as one
        integer vector over a denominator and is reduced in the
        coordinatizer's echelon as it is; no product matrix is built.  The
        echelon's integer coefficients of each bracket, over their own
        denominator, enter the tensor over the lcm of those denominators.
        """
        basis = list(basis)
        coord = _Coordinatizer(basis)
        rows, dens = {}, {}  # each nonzero bracket's integer row and its denominator
        d = len(basis)
        # b_i b_j vanishes by support when no column of b_i is a row of b_j
        supports = [b._data.keys() for b in basis]
        cols = [set().union(*b._data.values()) for b in basis]
        for i in range(d):
            bi = basis[i]
            for j in range(i + 1, d):
                if cols[i].isdisjoint(supports[j]) and cols[j].isdisjoint(supports[i]):
                    continue
                found = coord._express_int(*_intertwining_defect(bi, basis[j], bi))
                if found is None:
                    raise NotClosedError(
                        f"[b_{i}, b_{j}] is outside the span of the basis"
                    )
                row, row_den = found
                if row:
                    rows[(i, j)] = row
                    dens[(i, j)] = row_den
        den = _math.lcm(*dens.values())
        if den != 1:
            for key, row in rows.items():
                f = den // dens[key]
                if f != 1:
                    for k in row:  # the echelon's fresh vector
                        row[k] *= f
        alg = cls(MATRIX, d, (den, rows), basis=basis, validate=validate)
        alg._coordinatizer = coord
        return alg

    @classmethod
    def from_structure(cls, dim, entries, validate=True, basis=None) -> "LieAlgebra":
        """ABSTRACT realization from sparse entries (i, j, k, value), or
        MATRIX when basis gives the dim matrices, all of one shape, whose
        commutators the entries are.  Nothing checks the entries against
        the basis: a caller passes a basis only with a structure it has
        derived in closed form.  Raises ContractError when basis does not
        hold exactly dim matrices, or holds matrices of mixed shapes.

        The tensor is built in one pass over the entries: an int value is
        taken as it is and any other goes through `rat()`, repeated entries
        add up, (j, i) enters (i, j) negated and zeros are dropped.  The
        common denominator grows, and the rows so far are rescaled, only
        when a value's denominator does not divide it.  Equal one-entry rows
        are one shared dict.  Raises ContractError on an index that is not
        an int in [0, dim) (a bool or a float included) or a bracket
        [b_i, b_i]."""
        rows = {}
        units = {}  # (k, v) -> the one shared row {k: v}
        den = 1
        summed = False  # only a sum can leave a zero to drop
        for entry in entries:
            i, j, k, value = entry
            if not (type(i) is type(j) is type(k) is int
                    and 0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise ContractError(f"structure entry {entry!r} needs int indices in [0, {dim})")
            if type(value) is int:
                v, d = value, 1
            else:
                v, d = rat(value).as_integer_ratio()
                v, d = int(v), int(d)
            if not v:
                continue
            if i == j:
                raise ContractError("[x, x] must vanish: bad structure entry")
            if den % d:
                f = d // _math.gcd(den, d)
                den *= f
                rows, units = _scaled_rows(rows, f, 1)
            v *= den // d
            if i > j:
                i, j, v = j, i, -v
            row = rows.get((i, j))
            if row is None:
                row = units.get((k, v))
                if row is None:
                    row = units[(k, v)] = {k: v}
                rows[(i, j)] = row
                continue
            if len(row) == 1:  # perhaps a shared unit row: write a copy
                row = rows[(i, j)] = dict(row)
            if k in row:
                row[k] += v
                summed = True
            else:
                row[k] = v
        if summed:
            for key in list(rows):
                row = rows[key]
                if 0 in row.values():
                    row = {k: v for k, v in row.items() if v}
                    if not row:
                        del rows[key]
                        continue
                if len(row) == 1:
                    (k, v), = row.items()
                    row = units.setdefault((k, v), row)
                rows[key] = row
        if basis is None:
            return cls(ABSTRACT, dim, (den, rows), validate=validate)
        basis = list(basis)
        if len(basis) != dim:
            raise ContractError(f"basis holds {len(basis)} matrices for an algebra of dim {dim}")
        if len({(b.rows, b.cols) for b in basis}) > 1:
            raise ContractError("basis matrices of mixed shapes")
        return cls(MATRIX, dim, (den, rows), basis=basis, validate=validate)

    @classmethod
    def _certified(cls, dim, tensor, structure, killing: Matrix) -> "LieAlgebra":
        """ABSTRACT realization of an integer tensor whose Jacobi identity
        and Killing gram the caller has already certified, with its rational
        view structure: nothing is checked or converted again.  The rows of
        both may be shared with other algebras, as no algebra changes its
        tensor or its view."""
        alg = cls(ABSTRACT, dim, tensor, validate=False)
        alg.structure = structure
        alg._killing = BilinearForm(dim, killing)
        return alg

    # -- internals ----------------------------------------------------

    def coordinatizer(self) -> _Coordinatizer:
        """The coordinate reader of the MATRIX basis, kept on the algebra:
        the one a constructor attached (`from_matrices` keeps the echelon
        it solved the commutators with; a closed-form basis may attach a
        reader that needs no elimination), else an echelon
        `_Coordinatizer` built on first use."""
        if self.realization != MATRIX:
            raise UnsupportedRealizationError("needs a MATRIX realization")
        if self._coordinatizer is None:
            self._coordinatizer = _Coordinatizer(self.basis)
        return self._coordinatizer

    @functools.cached_property
    def structure(self) -> dict:
        """The rational constants {(i, j): {k: coefficient of b_k in
        [b_i, b_j]}}, i < j, a view of the integer tensor built on the
        first read (or handed over by `_certified`) and kept: one dict per
        distinct row of the tensor.  Read only: its rows may be shared."""
        return _rational_view(*self._tensor)

    @functools.cached_property
    def _brackets(self) -> dict:
        """brackets[i]: (j, entry, sign) with den * [b_i, b_j] =
        sign * entry for every j with a nonzero bracket (entry is the
        tensor's row, not a copy), built on first use."""
        brackets = {}
        for (i, j), entry in self._tensor[1].items():
            brackets.setdefault(i, []).append((j, entry, 1))
            brackets.setdefault(j, []).append((i, entry, -1))
        return brackets

    def structure_entry(self, i, j):
        """Sparse bracket [b_i, b_j] as {k: coefficient}."""
        if i == j:
            return {}
        if i < j:
            return self.structure.get((i, j), {})
        entry = self.structure.get((j, i), {})
        return {k: -v for k, v in entry.items()}

    def _bracket_int(self, x: dict, y: dict) -> dict:
        """den * [x, y] for sparse integer vectors, on the integer tensor: a
        positive multiple of the bracket, all that spans and membership read."""
        return _bracket(self._tensor[1], x, y)

    def ad_matrix(self, x) -> Matrix:
        """Matrix of ad(x) = [x, .] on the coefficient space."""
        if len(x) != self.dim:
            raise ShapeMismatchError("coefficient vector must have length dim")
        return self._ad(*_integer_list(x))

    def ad_basis_matrix(self, i) -> Matrix:
        if not 0 <= i < self.dim:
            raise IndexError(f"basis index {i} outside an algebra of dim {self.dim}")
        return self._ad({i: 1}, 1)

    def _ad(self, x: dict, xden: int) -> Matrix:
        """ad(x) for x = (sparse integer vector) / xden: column j of ad(b_i)
        is [b_i, b_j], read off the integer brackets of each i in x."""
        d = self.dim
        den = self._tensor[0]
        brackets = self._brackets
        out = {}
        for i, xi in x.items():
            for j, entry, sign in brackets.get(i, ()):
                f = xi * sign
                for k, v in entry.items():
                    row = out.get(k)
                    if row is None:
                        out[k] = {j: f * v}
                    else:
                        row[j] = row.get(j, 0) + f * v
        return _accumulated(d, d, out, den * xden)

    def _check_jacobi(self):
        """[[b_x, b_y], b_z] + [[b_y, b_z], b_x] + [[b_z, b_x], b_y] = 0 for
        every basis triple x < y < z, over the nonzero brackets only, one
        smallest index x at a time.

        The terms [[b_x, b_j], b_c] come from x's own brackets: each
        [b_x, b_j] = sum of v b_l (j > x) meets each nonzero [b_l, b_c] with
        c > x, c != j, and the term belongs to (x, j, c), or to (x, c, j)
        with sign -1 when c < j (it is then -[[b_z, b_x], b_y]).  The terms
        [[b_y, b_z], b_x] come from the index l -> [(y, z, v)] of the
        brackets [b_y, b_z] with a b_l part v: each nonzero [b_l, b_x] meets
        those with y > x.  The term of (x, y, z) at b_m goes under the flat
        key (y.d + z).d + m, and x's sums are checked and dropped before
        x + 1, so the first failing x and its least key name the
        lexicographically first failing triple.  A triple with a repeated
        index satisfies the identity by antisymmetry.  The sums run on
        integers: every constant times the common denominator of all of them.
        """
        # brackets[l]: (c, inner, sign) with [b_l, b_c] = sign * inner for
        # every c with a nonzero bracket
        brackets = self._brackets
        d = self.dim
        holds = {}  # l -> (y, z, v) by y descending
        for (y, z), entry in sorted(self._tensor[1].items(), reverse=True):
            for l, v in entry.items():
                holds.setdefault(l, []).append((y, z, v))
        for x, own in sorted(brackets.items()):
            sums = {}
            get = sums.get
            for j, entry, sign in own:
                if sign > 0:  # j > x: [b_x, b_j] = entry
                    for l, v in entry.items():
                        for c, inner, s in brackets.get(l, ()):
                            if c <= x or c == j:
                                continue
                            if c > j:
                                key, f = (j * d + c) * d, v * s
                            else:
                                key, f = (c * d + j) * d, -v * s
                            for m, w in inner.items():
                                sums[key + m] = get(key + m, 0) + f * w
                # [b_j, b_x] = -sign * entry, under each [b_y, b_z] with a b_j part
                for y, z, v in holds.get(j, ()):
                    if y <= x:
                        break
                    key, f = (y * d + z) * d, -v * sign
                    for m, w in entry.items():
                        sums[key + m] = get(key + m, 0) + f * w
            failing = [key for key, total in sums.items() if total]
            if failing:
                y, z = divmod(min(failing) // d, d)
                raise ContractError(f"Jacobi identity fails on basis triple ({x},{y},{z})")

    # -- spec operations ----------------------------------------------

    def killing_form(self) -> "BilinearForm":
        """K(b_a, b_b) = tr(ad b_a . ad b_b) = sum over j, k of c_{aj}^k c_{bk}^j,
        contracted over the nonzero integer structure constants only, so the
        sums come over the square of their denominator: entry (k, j) of
        ad(b_a) is den * c_{aj}^k, filed under slot (k, j) for
        `_trace_contraction`."""
        if self._killing is None:
            d = self.dim
            den, rows = self._tensor
            slots = {}
            for (i, j), entry in rows.items():
                for k, v in entry.items():
                    slots.setdefault((k, j), []).append((i, v))
                    slots.setdefault((k, i), []).append((j, -v))
            self._killing = BilinearForm(d, _accumulated(d, d, _trace_contraction(slots), den * den))
        return self._killing

    def trace_form(self) -> "BilinearForm":
        """tr(b_a b_b), on the integer rows over the lcm of the basis
        denominators: entry (i, j) of b_a is filed under slot (i, j) for
        `_trace_contraction`."""
        if self.realization != MATRIX:
            raise UnsupportedRealizationError("trace form needs a MATRIX realization")
        d = self.dim
        den = _math.lcm(1, *(b.den for b in self.basis))
        slots = {}
        for a, b in enumerate(self.basis):
            f = den // b.den
            for i, row in b._data.items():
                for j, x in row.items():
                    slots.setdefault((i, j), []).append((a, x * f))
        return BilinearForm(d, _accumulated(d, d, _trace_contraction(slots), den * den))

    def theta_involution(self) -> Matrix:
        """Matrix of X -> -X^t in the basis; NotStableError if the basis is
        not stable under negative transpose."""
        if self.realization != MATRIX:
            raise UnsupportedRealizationError("theta needs a MATRIX realization")
        coord = self.coordinatizer()
        d = self.dim
        out = {}
        for j, b in enumerate(self.basis):
            coeffs = coord.express_sparse(-b.transpose())
            if coeffs is None:
                raise NotStableError("basis is not stable under X -> -X^t")
            for i, c in coeffs.items():
                out[(i, j)] = c
        return Matrix.from_sparse(d, d, out)

    def is_semisimple(self) -> bool:
        """Cartan's criterion: the Killing form is nondegenerate."""
        return kernel(self.killing_form().gram).dim == 0

    def is_abelian(self) -> bool:
        return not self._tensor[1]

    def to_json_dict(self) -> dict:
        if self.realization == MATRIX:
            return {
                "realization": "matrix",
                "dim": self.dim,
                "basis": [
                    [[str(x) for x in b.row_list(i)] for i in range(b.rows)]
                    for b in self.basis
                ],
            }
        entries = []
        for (i, j), entry in sorted(self.structure.items()):
            for k, v in sorted(entry.items()):
                entries.append([i, j, k, str(v)])
        return {"realization": "abstract", "dim": self.dim, "structure": entries}


def _lowest_terms(den: int, rows: dict):
    """(den, rows) with den and every entry divided by their gcd: the rows
    themselves when it is 1, new ones otherwise."""
    g = den
    for row in rows.values():
        if g == 1:
            return den, rows
        g = _math.gcd(g, *row.values())
    if g == 1:
        return den, rows
    return den // g, _scaled_rows(rows, 1, g)[0]


def _scaled_rows(rows: dict, f: int, g: int):
    """(f / g times the integer rows, units), for g dividing every entry
    times f: new rows, one dict per distinct row object of rows, so rows
    shared stay shared, and units, (k, v) -> the one-entry row {k: v} among
    them."""
    out, seen, units = {}, {}, {}
    for key, row in rows.items():
        new = seen.get(id(row))
        if new is None:
            new = seen[id(row)] = {}
            for k, v in row.items():
                new[k] = v * f // g
            if len(new) == 1:
                units[(k, new[k])] = new
        out[key] = new
    return out, units


def _rational_view(den: int, rows: dict) -> dict:
    """The rational tensor {(i, j): {k: v / den}} of integer rows over den:
    one dict per distinct row object of rows and one scalar per distinct
    integer, so rows shared in the tensor are shared in the view."""
    view, seen, scalars = {}, {}, {}
    for key, row in rows.items():
        out = seen.get(id(row))
        if out is None:
            out = seen[id(row)] = {}
            for k, v in row.items():
                x = scalars.get(v)
                if x is None:
                    x = scalars[v] = _quotient(v, den)
                out[k] = x
        view[key] = out
    return view


def _trace_contraction(slots) -> dict:
    """The integer gram rows {a: {b: tr(M_a M_b)}} of matrices M_a whose
    entries are filed as slots[(i, j)] = [(a, (M_a)_ij), ...]: tr(M_a M_b)
    is the sum of (M_a)_ij (M_b)_ji, so slot (i, j) meets only slot (j, i).
    Each unordered pair of slots is visited once, and for i != j each
    product is a term of both tr(M_a M_b) and tr(M_b M_a).  Indices a may
    be any ints; the rows may hold zeros."""
    gram = {}
    for (i, j), entries in slots.items():
        if i > j:
            continue
        partners = slots.get((j, i))
        if partners is None:
            continue
        for a, x in entries:
            row = gram.setdefault(a, {})
            for b, y in partners:
                s = x * y
                row[b] = row.get(b, 0) + s
                if i != j:
                    other = gram.setdefault(b, {})
                    other[a] = other.get(a, 0) + s
    return gram


def _bracket(structure, x: dict, y: dict) -> dict:
    """[x, y] for sparse vectors over a sparse structure tensor, rational or
    integer, as a sparse vector."""
    acc = {}
    for i, xi in x.items():
        for j, yj in y.items():
            if i < j:
                entry, f = structure.get((i, j)), xi * yj
            elif i > j:
                entry, f = structure.get((j, i)), -(xi * yj)
            else:
                continue
            if entry:
                for k, v in entry.items():
                    acc[k] = acc.get(k, 0) + f * v
    return {k: v for k, v in acc.items() if v}


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


class BilinearForm:
    """Symmetric bilinear form given by its gram matrix in a fixed basis."""

    __slots__ = ("on", "gram")

    def __init__(self, on: int, gram: Matrix):
        if gram.rows != on or gram.cols != on:
            raise ShapeMismatchError("gram matrix shape mismatch")
        if not gram.is_symmetric():
            raise ContractError("gram matrix must be symmetric")
        self.on = on
        self.gram = gram

    def evaluate(self, x, y) -> Rational:
        """x^t G y for coefficient lists x and y of length `on`; raises
        ShapeMismatchError on any other length."""
        if len(x) != self.on:
            raise ShapeMismatchError("coefficient vectors must have length on")
        gx = mat_vec(self.gram, y)
        return sum((x[i] * gx[i] for i in range(self.on) if x[i]), ZERO)

    def __eq__(self, other):
        return isinstance(other, BilinearForm) and self.gram == other.gram

    def __repr__(self):
        return f"BilinearForm(on {self.on})"


def bracket(algebra: LieAlgebra, x, y):
    """Coefficients of [x, y] for coefficient vectors x, y of length dim,
    via the structure tensor; every coefficient goes through `rat()`."""
    x, y = [rat(v) for v in x], [rat(v) for v in y]
    if len(x) != algebra.dim or len(y) != algebra.dim:
        raise ShapeMismatchError("coefficient vectors must have length dim")
    z = _bracket(
        algebra.structure,
        {i: v for i, v in enumerate(x) if v},
        {j: v for j, v in enumerate(y) if v},
    )
    out = [ZERO] * algebra.dim
    for k, v in z.items():
        out[k] = v
    return out


def centralizer(algebra: LieAlgebra, subspace: Subspace) -> Subspace:
    """{x : [x, h] = 0 for every h in the subspace}, via one exact solve."""
    if subspace.ambient_dim != algebra.dim:
        raise ShapeMismatchError("subspace lives in the wrong coefficient space")
    d = algebra.dim
    hs = subspace._integer_rows()
    if not hs:
        return Subspace.full(d)
    # the integer rows of the ad(h) stacked one under another: a row scaled
    # by a nonzero factor leaves the kernel as it is
    equations = {}
    for r, h in enumerate(hs):
        for i, row in algebra._ad(h, 1)._data.items():
            equations[r * d + i] = row
    return kernel(_trusted(len(hs) * d, d, equations))


def orthogonal_complement(form: BilinearForm, subspace: Subspace) -> Subspace:
    """{x : form(x, h) = 0 for every h in the subspace}: the kernel of the
    integer rows G h, for G the gram's integer rows and h the subspace's.
    The gram is symmetric (`BilinearForm` checks it), so G h is the sum of
    h_l times row l of G, a walk over h's nonzeros and their rows only.
    Raises ShapeMismatchError when the subspace is not in Q^form.on."""
    if subspace.ambient_dim != form.on:
        raise ShapeMismatchError("subspace lives in the wrong coefficient space")
    hs = subspace._integer_rows()
    if not hs:
        return Subspace.full(form.on)
    gram = form.gram._data
    equations = {}
    for r, h in enumerate(hs):
        row = equations[r] = {}
        for l, x in h.items():
            grow = gram.get(l)
            if grow is not None:
                for i, y in grow.items():
                    row[i] = row.get(i, 0) + x * y
    return kernel(_accumulated(len(hs), form.on, equations, 1))


def _close(algebra: LieAlgebra, ech: Echelon, vectors: list, closed: int):
    """Grow vectors, a basis of ech's span, to a bracket-closed set.

    The first `closed` vectors span a subalgebra, so their pairs are never
    bracketed; every other unordered pair is bracketed once, and the loop
    stops as soon as the span is the whole algebra.  Vectors are integer
    and brackets come from the integer tensor: only spans are read.
    """
    i = closed
    while i < len(vectors) and ech.dim < algebra.dim:
        x = vectors[i]
        for y in vectors[:i]:
            z = algebra._bracket_int(x, y)
            if z and ech.insert(z):
                vectors.append(z)
                if ech.dim == algebra.dim:
                    return
        i += 1


def subalgebra_closure(algebra: LieAlgebra, generators: Subspace) -> Subspace:
    """Smallest bracket-closed subspace containing the generators."""
    if generators.ambient_dim != algebra.dim:
        raise ShapeMismatchError("generators live in the wrong coefficient space")
    ech = generators.echelon()
    _close(algebra, ech, list(generators._integer_rows()), 0)
    return Subspace(ech)


def is_subalgebra(algebra: LieAlgebra, subspace: Subspace) -> bool:
    rows = subspace._integer_rows()
    reduce = subspace._echelon.reduce
    return all(
        not reduce(algebra._bracket_int(rows[i], rows[j]))[0]
        for i in range(len(rows))
        for j in range(i + 1, len(rows))
    )


def is_maximal_subalgebra(algebra: LieAlgebra, subspace: Subspace):
    """Maximality certificate for a proper subalgebra H.

    Returns (True, None) when H + <e_idx> generates the whole algebra for
    every complement coordinate index idx, else (False, witness) with the
    first proper intermediate subalgebra found.  Each closure starts from
    H's basis, already known to be closed, plus e_idx.
    """
    if not is_subalgebra(algebra, subspace):
        raise ContractError("H is not a subalgebra")
    if subspace.dim >= algebra.dim:
        raise ContractError("H must be a proper subalgebra")
    h_rows = subspace._integer_rows()
    for idx in subspace.complement_coordinate_indices():
        ech = subspace.echelon()
        unit = {idx: 1}
        ech.insert(unit)
        _close(algebra, ech, h_rows + [unit], len(h_rows))
        if ech.dim < algebra.dim:
            return False, Subspace(ech)
    return True, None
