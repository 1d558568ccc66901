"""Generic Lie-algebra machinery over exact matrices and structure constants.

A LieAlgebra is either a MATRIX realization (a basis of d x d matrices whose
commutators stay in the exact span of the basis) or an ABSTRACT realization
(a dimension plus a structure-constant tensor).  Both share one sparse
structure-tensor code path; operations that need actual matrices say so.
"""

from __future__ import annotations

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
    _integer_rows,
    _intertwining_defect,
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
    through one flat path, `_express_flat`, on a row-major integer vector
    over a denominator: a matrix's stored rows (`express_sparse`) or a
    commutator straight from `_intertwining_defect` (`from_matrices`).
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
        size = self.size
        reduced, scale = self.echelon.reduce(vec)
        den *= scale
        out = {}
        for k, v in reduced.items():
            if k < size:
                return None
            out[k - size] = Rational(-v, den)
        return out


class LieAlgebra:
    """Immutable Lie algebra with a cached sparse structure tensor.

    structure maps (i, j) with i < j to {k: coefficient of b_k in [b_i, b_j]};
    antisymmetry fills in the rest and diagonal brackets vanish.  The
    Jacobi check, the Killing form and ad matrices run on one cached integer
    copy of it: every constant times the lcm of all their denominators.
    """

    def __init__(self, realization, dim, basis=None, structure=None, validate=True):
        self.realization = realization
        self.dim = dim
        self.basis = basis
        self.structure = structure if structure is not None else {}
        self._killing = None
        self._coordinatizer = None
        self._int_tensor = None
        if validate:
            self._check_jacobi()

    # -- constructors -------------------------------------------------

    @classmethod
    def from_matrices(cls, basis, validate=True) -> "LieAlgebra":
        """MATRIX realization; raises NotClosedError when some commutator
        falls outside the exact span of the basis.

        Each commutator [b_i, b_j] comes from `_intertwining_defect` as one
        integer vector over a denominator and is reduced in the
        coordinatizer's echelon as it is; no product matrix is built.
        """
        basis = list(basis)
        coord = _Coordinatizer(basis)
        structure = {}
        d = len(basis)
        # b_i b_j vanishes by support when no column of b_i is a row of b_j
        rows = [b._data.keys() for b in basis]
        cols = [set().union(*b._data.values()) for b in basis]
        for i in range(d):
            bi = basis[i]
            for j in range(i + 1, d):
                if cols[i].isdisjoint(rows[j]) and cols[j].isdisjoint(rows[i]):
                    continue
                entry = coord._express_flat(*_intertwining_defect(bi, basis[j], bi))
                if entry is None:
                    raise NotClosedError(
                        f"[b_{i}, b_{j}] is outside the span of the basis"
                    )
                if entry:
                    structure[(i, j)] = entry
        alg = cls(MATRIX, d, basis=basis, structure=structure, validate=validate)
        alg._coordinatizer = coord
        return alg

    @classmethod
    def from_structure(cls, dim, entries, validate=True, basis=None) -> "LieAlgebra":
        """ABSTRACT realization from sparse entries (i, j, k, value), or
        MATRIX when basis gives the dim matrices, all of one shape, whose
        commutators the entries are.  Nothing checks the entries against
        the basis: a caller passes a basis only with a structure it has
        derived in closed form.  Raises ContractError when basis does not
        hold exactly dim matrices, or holds matrices of mixed shapes."""
        structure = _tensor_from_entries(dim, entries)
        if basis is None:
            return cls(ABSTRACT, dim, structure=structure, validate=validate)
        basis = list(basis)
        if len(basis) != dim:
            raise ContractError(f"basis holds {len(basis)} matrices for an algebra of dim {dim}")
        if len({(b.rows, b.cols) for b in basis}) > 1:
            raise ContractError("basis matrices of mixed shapes")
        return cls(MATRIX, dim, basis=basis, structure=structure, validate=validate)

    @classmethod
    def _certified(cls, dim, structure, killing: Matrix) -> "LieAlgebra":
        """ABSTRACT realization of a structure tensor whose Jacobi identity
        and Killing gram the caller has already certified: nothing is
        checked again.  The brackets of structure may be shared with other
        algebras, as no algebra changes its structure."""
        alg = cls(ABSTRACT, dim, structure=structure, validate=False)
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

    def _integer_tensor(self):
        """(den, scaled, brackets), cached: den is the lcm of the structure
        constants' denominators, scaled[(i, j)] = {k: den * c_ij^k} for
        i < j, and brackets[i] lists (j, entry, sign) with
        den * [b_i, b_j] = sign * entry for every j with a nonzero bracket
        (entry is shared with scaled, not copied)."""
        if self._int_tensor is None:
            scaled, den = _integer_rows(self.structure)
            brackets = {}
            for (i, j), entry in scaled.items():
                brackets.setdefault(i, []).append((j, entry, 1))
                brackets.setdefault(j, []).append((i, entry, -1))
            self._int_tensor = (den, scaled, brackets)
        return self._int_tensor

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
        return _bracket(self._integer_tensor()[1], x, y)

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
        den, _, brackets = self._integer_tensor()
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

    def _check_jacobi(self, degree=None):
        """[[b_i, b_j], b_k] + [[b_j, b_k], b_i] + [[b_k, b_i], b_j] = 0 for
        every basis triple i < j < k, over the nonzero brackets only.

        Each nonzero bracket [b_a, b_b] = sum of v b_l (a < b) meets each
        nonzero [b_l, b_c] with c outside {a, b}; the term v [b_l, b_c]
        belongs to the sorted triple of a, b, c, with sign -1 when c lies
        between a and b (the term is then -[[b_k, b_i], b_j]).  A triple
        with a repeated index satisfies the identity by antisymmetry, and one
        that no term reaches sums to zero.  The sums run on integers: every
        constant times the common denominator of all of them.

        A graded family passes degree, {(i, j): d} for the brackets of
        nonzero degree d: each term is then filed under the sum of the
        degrees of its two brackets, and the identity must hold in every
        degree on its own.
        """
        # brackets[l]: (c, inner, sign) with [b_l, b_c] = sign * inner for
        # every c with a nonzero bracket
        _, scaled, brackets = self._integer_tensor()
        sums = {}
        for (a, b), entry in scaled.items():
            g = degree.get((a, b), 0) if degree else 0
            for l, v in entry.items():
                for c, inner, sign in brackets.get(l, ()):
                    if c > b:
                        key, f = (a, b, c), v * sign
                    elif c < a:
                        key, f = (c, a, b), v * sign
                    elif a < c < b:
                        key, f = (a, c, b), -v * sign
                    else:
                        continue
                    if degree:
                        key += (g + degree.get((l, c) if l < c else (c, l), 0),)
                    acc = sums.get(key)
                    if acc is None:
                        sums[key] = acc = {}
                    for m, w in inner.items():
                        acc[m] = acc.get(m, 0) + f * w
        failing = [key for key, acc in sums.items() if any(acc.values())]
        if failing:
            i, j, k, *d = min(failing)
            at = f" in degree {d[0]}" if d else ""
            raise ContractError(f"Jacobi identity fails on basis triple ({i},{j},{k}){at}")

    # -- spec operations ----------------------------------------------

    def killing_form(self) -> "BilinearForm":
        """K(b_a, b_b) = tr(ad b_a . ad b_b) = sum over j, k of c_{aj}^k c_{bk}^j."""
        if self._killing is None:
            self._killing = BilinearForm(self.dim, self._killing_grams()[0])
        return self._killing

    def _killing_grams(self, degree=None) -> list:
        """The Killing gram, contracted over the nonzero integer structure
        constants only, so the sums come over the square of their
        denominator: entry (k, j) of ad(b_a) is den * c_{aj}^k, filed under
        slot (k, j) for `_trace_contraction`.

        Ungraded, the list holds the one gram.  A graded family passes
        degree as `_check_jacobi` takes it, and gets the grams of degree 0
        up to twice the top degree: a constant of degree e is filed under
        a + e.dim, and the product of two constants lands in the gram of
        the sum of their degrees.
        """
        d = self.dim
        top = max(degree.values(), default=0) if degree else 0
        den, scaled, _ = self._integer_tensor()
        slots = {}
        for (i, j), entry in scaled.items():
            lift = d * degree.get((i, j), 0) if degree else 0
            for k, v in entry.items():
                slots.setdefault((k, j), []).append((i + lift, v))
                slots.setdefault((k, i), []).append((j + lift, -v))
        gram = _trace_contraction(slots)
        graded = [gram]
        if top:  # split the lifted indices into the gram of each degree
            graded = [{} for _ in range(2 * top + 1)]
            for a, row in gram.items():
                for b, s in row.items():
                    out = graded[a // d + b // d].setdefault(a % d, {})
                    out[b % d] = out.get(b % d, 0) + s
        return [_accumulated(d, d, rows, den * den) for rows in graded]

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
            coeffs = coord.express(-b.transpose())
            if coeffs is None:
                raise NotStableError("basis is not stable under X -> -X^t")
            for i, c in enumerate(coeffs):
                out[(i, j)] = c
        return Matrix.from_sparse(d, d, out)

    def is_semisimple(self) -> bool:
        """Cartan's criterion: the Killing form is nondegenerate."""
        return kernel(self.killing_form().gram).dim == 0

    def is_abelian(self) -> bool:
        return not self.structure

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


def _tensor_from_entries(dim, entries) -> dict:
    """The sparse structure tensor {(i, j): {k: c}}, i < j, of entries
    (i, j, k, value): values go through `rat()`, repeated entries add up,
    (j, i) enters (i, j) negated and zeros are dropped.  Raises
    ContractError on an index that is not an int in [0, dim) (a bool or a
    float included) or a bracket [b_i, b_i]."""
    structure = {}
    summed = False  # only a sum can leave a zero to drop
    for entry in entries:
        i, j, k, value = entry
        if not (type(i) is type(j) is type(k) is int
                and 0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise ContractError(f"structure entry {entry!r} needs int indices in [0, {dim})")
        value = rat(value)
        if not value:
            continue
        if i == j:
            raise ContractError("[x, x] must vanish: bad structure entry")
        if i > j:
            i, j, value = j, i, -value
        row = structure.get((i, j))
        if row is None:
            structure[(i, j)] = {k: value}
        elif k in row:
            row[k] += value
            summed = True
        else:
            row[k] = value
    if summed:
        for key in list(structure):
            structure[key] = {k: v for k, v in structure[key].items() if v}
            if not structure[key]:
                del structure[key]
    return structure


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
