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
    _integer_rows,
    _mat_vec_int,
    _over_common_den,
    _reduced,
    _trusted,
    kernel,
    mat_mul,
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
    dependent exactly when some pivot lands on a tag.
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
            self.echelon._insert_int(vec)
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
        size = self.size
        reduced, scale = self.echelon._reduce_int(m._flat())
        den = scale * m.den
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
        falls outside the exact span of the basis."""
        basis = list(basis)
        coord = _Coordinatizer(basis)
        structure = {}
        d = len(basis)
        # b_i b_j vanishes by support when no column of b_i is a row of b_j
        rows = [b._data.keys() for b in basis]
        cols = [set().union(*b._data.values()) for b in basis]
        for i in range(d):
            for j in range(i + 1, d):
                if cols[i].isdisjoint(rows[j]) and cols[j].isdisjoint(rows[i]):
                    continue
                comm = mat_mul(basis[i], basis[j]) - mat_mul(basis[j], basis[i])
                entry = coord.express_sparse(comm)
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
    def from_structure(cls, dim, entries, validate=True) -> "LieAlgebra":
        """ABSTRACT realization from sparse entries (i, j, k, value)."""
        structure = {}
        for i, j, k, value in entries:
            value = rat(value)
            if not value:
                continue
            if i == j:
                raise ContractError("[x, x] must vanish: bad structure entry")
            if i > j:
                i, j, value = j, i, -value
            entry = structure.setdefault((i, j), {})
            old = entry.get(k)
            entry[k] = value if old is None else old + value
        for key in list(structure):
            structure[key] = {k: v for k, v in structure[key].items() if v}
            if not structure[key]:
                del structure[key]
        return cls(ABSTRACT, dim, structure=structure, validate=validate)

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

    def bracket_coeffs(self, x, y):
        """Coefficients of [x, y] for coefficient vectors x, y."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ShapeMismatchError("coefficient vectors must have length dim")
        z = _bracket(
            self.structure,
            {i: v for i, v in enumerate(x) if v},
            {j: v for j, v in enumerate(y) if v},
        )
        out = [ZERO] * self.dim
        for k, v in z.items():
            out[k] = v
        return out

    def _bracket_int(self, x: dict, y: dict) -> dict:
        """den * [x, y] for sparse integer vectors, on the integer tensor: a
        positive multiple of the bracket, all that spans and membership read."""
        return _bracket(self._integer_tensor()[1], x, y)

    def ad_matrix(self, x) -> Matrix:
        """Matrix of ad(x) = [x, .] on the coefficient space."""
        if len(x) != self.dim:
            raise ShapeMismatchError("coefficient vector must have length dim")
        return self._ad(*_over_common_den(dict(enumerate(x))))

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
        data = {}
        for k, row in out.items():
            if 0 in row.values():
                row = {j: v for j, v in row.items() if v}
            if row:
                data[k] = row
        return _reduced(d, d, data, den * xden)

    def _check_jacobi(self):
        """[[b_i, b_j], b_k] + [[b_j, b_k], b_i] + [[b_k, b_i], b_j] = 0 for
        every basis triple i < j < k, over the nonzero brackets only.

        Each nonzero bracket [b_a, b_b] = sum of v b_l (a < b) meets each
        nonzero [b_l, b_c] with c outside {a, b}; the term v [b_l, b_c]
        belongs to the sorted triple of a, b, c, with sign -1 when c lies
        between a and b (the term is then -[[b_k, b_i], b_j]).  A triple
        with a repeated index satisfies the identity by antisymmetry, and one
        that no term reaches sums to zero.  The sums run on integers: every
        constant times the common denominator of all of them.
        """
        # brackets[l]: (c, inner, sign) with [b_l, b_c] = sign * inner for
        # every c with a nonzero bracket
        _, scaled, brackets = self._integer_tensor()
        sums = {}
        for (a, b), entry in scaled.items():
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
                    acc = sums.get(key)
                    if acc is None:
                        sums[key] = acc = {}
                    for m, w in inner.items():
                        acc[m] = acc.get(m, 0) + f * w
        failing = [key for key, acc in sums.items() if any(acc.values())]
        if failing:
            i, j, k = min(failing)
            raise ContractError(f"Jacobi identity fails on basis triple ({i},{j},{k})")

    # -- spec operations ----------------------------------------------

    def killing_form(self) -> "BilinearForm":
        """K(b_a, b_b) = tr(ad b_a . ad b_b) = sum over j, k of c_{aj}^k c_{bk}^j.

        Contracted over the nonzero integer structure constants only, so the
        sums come over the square of their denominator: with by_slot[(k, j)]
        the list of (a, den * c_{aj}^k), each product pairs slot (k, j) of
        ad(b_a) with slot (j, k) of ad(b_b).
        """
        if self._killing is None:
            d = self.dim
            den, scaled, _ = self._integer_tensor()
            by_slot = {}
            for (i, j), entry in scaled.items():
                for k, v in entry.items():
                    by_slot.setdefault((k, j), []).append((i, v))
                    by_slot.setdefault((k, i), []).append((j, -v))
            gram = {}
            for (k, j), terms in by_slot.items():
                partners = by_slot.get((j, k))
                if partners is None:
                    continue
                for a, v in terms:
                    row = gram.setdefault(a, {})
                    for b, w in partners:
                        row[b] = row.get(b, 0) + v * w
            data = {}
            for a, row in gram.items():
                row = {b: s for b, s in row.items() if s}
                if row:
                    data[a] = row
            self._killing = BilinearForm(d, _reduced(d, d, data, den * den))
        return self._killing

    def trace_form(self) -> "BilinearForm":
        if self.realization != MATRIX:
            raise UnsupportedRealizationError("trace form needs a MATRIX realization")
        # tr(b_a b_b) = sum of (b_a)_ij (b_b)_ji, on the integer rows over
        # the lcm of the basis denominators
        d = self.dim
        den = _math.lcm(1, *(b.den for b in self.basis))
        rows = [b._data for b in self.basis]
        cols = [b.transpose()._data for b in self.basis]
        scale = [den // b.den for b in self.basis]
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
        return BilinearForm(d, _reduced(d, d, gram, den * den))

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

    def to_json(self) -> str:
        return canonical_json(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data) -> "LieAlgebra":
        if data["realization"] == "matrix":
            basis = [Matrix.from_rows([[rat(x) for x in row] for row in b]) for b in data["basis"]]
            return cls.from_matrices(basis)
        entries = [(i, j, k, rat(v)) for i, j, k, v in data["structure"]]
        return cls.from_structure(data["dim"], entries)


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
        gx = mat_vec(self.gram, y)
        return sum((x[i] * gx[i] for i in range(self.on) if x[i]), ZERO)

    def __eq__(self, other):
        return isinstance(other, BilinearForm) and self.gram == other.gram

    def __repr__(self):
        return f"BilinearForm(on {self.on})"


def bracket(algebra: LieAlgebra, x, y):
    """Coefficients of [x, y] via the structure tensor."""
    return algebra.bracket_coeffs(list(map(rat, x)), list(map(rat, y)))


def structure_tensor(algebra: LieAlgebra):
    """The sparse structure tensor {(i, j): {k: c}} for i < j."""
    return {key: dict(val) for key, val in algebra.structure.items()}


def killing_form(algebra: LieAlgebra) -> BilinearForm:
    return algebra.killing_form()


def trace_form(algebra: LieAlgebra) -> BilinearForm:
    return algebra.trace_form()


def theta_involution(algebra: LieAlgebra) -> Matrix:
    return algebra.theta_involution()


def is_semisimple(algebra: LieAlgebra) -> bool:
    return algebra.is_semisimple()


def homomorphism_defect(src: LieAlgebra, dst: LieAlgebra, phi: Matrix):
    """The first basis pair (i, j), i < j, with phi[b_i, b_j] != [phi b_i, phi b_j],
    or None when the linear map phi (column j: the image of b_j in dst's
    basis) is a Lie algebra homomorphism.

    Column j of phi.ad(b_i) - ad(phi b_i).phi is the difference on (i, j),
    built from the integer ad rows; the first i with a nonzero column j > i
    gives the lexicographically first failing pair.
    """
    if phi.rows != dst.dim or phi.cols != src.dim:
        raise ShapeMismatchError("phi must be a dim(dst) x dim(src) matrix")
    columns = phi.transpose()._data
    for i in range(src.dim - 1):
        image = dst._ad(columns.get(i, {}), phi.den)  # ad(phi b_i)
        diff = mat_mul(phi, src._ad({i: 1}, 1)) - mat_mul(image, phi)
        failing = [j for row in diff._data.values() for j in row if j > i]
        if failing:
            return i, min(failing)
    return None


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
            equations[r * d + i] = dict(row)
    return kernel(_trusted(len(hs) * d, d, equations))


def orthogonal_complement(form: BilinearForm, subspace: Subspace) -> Subspace:
    """{x : form(x, h) = 0 for every h in the subspace}: the kernel of the
    integer rows G h, for G the gram's integer rows and h the subspace's."""
    hs = subspace._integer_rows()
    if not hs:
        return Subspace.full(form.on)
    gram = form.gram._data
    equations = {}
    for r, h in enumerate(hs):
        row = _mat_vec_int(gram, h)
        if row:
            equations[r] = row
    return kernel(_trusted(len(hs), form.on, equations))


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
            if z and ech._insert_int(z):
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
    reduce = subspace._echelon._reduce_int
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
        ech._insert_int(unit)
        _close(algebra, ech, h_rows + [unit], len(h_rows))
        if ech.dim < algebra.dim:
            return False, Subspace(ech)
    return True, None
