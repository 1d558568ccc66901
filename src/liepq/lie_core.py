"""Generic Lie-algebra machinery over exact matrices and structure constants.

A LieAlgebra is either a MATRIX realization (a basis of d x d matrices whose
commutators stay in the exact span of the basis) or an ABSTRACT realization
(a dimension plus a structure-constant tensor).  Both share one sparse
structure-tensor code path; operations that need actual matrices say so.
"""

from __future__ import annotations

import json

from .errors import (
    ContractError,
    NotClosedError,
    NotStableError,
    ShapeMismatchError,
    UnsupportedRealizationError,
)
from .exact_linalg import (
    Matrix,
    ONE,
    Rational,
    Subspace,
    ZERO,
    kernel,
    mat_mul,
    rat,
    rref,
)

MATRIX = "matrix"
ABSTRACT = "abstract"


class _Coordinatizer:
    """Expresses matrices exactly in the span of a fixed matrix basis.

    The basis is kept fully reduced as sparse rows: pivot -> (row, combo),
    where row is {entry index: value}, zero at every other pivot, and combo
    is {basis index: value} with row = sum of combo[i] * basis[i].
    """

    def __init__(self, basis):
        self.reduced = {}
        self.dim = len(basis)
        if not basis:
            self.shape = (0, 0)
            return
        self.shape = (basis[0].rows, basis[0].cols)
        for i, b in enumerate(basis):
            if (b.rows, b.cols) != self.shape:
                raise ShapeMismatchError("basis matrices of mixed shapes")
            vec, used = self._eliminate({k: x for k, x in enumerate(b.entries) if x})
            if not vec:
                raise ContractError("basis matrices are linearly dependent")
            pivot = min(vec)
            inv = ONE / vec[pivot]
            vec = {k: v * inv for k, v in vec.items()}
            combo = {k: -v * inv for k, v in used.items()}
            combo[i] = inv
            for row, row_combo in self.reduced.values():
                f = row.get(pivot)
                if f:
                    _axpy(row, -f, vec)
                    _axpy(row_combo, -f, combo)
            self.reduced[pivot] = (vec, combo)

    def _eliminate(self, vec):
        """Subtract from vec (in place) the reduced rows at its pivots.

        Returns (vec, used) with original vec = vec + sum of used[k] * b_k.
        A reduced row is zero at every other pivot, so the factor of each
        row is vec's original entry at that row's pivot.
        """
        used = {}
        for pivot, f in [(k, v) for k, v in vec.items() if k in self.reduced]:
            row, combo = self.reduced[pivot]
            _axpy(vec, -f, row)
            _axpy(used, f, combo)
        return vec, used

    def express(self, m: Matrix):
        """Coefficients of m in the basis, or None if m is outside the span."""
        vec, used = self._eliminate({k: x for k, x in enumerate(m.entries) if x})
        if vec:
            return None
        out = [ZERO] * self.dim
        for k, v in used.items():
            out[k] = v
        return out


def _axpy(acc: dict, f, vec: dict):
    """acc += f * vec on sparse {index: value} vectors, dropping zeros."""
    for k, v in vec.items():
        s = acc.get(k, ZERO) + f * v
        if s:
            acc[k] = s
        elif k in acc:
            del acc[k]


class LieAlgebra:
    """Immutable Lie algebra with a cached sparse structure tensor.

    structure maps (i, j) with i < j to {k: coefficient of b_k in [b_i, b_j]};
    antisymmetry fills in the rest and diagonal brackets vanish.
    """

    def __init__(self, realization, dim, basis=None, structure=None, validate=True):
        self.realization = realization
        self.dim = dim
        self.basis = basis
        self.structure = structure if structure is not None else {}
        self._killing = None
        self._coordinatizer = None
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
        for i in range(d):
            for j in range(i + 1, d):
                comm = mat_mul(basis[i], basis[j]) - mat_mul(basis[j], basis[i])
                coeffs = coord.express(comm)
                if coeffs is None:
                    raise NotClosedError(
                        f"[b_{i}, b_{j}] is outside the span of the basis"
                    )
                entry = {k: c for k, c in enumerate(coeffs) if c}
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
            entry[k] = entry.get(k, ZERO) + value
        for key in list(structure):
            structure[key] = {k: v for k, v in structure[key].items() if v}
            if not structure[key]:
                del structure[key]
        return cls(ABSTRACT, dim, structure=structure, validate=validate)

    # -- internals ----------------------------------------------------

    def coordinatizer(self) -> _Coordinatizer:
        if self.realization != MATRIX:
            raise UnsupportedRealizationError("needs a MATRIX realization")
        if self._coordinatizer is None:
            self._coordinatizer = _Coordinatizer(self.basis)
        return self._coordinatizer

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
        z = self.bracket_sparse(
            {i: v for i, v in enumerate(x) if v}, {j: v for j, v in enumerate(y) if v}
        )
        out = [ZERO] * self.dim
        for k, v in z.items():
            out[k] = v
        return out

    def bracket_sparse(self, x: dict, y: dict) -> dict:
        """[x, y] for sparse {index: coefficient} vectors, as a sparse vector."""
        structure = self.structure
        acc = {}
        for i, xi in x.items():
            for j, yj in y.items():
                if i < j:
                    entry = structure.get((i, j))
                    if entry:
                        _axpy(acc, xi * yj, entry)
                elif i > j:
                    entry = structure.get((j, i))
                    if entry:
                        _axpy(acc, -(xi * yj), entry)
        return acc

    def ad_matrix(self, x) -> Matrix:
        """Matrix of ad(x) = [x, .] on the coefficient space."""
        d = self.dim
        out = Matrix.zeros(d, d)
        for (i, j), entry in self.structure.items():
            if x[i]:
                for k, v in entry.items():
                    out.entries[k * d + j] += x[i] * v
            if x[j]:
                for k, v in entry.items():
                    out.entries[k * d + i] -= x[j] * v
        return out

    def ad_basis_matrix(self, i) -> Matrix:
        x = [ZERO] * self.dim
        x[i] = ONE
        return self.ad_matrix(x)

    def _check_jacobi(self):
        d = self.dim
        for i in range(d):
            for j in range(i + 1, d):
                for k in range(j + 1, d):
                    acc = {}
                    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                        inner = self.structure_entry(a, b)
                        for l, v in inner.items():
                            for m, w in self.structure_entry(l, c).items():
                                s = acc.get(m, ZERO) + v * w
                                if s:
                                    acc[m] = s
                                elif m in acc:
                                    del acc[m]
                    if acc:
                        raise ContractError(
                            f"Jacobi identity fails on basis triple ({i},{j},{k})"
                        )

    # -- spec operations ----------------------------------------------

    def killing_form(self) -> "BilinearForm":
        """K(b_a, b_b) = tr(ad b_a . ad b_b) = sum over j, k of c_{aj}^k c_{bk}^j,
        contracted over the nonzero structure constants only."""
        if self._killing is None:
            d = self.dim
            # ads[a] holds the nonzeros of ad(b_a): {(k, j): c_{aj}^k}
            ads = [{} for _ in range(d)]
            for (i, j), entry in self.structure.items():
                ad_i, ad_j = ads[i], ads[j]
                for k, v in entry.items():
                    ad_i[(k, j)] = v
                    ad_j[(k, i)] = -v
            gram = [ZERO] * (d * d)
            for a in range(d):
                ad_a = ads[a]
                for b in range(a, d):
                    ad_b = ads[b]
                    s = ZERO
                    for (k, j), v in ad_a.items():
                        w = ad_b.get((j, k))
                        if w is not None:
                            s += v * w
                    gram[a * d + b] = gram[b * d + a] = s
            self._killing = BilinearForm(d, Matrix._trusted(d, d, gram))
        return self._killing

    def trace_form(self) -> "BilinearForm":
        if self.realization != MATRIX:
            raise UnsupportedRealizationError("trace form needs a MATRIX realization")
        d = self.dim
        gram = Matrix.zeros(d, d)
        for a in range(d):
            for b in range(a, d):
                s = mat_mul(self.basis[a], self.basis[b]).trace()
                gram.entries[a * d + b] = s
                gram.entries[b * d + a] = s
        return BilinearForm(d, gram)

    def theta_involution(self) -> Matrix:
        """Matrix of X -> -X^t in the basis; NotStableError if the basis is
        not stable under negative transpose."""
        if self.realization != MATRIX:
            raise UnsupportedRealizationError("theta needs a MATRIX realization")
        coord = self.coordinatizer()
        d = self.dim
        out = Matrix.zeros(d, d)
        for j, b in enumerate(self.basis):
            coeffs = coord.express(-b.transpose())
            if coeffs is None:
                raise NotStableError("basis is not stable under X -> -X^t")
            for i, c in enumerate(coeffs):
                out.entries[i * d + j] = c
        return out

    def is_semisimple(self) -> bool:
        gram = self.killing_form().gram
        reduced, pivots = rref(gram.to_rows())
        return len(pivots) == self.dim

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
        gx = [sum((self.gram[i, j] * y[j] for j in range(self.on) if y[j]), ZERO) for i in range(self.on)]
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


def centralizer(algebra: LieAlgebra, subspace: Subspace) -> Subspace:
    """{x : [x, h] = 0 for every h in the subspace}, via one exact solve."""
    if subspace.ambient_dim != algebra.dim:
        raise ShapeMismatchError("subspace lives in the wrong coefficient space")
    rows = []
    for h in subspace.basis_rows():
        rows.extend(algebra.ad_matrix(h).to_rows())
    if not rows:
        return Subspace.full(algebra.dim)
    return kernel(Matrix.from_rows(rows))


def orthogonal_complement(form: BilinearForm, subspace: Subspace) -> Subspace:
    """{x : form(x, h) = 0 for every h in the subspace}."""
    rows = []
    g = form.gram
    for h in subspace.basis_rows():
        rows.append([sum((g[i, j] * h[j] for j in range(form.on) if h[j]), ZERO) for i in range(form.on)])
    if not rows:
        return Subspace.full(form.on)
    return kernel(Matrix.from_rows(rows))


class _SparseEchelon:
    """Forward echelon accumulator over sparse {index: value} rows."""

    def __init__(self, ambient):
        self.ambient = ambient
        self.rows = {}  # pivot index -> normalized sparse row

    def reduce(self, vec: dict) -> dict:
        """A copy of vec minus stored rows; empty exactly when vec is in the
        span.  Stops at the first leading index that has no stored row."""
        vec = dict(vec)
        while vec:
            pivot = min(vec)
            row = self.rows.get(pivot)
            if row is None:
                break
            _axpy(vec, -vec[pivot], row)
        return vec

    def insert(self, vec: dict) -> bool:
        vec = self.reduce(vec)
        if not vec:
            return False
        pivot = min(vec)
        inv = ONE / vec[pivot]
        self.rows[pivot] = {k: v * inv for k, v in vec.items()}
        return True

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def copy(self) -> "_SparseEchelon":
        out = _SparseEchelon(self.ambient)
        out.rows = dict(self.rows)  # stored rows are never mutated
        return out

    @property
    def dim(self):
        return len(self.rows)

    def to_subspace(self) -> Subspace:
        dense = []
        for pivot, row in sorted(self.rows.items()):
            v = [ZERO] * self.ambient
            for k, val in row.items():
                v[k] = val
            dense.append(v)
        return Subspace.from_vectors(self.ambient, dense)


def _sparse_rows(subspace: Subspace):
    return [{k: v for k, v in enumerate(row) if v} for row in subspace.basis_rows()]


def _close(algebra: LieAlgebra, ech: _SparseEchelon, vectors: list, closed: int):
    """Grow vectors, a basis of ech's span, to a bracket-closed set.

    The first `closed` vectors span a subalgebra, so their pairs are never
    bracketed; every other unordered pair is bracketed once, and the loop
    stops as soon as the span is the whole algebra.
    """
    i = closed
    while i < len(vectors) and ech.dim < algebra.dim:
        x = vectors[i]
        for y in vectors[:i]:
            z = algebra.bracket_sparse(x, y)
            if z and ech.insert(z):
                vectors.append(z)
                if ech.dim == algebra.dim:
                    return
        i += 1


def subalgebra_closure(algebra: LieAlgebra, generators: Subspace) -> Subspace:
    """Smallest bracket-closed subspace containing the generators."""
    if generators.ambient_dim != algebra.dim:
        raise ShapeMismatchError("generators live in the wrong coefficient space")
    ech = _SparseEchelon(algebra.dim)
    vectors = [v for v in _sparse_rows(generators) if ech.insert(v)]
    _close(algebra, ech, vectors, 0)
    return ech.to_subspace()


def is_subalgebra(algebra: LieAlgebra, subspace: Subspace) -> bool:
    rows = _sparse_rows(subspace)
    ech = _SparseEchelon(algebra.dim)
    for row in rows:
        ech.insert(row)
    return all(
        ech.contains(algebra.bracket_sparse(rows[i], rows[j]))
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
    h_rows = _sparse_rows(subspace)
    h_ech = _SparseEchelon(algebra.dim)
    for row in h_rows:
        h_ech.insert(row)
    for idx in subspace.complement_coordinate_indices():
        ech = h_ech.copy()
        unit = {idx: ONE}
        ech.insert(unit)
        _close(algebra, ech, h_rows + [unit], len(h_rows))
        if ech.dim < algebra.dim:
            return False, ech.to_subspace()
    return True, None
