"""Explicit so(p,q) constructions: the defining form, the frozen generator
basis, the standard module, T_c, the deformed bracket, the embedding into
so(R^{n+1}, I_{p,q}(c)), the exceptional isomorphisms, and the half-spin
modules of so(4,4) via real Clifford gamma matrices.

Basis convention (frozen; serialized artifacts depend on it): generators are
indexed by pairs (i, j), i < j, in lexicographic order.  The generator for
(i, j) is E_ij - E_ji when coordinates i and j carry the same sign of the
form, and E_ij + E_ji when i < p <= j.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .errors import ContractError, ShapeMismatchError, UnknownSmallestModuleError, UnsupportedRealizationError
from .exact_linalg import (
    Echelon,
    Matrix,
    ONE,
    Rational,
    Subspace,
    ZERO,
    _accumulated,
    _combine_maps,
    _echelon,
    _intertwining_defect,
    _quotient,
    _reduced,
    _trusted,
    congruence_diagonalize,
    invert,
    kernel,
    kron,
    mat_mul,
    proportionality,
    rat,
    rational_sqrt,
    wedge_square_index,
)
from .lie_core import (
    ABSTRACT,
    LieAlgebra,
    _Coordinatizer,
    centralizer,
    is_maximal_subalgebra,
)
from .rep_theory import (
    Representation,
    _bracket_defect,
    dual_rep,
    invariant_symmetric_forms,
    is_irreducible,
    restrict,
    wedge_square_rep,
)


class _SignatureFields(NamedTuple):
    p: int
    q: int


class Signature(_SignatureFields):
    __slots__ = ()

    def __new__(cls, p: int, q: int):
        for v in (p, q):
            if type(v) is bool or not isinstance(v, int):
                raise ContractError(f"signature entries must be ints, got {v!r}")
        if p < 0 or q < 0 or p + q < 1:
            raise ContractError("signature needs p, q >= 0 and p + q >= 1")
        return super().__new__(cls, p, q)

    @classmethod
    def _make(cls, iterable):  # so _replace validates too
        return cls(*iterable)

    @property
    def n(self) -> int:
        return self.p + self.q


def ipq(p: int, q: int) -> Matrix:
    """The defining diagonal form diag(I_p, -I_q)."""
    Signature(p, q)
    return Matrix.diagonal([ONE] * p + [-ONE] * q)


def ipq_c(p: int, q: int, c) -> Matrix:
    """diag(c, I_{p,q}) for c > 0 and diag(I_{p,q}, c) for c < 0: the
    form F0 + c.F1 of `_Family.branch` at c."""
    c = rat(c)
    if c == 0:
        raise ContractError("ipq_c requires c != 0")
    (f0, f1), _ = _family(p, q).branch(c > 0)
    return f0 + f1.scale(c)


@functools.lru_cache(maxsize=64, typed=True)
def so_pq_algebra(p: int, q: int) -> LieAlgebra:
    """MATRIX realization of so(p,q) in the frozen generator basis: the
    closed form of `_diagonal_so` for I_{p,q}.

    Memoized per (p, q): the algebra and its basis matrices are immutable,
    so every caller can share one instance.
    """
    n = Signature(p, q).n
    if n < 2:
        raise ContractError("so(p,q) needs p + q >= 2")
    return _diagonal_so([1] * p + [-1] * q)


def _diagonal_so(diag) -> LieAlgebra:
    """so(R^N, D) for D = diag(d_0, ..., d_{N-1}), nonzero ints (or any
    common nonzero multiple of the form's diagonal: only the ratios enter),
    in closed form, with no kernel and no commutator solve.

    The basis is the canonical kernel basis of `_form_preserving_algebra`:
    X_ij = E_ij - (d_i/d_j).E_ji for i < j, in lexicographic order, each as
    canonical integer rows (with d_i/d_j = a/b in lowest terms, b > 0,
    {i: {j: b}, j: {i: -a}} over b, each distinct unit row one shared
    dict).  Two of them bracket to a nonzero only when they share exactly
    one index, and for x < y < z
    [X_xy, X_yz] = X_xz, [X_xy, X_xz] = -(d_x/d_y).X_yz and
    [X_xz, X_yz] = -(d_y/d_z).X_xy.

    The algebra carries `_DiagonalCoordinates` as its coordinatizer, which
    reads coordinates off the entries: no echelon is built.
    """
    n = len(diag)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]  # as wedge_square_index(n)
    # pair (i, j) has index start[i] + j
    start = [i * n - i * (i + 3) // 2 - 1 for i in range(n)]
    basis, minus_ratio, units = [], [], {}
    for i, j in pairs:
        r = Rational(diag[i], diag[j])
        a, b = int(r.numerator), int(r.denominator)
        basis.append(_trusted(n, n, {i: _unit_row(units, j, b), j: _unit_row(units, i, -a)}, b))
        minus_ratio.append(-r)
    entries = []
    for xy, (x, y) in enumerate(pairs):
        for z in range(y + 1, n):
            xz, yz = start[x] + z, start[y] + z
            entries.append((xy, yz, xz, ONE))
            entries.append((xy, xz, yz, minus_ratio[xy]))
            entries.append((xz, yz, xy, minus_ratio[yz]))
    alg = LieAlgebra.from_structure(len(pairs), entries, validate=False, basis=basis)
    alg._coordinatizer = _DiagonalCoordinates(diag, start)
    return alg


class _DiagonalCoordinates(_Coordinatizer):
    """Coordinates in the closed-form basis X_ij = E_ij - (d_i/d_j).E_ji of
    `_diagonal_so`, read off the entries with no elimination.

    The coefficient of X_ij (i < j) in A is A_ij.  A lies in the span
    exactly when its diagonal is zero, d_j.A_ji = -d_i.A_ij for every
    stored (i, j) with i < j, and every stored (j, i) below the diagonal is
    matched so: the reads are those of the echelon `_Coordinatizer` of the
    same basis, through the same `express` and `express_sparse`.
    """

    def __init__(self, diag, start):
        n = len(diag)
        self.dim = n * (n - 1) // 2
        self.shape = (n, n)
        self.size = n * n
        self.diag = diag
        self.start = start  # pair (i, j) has index start[i] + j

    def _express_flat(self, vec: dict, den: int):
        n, diag, start = self.shape[0], self.diag, self.start
        out = {}
        below = 0
        for k, x in vec.items():
            i, j = divmod(k, n)
            if i < j:
                if diag[j] * vec.get(j * n + i, 0) != -diag[i] * x:
                    return None
                out[start[i] + j] = Rational(x, den)
            elif i > j:
                below += 1
            else:
                return None
        # every entry above the diagonal has its partner below; any other
        # entry below is unmatched
        return out if below == len(out) else None


def standard_rep(p: int, q: int) -> Representation:
    """Natural representation: each basis element acts as itself on R^n."""
    algebra = so_pq_algebra(p, q)
    return Representation(algebra, p + q, list(algebra.basis))


def t_c(p: int, q: int, c) -> Matrix:
    """Matrix of T_c : wedge^2 R^n -> so(p,q) in the frozen bases.

    T_c(u ^ v) = c<u,.>v - c<v,.>u; on basis bivectors the image is a single
    generator, so the integer rows hold one entry per column: -c when both
    coordinates are positive and c otherwise."""
    c = rat(c)
    pairs = wedge_square_index(Signature(p, q).n)
    a, b = int(c.numerator), int(c.denominator)
    # row index equals generator index; a zero c gives the zero matrix, den 1
    rows = {idx: {idx: -a if j < p else a} for idx, (_, j) in enumerate(pairs)} if a else {}
    return _trusted(len(pairs), len(pairs), rows, b)


class DeformedAlgebra(NamedTuple):
    """so(p,q) (+) R^{p,q} with the bracket [.,.]_c, as an abstract algebra.

    Coordinates 0..m-1 are the so(p,q) block in the frozen basis order;
    coordinates m..m+n-1 are the standard module.
    """

    p: int
    q: int
    c: Rational
    algebra: LieAlgebra
    so_indices: tuple
    vec_indices: tuple

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def so_block_subspace(self) -> Subspace:
        return _so_block(self.p, self.q)

    def to_json_dict(self) -> dict:
        data = self.algebra.to_json_dict()
        data.update(
            {
                "p": self.p,
                "q": self.q,
                "c": str(self.c),
                "blocks": {
                    "so": list(self.so_indices),
                    "vec": list(self.vec_indices),
                },
            }
        )
        return data


def _so_block(p: int, q: int) -> Subspace:
    """The so(p,q) block of so(p,q) (+) R^{p,q}: its first m coordinates."""
    m = (p + q) * (p + q - 1) // 2
    return Subspace(_echelon(m + p + q, ({i: 1} for i in range(m))))


def _deformation_constants(p: int, q: int):
    """(base, vec), the tensors {(i, j): {k: constant}} (i < j) of the
    c-free brackets, [so, so] and the action [X, e_i] = X e_i, and of the
    coefficients of c, [e_i, e_j] = T_1(e_i ^ e_j) for i < j, read off
    column idx of `t_c(p, q, 1)`, idx the place of (i, j).  The [so, so]
    entries are those of `so_pq_algebra(p, q).structure` themselves, and
    the action's one-entry rows are shared, one dict per distinct row."""
    so = so_pq_algebra(p, q)
    m, n = so.dim, p + q
    base, units = dict(so.structure), {}
    for a, gen in enumerate(so.basis):
        # [X, e_i] = X e_i = sum over k of X_ki e_k, one k per column
        for i, column in gen.transpose()._data.items():
            (k, x), = column.items()
            base[(a, m + i)] = _unit_row(units, m + k, _quotient(x, gen.den))
    t1 = t_c(p, q, 1)
    columns = t1.transpose()._data
    vec = {
        (m + i, m + j): {k: _quotient(x, t1.den) for k, x in columns[idx].items()}
        for idx, (i, j) in enumerate(wedge_square_index(n))
        if idx in columns
    }
    return base, vec


def _unit_row(units: dict, j: int, v) -> dict:
    """The row {j: v}, built on the first ask and kept in units under
    (j, v), so that equal unit rows are one shared dict."""
    row = units.get((j, v))
    if row is None:
        row = units[(j, v)] = {j: v}
    return row


def _per_branch(fact):
    """A `_Family` fact of one branch of c (a sign of c, or c = 0 against
    c != 0), kept under (its name, the branch) on its first read."""
    def read(self, branch):
        key = (fact.__name__, branch)
        if key not in self._branches:
            self._branches[key] = fact(self, branch)
        return self._branches[key]
    return functools.update_wrapper(read, fact)


class _Family:
    """The facts of so(p,q) (+) R^{p,q} under [.,.]_c = base + c.vec that
    hold for every rational c, or every c of one branch: one record per
    (p, q), from `_family`.  Each fact is filled on its first read from only
    the facts it rests on, and one that raises is not kept.

    Every fact is read at the representative of its branch of c, c = 0, 1
    or -1, by one grading lemma (the Inonu-Wigner contraction picture).
    Give so(p,q) weight 0 and the vectors weight 1.  Under (G), which
    `constants` checks, a constant c_ij^k of [.,.]_c is
    c^((w_i + w_j - w_k)/2) times that of [.,.]_1.  Hence:
    - each Jacobi term on a triple (x, y, z) at coordinate u is homogeneous
      in c, of degree (w_x + w_y + w_z - w_u)/2, so Jacobi holds for every
      c, 0 included, once it holds at c = 1 (`jacobi`);
    - each Killing term at (x, y) has degree (w_x + w_y)/2, so
      K(c) = K0 + c.K1, K0 the so rows of K(1) and K1 its vector rows: an
      odd weight sum has no term, so the mixed block is 0, and no term has
      degree 2 (`grams`);
    - for c != 0 of sign s, with t^2 = |c| and S = diag(t at the extra
      coordinate x, 1 elsewhere), e -> t.e carries [.,.]_c onto [.,.]_s,
      and on the supports `embedding_defect` checks rho_c(X) =
      S^-1.rho_s(X).S, rho_c(e) = t.S^-1.rho_s(e).S and S^-1.F_c.S^-1 = F_s,
      so (E) holds on the whole branch once it holds at c = s.
    The Jacobi pass, the Killing grams, (E) at c > 0 and the c != 0
    maximality closure read one [.,.]_1, `algebra(1)`, and its one integer
    tensor; `deformed_algebra` drops it again when its own read built it.
    (E) reads the constants and the sign branch, not the Jacobi pass."""

    def __init__(self, p: int, q: int):
        n = Signature(p, q).n
        self.p, self.q = p, q
        self.m, self.dim = n * (n - 1) // 2, n * (n + 1) // 2
        self._branches = {}

    @functools.cached_property
    def constants(self):
        """(base, vec), the tensors {(i, j): {k: constant}} of the c-free
        brackets and of the coefficients of c, graded (G): every key of vec
        brackets two vectors into so(p,q); every key of base holds an so
        index, a bracket of two so indices lands in so(p,q) and one of an so
        index and a vector lands in the vectors.  Raises ContractError below
        p + q = 3 or when the grading fails."""
        if self.p + self.q < 3:
            raise ContractError("the deformed bracket needs p + q >= 3")
        base, vec = _deformation_constants(self.p, self.q)
        m = self.m
        if any(i < m for i, _ in vec):
            raise ContractError("a c-dependent bracket of the family has an so(p,q) index")
        if any(i >= m for i, _ in base):
            raise ContractError("a c-free bracket of the family brackets two vectors")
        if any(k >= m for entry in vec.values() for k in entry):
            raise ContractError("a c-dependent bracket of two vectors leaves so(p,q)")
        if any(k >= m for (_, j), entry in base.items() if j < m for k in entry):
            raise ContractError("a c-free bracket of two so(p,q) indices leaves so(p,q)")
        if any(k < m for (_, j), entry in base.items() if j >= m for k in entry):
            raise ContractError("a c-free bracket of so(p,q) and a vector leaves the vectors")
        return base, vec

    def _bracket(self, sign: int) -> LieAlgebra:
        """A fresh [.,.]_sign for sign in {0, 1, -1}: base, base + vec or
        base - vec."""
        base, vec = self.constants
        structure = dict(base)
        if sign:
            for key, entry in vec.items():
                structure[key] = entry if sign > 0 else {k: -v for k, v in entry.items()}
        return LieAlgebra(ABSTRACT, self.dim, structure=structure, validate=False)

    @functools.cached_property
    def jacobi(self) -> bool:
        """True: Jacobi holds at c = 1, so for every rational c by the
        grading.  Raises ContractError naming the triple."""
        self.algebra(1)._check_jacobi()
        return True

    @functools.cached_property
    def grams(self):
        """(K0, K1): the Killing gram K(c) = K0 + c.K1, K0 the rows of K(1)
        at the so indices and K1 those at the vector indices."""
        gram, m, d = self.algebra(1).killing_form().gram, self.m, self.dim
        k0 = {i: row for i, row in gram._data.items() if i < m}
        k1 = {i: row for i, row in gram._data.items() if i >= m}
        return _reduced(d, d, k0, gram.den), _reduced(d, d, k1, gram.den)

    @_per_branch
    def algebra(self, sign: int) -> LieAlgebra:
        """[.,.]_sign, the representative of the branch of c of that sign
        (sign 0 for c = 0)."""
        return self._bracket(sign)

    @functools.cached_property
    def centralizer(self) -> Subspace:
        """The centralizer of the so(p,q) block in [.,.]_c, one subspace for
        every c, 0 included: a bracket with an so index is a key of base, so
        [x, h]_c = [x, h]_0 for every h in the block."""
        return centralizer(self.algebra(0), _so_block(self.p, self.q))

    @_per_branch
    def maximality(self, deformed: bool):
        """is_maximal_subalgebra of the so(p,q) block: at c = 0 on base, and
        for every c != 0 (deformed) on base + vec, c = 1.  For c != 0 each
        constant of [.,.]_c is a nonzero multiple of that of [.,.]_1 (the
        grading of the class), so each closure, its verdict and its witness
        at c != 0 are those at c = 1."""
        return is_maximal_subalgebra(self.algebra(int(deformed)), _so_block(self.p, self.q))

    @_per_branch
    def branch(self, positive: bool):
        """The embedding of one sign of c as polynomials in c, read by `ipq_c`,
        `embedding_iso`, `sqrt_conjugation` and (E): (form, images), tuples
        of immutable matrix parts, part d the coefficient of c^d.  form is
        (F0, F1), I_{p,q}(c) = F0 + c.F1, F1 = E_{x,x} for x the extra
        coordinate, first (every other index raised by one) for c > 0 and
        last for c < 0.  images holds one (P, Q), image P + c.Q, per
        deformed-algebra basis index: the so(p,q) basis at the raised places
        with Q = 0, then e_i with P = -eta_i.E_{x,r}, Q = E_{r,x}, r the place
        of coordinate i; none below n = 3."""
        p, q = self.p, self.q
        n = p + q
        shift, extra = (1, 0) if positive else (0, n)
        f0 = {i + shift: {i + shift: 1 if i < p else -1} for i in range(n)}
        form = (_trusted(n + 1, n + 1, f0), _trusted(n + 1, n + 1, {extra: {extra: 1}}))
        if n < 3:
            return form, ()
        zero = Matrix.zeros(n + 1, n + 1)
        images, units = [], {}
        for gen in so_pq_algebra(p, q).basis:
            rows = gen._data  # for c < 0 the generators' own rows serve
            if shift:  # one entry per row, shifted into a shared unit row
                rows = {}
                for i, row in gen._data.items():
                    (j, x), = row.items()
                    rows[i + 1] = _unit_row(units, j + 1, x)
            images.append((_trusted(n + 1, n + 1, rows, gen.den), zero))
        to_extra = {extra: 1}  # the one row of every Q, shared
        for i in range(n):
            r = i + shift
            p_i = _trusted(n + 1, n + 1, {extra: {r: -1 if i < p else 1}})
            images.append((p_i, _trusted(n + 1, n + 1, {r: to_extra})))
        return form, tuple(images)

    @_per_branch
    def embedding_defect(self, positive: bool):
        """(E): why the embedding of [.,.]_c fails for some c of one sign s,
        or None.  First the supports of the branch parts that the grading
        lemma rests on, x the extra coordinate: F1 = E_{x,x} and F0 off row
        and column x; every so image c-free and off row and column x; every
        vector image with its P part in row x and its Q part in column x,
        never at (x, x).  Then `_embedding_defect` at the representative
        c = s.  It rests on no Jacobi identity, so it runs no Jacobi pass."""
        (f0, f1), images = self.branch(positive)
        m = self.m
        x = 0 if positive else self.p + self.q
        if f1 != _trusted(f1.rows, f1.cols, {x: {x: 1}}) or not _off(f0, x):
            return "the form is not F0 + c.E_{x,x} with F0 off row and column x"
        for a, (y, z) in enumerate(images[:m]):
            if z._data or not _off(y, x):
                return f"the image of X_{a} depends on c or meets the extra coordinate"
        for i, (y, z) in enumerate(images[m:]):
            if not set(y._data) <= {x} or x in y._data.get(x, ()):
                return f"the c-free part of the image of e_{i} leaves row x"
            if x in z._data or any(set(row) != {x} for row in z._data.values()):
                return f"the c part of the image of e_{i} leaves column x"
        s = 1 if positive else -1
        images = [y + z.scale(s) for y, z in images]
        return _embedding_defect(self.algebra(s), f0 + f1.scale(s), images)

    @_per_branch
    def complement_defect(self, positive: bool):
        """Why, for some c of one sign branch, the trace-form complement of
        rho_c(so) in T = so(R^{n+1}, I_{p,q}(c)) is not R^{p,q}, irreducible,
        given dim T = m + n; or None.  (E): rho_c is injective, so
        T = rho_c(so) (+) rho_c(V).  On the supports (E) checks, rho_c(X_a)
        has no entry in row or column x and rho_c(e_i) has entries only
        there, so every term of tr(rho_c(X_a).rho_c(e_i)) vanishes; the trace
        form is nondegenerate on rho_c(so), so rho_c(V) is the complement.
        By (E) and (G), [rho X_a, rho e_i] = sum_k (X_a)_ki rho e_k, and (R)
        decides the module.  The c-free facts are
        `standard_complement_defect`."""
        return self.embedding_defect(positive) or self.standard_complement_defect

    @functools.cached_property
    def standard_complement_defect(self):
        """Why a c-free fact of `complement_defect` fails, or None: (G) the
        base value of every key (X_a, e_i) is column i of X_a on the vectors;
        the trace form of so(p,q), that of rho_c(so) (the generators placed in
        a block), is nondegenerate; and (R) R^{p,q} is irreducible."""
        base, _ = self.constants
        std = standard_rep(self.p, self.q)
        m, n = std.algebra.dim, std.module_dim
        for a, gen in enumerate(std.actions):
            columns = gen.transpose()._data
            for i in range(n):
                column = {m + k: _quotient(x, gen.den) for k, x in columns.get(i, {}).items()}
                if base.get((a, m + i), {}) != column:
                    return f"[X_{a}, e_{i}] is not column {i} of X_{a} on the vectors"
        if kernel(std.algebra.trace_form().gram).dim:
            return "the trace form of so(p,q) is degenerate"
        verdict = is_irreducible(std)
        if verdict.status != "IRREDUCIBLE":
            return f"R^{{p,q}} verdict {verdict.status}, endo_dim {verdict.endo_dim}"
        return None

    @functools.cached_property
    def killing_blocks(self):
        """(reason, a1, r1) for K(c) = K0 + c.K1, block by block (the so
        block the first m indices, the vector block the last n): the mixed
        block vanishes, the so block of K0 is a1 x Killing(so(p,q)) and the
        vector block of K1 is r1 x <.,.>_{p,q}, so a2 = c.r1.  reason is None
        when all of this holds with a1 and r1 nonzero."""
        k0, k1 = self.grams
        so_range, vec_range = range(self.m), range(self.m, self.dim)
        if not (_block(k0, so_range, vec_range).is_zero() and _block(k1, vec_range, so_range).is_zero()):
            return "mixed block is not zero", None, None
        a1 = proportionality(_block(k0, so_range, so_range), so_pq_algebra(self.p, self.q).killing_form().gram)
        if a1 is None:
            return "so block not proportional to Killing(so(p,q))", None, None
        r1 = proportionality(_block(k1, vec_range, vec_range), ipq(self.p, self.q))
        if r1 is None:
            return "vector block not proportional to <.,.>_{p,q}", None, None
        if not a1 or not r1:
            return "a proportionality constant vanished", None, None
        return None, a1, r1

    @functools.cached_property
    def t1_equivariance_defect(self):
        """The first basis index x with ad(x).T_1 != T_1.wedge(x), or None:
        equivariance is linear in T, and T_c = c.T_1."""
        wedge = wedge_square_rep(standard_rep(self.p, self.q))
        t1 = t_c(self.p, self.q, 1)
        for x, action in enumerate(wedge.actions):
            if _intertwining_defect(wedge.algebra.ad_basis_matrix(x), t1, action)[0]:
                return x
        return None

    @functools.cached_property
    def t1_rank(self) -> int:
        """rank T_1: rank T_c = rank T_1 for every c != 0, where T_c = c.T_1."""
        t1 = t_c(self.p, self.q, 1)
        return t1.cols - kernel(t1).dim


@functools.lru_cache(maxsize=64, typed=True)
def _family(p: int, q: int) -> _Family:
    """The one `_Family` record of (p, q)."""
    return _Family(p, q)


def deformed_algebra(p: int, q: int, c) -> DeformedAlgebra:
    """The bracket [.,.]_c on so(p,q) (+) R^{p,q}, read off the record of
    (p, q), whose Jacobi pass at c = 1 certifies it for every c: no per-c
    Jacobi run, and the Killing gram is K0 + c.K1.  The [.,.]_1 those two
    facts read is dropped again unless the record held it before, so a
    reader of [.,.]_c alone leaves only the facts on the record."""
    c = rat(c)
    family = _family(p, q)
    base, vec = family.constants
    kept = ("algebra", 1) in family._branches
    try:
        family.jacobi  # certified for every rational c, or ContractError
        k0, k1 = family.grams
    finally:
        if not kept:
            family._branches.pop(("algebra", 1), None)
    structure = dict(base)
    if c:
        for key, entry in vec.items():
            structure[key] = {k: c * v for k, v in entry.items()}
    m, dim = family.m, family.dim
    algebra = LieAlgebra._certified(dim, structure, k0 + k1.scale(c))
    return DeformedAlgebra(p, q, c, algebra, tuple(range(m)), tuple(range(m, dim)))


class EmbeddingIso(NamedTuple):
    """The explicit map (X, u) -> block matrix into so(R^{n+1}, I_{p,q}(c))."""

    p: int
    q: int
    c: Rational
    target_form: Matrix
    images: list  # one (n+1) x (n+1) matrix per deformed-algebra basis index


def embedding_iso(p: int, q: int, c) -> EmbeddingIso:
    """The embedding of [.,.]_c into so(R^{n+1}, I_{p,q}(c)): the branch of
    the sign of c (`_Family.branch`) at c, images P + c.Q and target form
    `ipq_c`, the very polynomials (E) certifies."""
    c = rat(c)
    if c == 0:
        raise ContractError("embedding_iso requires c != 0")
    _, images = _family(p, q).branch(c > 0)
    if not images:
        raise ContractError("embedding_iso needs p + q >= 3")
    images = [x if y.is_zero() else y.scale(c) + x for x, y in images]
    return EmbeddingIso(p=p, q=q, c=c, target_form=ipq_c(p, q, c), images=images)


def _embedding_defect(algebra, form, images):
    """Why the images (one matrix per basis element) fail to embed algebra
    into so(form), or None.  Three certificates, in order: every image A
    has A^t.form + form.A = 0, the integer vector of
    `_intertwining_defect(-A^t, form, A)`; `rep_theory._bracket_defect`
    finds no failing pair; the images are independent."""
    for y in images:
        if _intertwining_defect(-y.transpose(), form, y)[0]:
            return "image leaves so(R^{n+1}, I_{p,q}(c))"
    defect = _bracket_defect(algebra, images)
    if defect is not None:
        a, b = defect
        return f"bracket not intertwined: homomorphism property fails on basis pair ({a},{b})"
    ech = Echelon(form.rows * form.rows)
    if not all(ech.insert(y._flat()) for y in images):
        return "embedding is not injective"
    return None


def _off(x: Matrix, i: int) -> bool:
    """Whether x has no entry in row i or column i."""
    return i not in x._data and all(i not in row for row in x._data.values())


def _block(k: Matrix, rows: range, cols: range) -> Matrix:
    """The block rows x cols of k, reindexed from 0, in canonical form."""
    data = {i - rows.start: {j - cols.start: x for j, x in row.items() if j in cols}
            for i, row in k._data.items() if i in rows}
    return _accumulated(len(rows), len(cols), data, k.den)


def so_of_form(form: Matrix) -> LieAlgebra:
    """so(R^N, form) = {A : A^t.form + form.A = 0} with the canonical
    kernel basis.

    A diagonal nondegenerate form, one whose every row holds exactly its
    nonzero diagonal entry (I_{p,q}(c) is one), gets that basis, its
    structure and its coordinate reader in closed form from `_diagonal_so`.
    A degenerate or non-diagonal symmetric form goes through the N^2 x N^2
    kernel of `_form_preserving_algebra`.
    """
    if not form.is_symmetric():
        raise ContractError("so_of_form requires a symmetric form")
    rows = form._data
    if len(rows) == form.rows and all(len(row) == 1 and i in row for i, row in rows.items()):
        return _diagonal_so([rows[i][i] for i in range(form.rows)])
    return _form_preserving_algebra(form)


def sqrt_conjugation(p: int, q: int, c) -> Matrix | None:
    """For perfect-square |c|: the diagonal S with S.J.S = I_{p,q}(c), so
    S.so(I_{p,q}(c)).S^{-1} = so(J), for J = I_{p+1,q} (c > 0) or I_{p,q+1}
    (c < 0): sqrt|c| at the extra coordinate of `_Family.branch`, 1
    elsewhere.  None otherwise."""
    c = rat(c)
    if c == 0:
        raise ContractError("c must be nonzero")
    (_, f1), _ = _family(p, q).branch(c > 0)
    s = rational_sqrt(abs(c))
    return None if s is None else Matrix.identity(f1.rows) + f1.scale(s - 1)


# -- exceptional isomorphisms -----------------------------------------


SO31_SL2C = "SO31_SL2C"
SO32_SP4R = "SO32_SP4R"
SO33_SL4R = "SO33_SL4R"


class ExceptionalIso(NamedTuple):
    name: str
    small_algebra: LieAlgebra
    small_modules: list  # Representation objects realizing the small modules
    carrier: Representation  # module whose invariant form produces the iso
    carrier_form: Matrix
    normalizer: Matrix  # S with S^t.form.S = scale * I_{p,q}
    scale: Rational
    target: LieAlgebra  # so(p,q) in the frozen basis
    iso_coeffs: Matrix  # columns: image of small-algebra basis in target basis


@functools.lru_cache(maxsize=8)
def exceptional_iso(name: str) -> ExceptionalIso:
    """The named isomorphism, solved and certified once per process."""
    if name == SO31_SL2C:
        return _iso_sl2c()
    if name == SO32_SP4R:
        return _iso_sp4()
    if name == SO33_SL4R:
        return _iso_sl4()
    raise ContractError(f"unknown exceptional isomorphism {name!r}")


def _iso_sl4():
    algebra = _sl4_algebra()
    std = Representation(algebra, 4, list(algebra.basis))
    wedge = wedge_square_rep(std)
    return _finish_iso(
        SO33_SL4R, algebra, [std, dual_rep(std)], wedge, target_p=3, target_q=3
    )


def _iso_sp4():
    omega = Matrix.from_rows(
        [
            [ZERO, ZERO, ONE, ZERO],
            [ZERO, ZERO, ZERO, ONE],
            [-ONE, ZERO, ZERO, ZERO],
            [ZERO, -ONE, ZERO, ZERO],
        ]
    )
    algebra = _form_preserving_algebra(omega)
    std = Representation(algebra, 4, list(algebra.basis))
    wedge = wedge_square_rep(std)
    # primitive part: kernel of contraction with the symplectic form
    pairs = wedge_square_index(4)
    contraction = Matrix.from_rows([[omega[i, j] for (i, j) in pairs]])
    primitive = kernel(contraction)
    carrier = restrict(wedge, primitive)
    return _finish_iso(SO32_SP4R, algebra, [std], carrier, target_p=3, target_q=2)


def _iso_sl2c():
    algebra, herm = _sl2c_realified()
    cvec = Representation(algebra, 4, list(algebra.basis))
    return _finish_iso(SO31_SL2C, algebra, [cvec], herm, target_p=3, target_q=1)


def _finish_iso(name, algebra, small_modules, carrier, target_p, target_q):
    forms = invariant_symmetric_forms(carrier)
    if len(forms) != 1:
        raise ContractError(
            f"{name}: expected a unique invariant symmetric form, got {len(forms)}"
        )
    form = forms[0]
    s, scale = _normalize_form_to_scaled_ipq(form, target_p, target_q)
    target = so_pq_algebra(target_p, target_q)
    coord = target.coordinatizer()
    sinv = invert(s)
    d = algebra.dim
    iso = {}
    for j in range(d):
        image = mat_mul(mat_mul(sinv, carrier.actions[j]), s)
        coeffs = coord.express_sparse(image)
        if coeffs is None:
            raise ContractError(f"{name}: conjugated action left so({target_p},{target_q})")
        for i, cf in coeffs.items():
            iso[(i, j)] = cf
    return ExceptionalIso(
        name=name,
        small_algebra=algebra,
        small_modules=small_modules,
        carrier=carrier,
        carrier_form=form,
        normalizer=s,
        scale=scale,
        target=target,
        iso_coeffs=Matrix.from_sparse(target.dim, d, iso),
    )


def _normalize_form_to_scaled_ipq(gram: Matrix, p: int, q: int):
    """Rational S and scale with S^t.gram.S = scale * I_{p,q}.

    Works whenever, after exact congruence diagonalization, positives and
    negatives pair up into planes with perfect-square ratio (hyperbolic
    planes) and the leftovers match the scale up to squares; that covers
    every carrier form this package constructs.
    """
    n = p + q
    if gram.rows != n:
        raise ShapeMismatchError("form has the wrong size for the target signature")
    pmat, diag = congruence_diagonalize(gram)
    if any(d == 0 for d in diag):
        raise ContractError("carrier form is degenerate")
    pos = [i for i, d in enumerate(diag) if d > 0]
    neg = [i for i, d in enumerate(diag) if d < 0]
    candidates = []
    for d in diag:
        a = abs(d)
        if a not in candidates:
            candidates.append(a)
    if ONE not in candidates:
        candidates.insert(0, ONE)
    flip = len(pos) != p
    if flip and len(neg) != p:
        raise ContractError("carrier form has the wrong inertia")
    want_pos, want_neg = (neg, pos) if flip else (pos, neg)
    sign = -ONE if flip else ONE
    for lam in candidates:
        cols = _match_columns(diag, want_pos, want_neg, sign * lam)
        if cols is not None:
            # the columns of s are the matched vectors, in order
            s = Matrix.from_rows(cols[0] + cols[1]).transpose()
            full = mat_mul(pmat, s)
            return full, sign * lam
    raise ContractError("could not rationally normalize the carrier form")


def _match_columns(diag, pos, neg, lam):
    """Columns (in the diagonalized coordinates) of norms +lam then -lam."""
    n = len(diag)
    pos = list(pos)
    neg = list(neg)
    plus_cols = []
    minus_cols = []

    def unit(i, coeff=ONE):
        v = [ZERO] * n
        v[i] = coeff
        return v

    # singles whose ratio to lam is a perfect square
    for i in list(pos):
        r = rational_sqrt(lam / diag[i])
        if r is not None:
            plus_cols.append(unit(i, r))
            pos.remove(i)
    for j in list(neg):
        r = rational_sqrt(lam / -diag[j])
        if r is not None:
            minus_cols.append(unit(j, r))
            neg.remove(j)
    # pair leftovers into rational hyperbolic planes
    while pos and neg:
        i = pos.pop()
        match = None
        for j in neg:
            r = rational_sqrt(-diag[j] / diag[i])
            if r is not None:
                match = (j, r)
                break
        if match is None:
            return None
        j, r = match
        neg.remove(j)
        # isotropic pair u0 = e_i + e_j / r', pairing s0 = 2 d_i
        rinv = 1 / r
        u0 = [ZERO] * n
        u0[i] = ONE
        u0[j] = rinv
        u1 = [ZERO] * n
        u1[i] = ONE
        u1[j] = -rinv
        s0 = 2 * diag[i]
        f = lam / (2 * s0)
        plus_cols.append([f * a + b for a, b in zip(u0, u1)])
        minus_cols.append([f * a - b for a, b in zip(u0, u1)])
    if pos or neg:
        return None
    return plus_cols, minus_cols


def _sl4_algebra() -> LieAlgebra:
    basis = [
        Matrix.from_sparse(4, 4, {(i, j): ONE}) for i in range(4) for j in range(4) if i != j
    ]
    for i in range(3):
        basis.append(Matrix.from_sparse(4, 4, {(i, i): ONE, (i + 1, i + 1): -ONE}))
    return LieAlgebra.from_matrices(basis, validate=False)


def _form_preserving_algebra(form: Matrix) -> LieAlgebra:
    """{A : A^t.form + form.A = 0} for an arbitrary (possibly skew) form,
    with the canonical kernel basis."""
    d = form.rows
    # unknowns A_{kl} in column k * d + l; equation (i, j) in row i * d + j:
    # sum over k of form[k, j] A_{ki} + form[i, k] A_{kj} = 0
    # on the form's integer rows: den * (the system), the same kernel
    rows, columns = form._data, form.transpose()._data
    equations = {}
    for i in range(d):
        for j in range(d):
            eq = {}
            for k, v in columns.get(j, {}).items():
                eq[k * d + i] = eq.get(k * d + i, 0) + v
            for k, v in rows.get(i, {}).items():
                eq[k * d + j] = eq.get(k * d + j, 0) + v
            eq = {col: v for col, v in eq.items() if v}
            if eq:
                equations[i * d + j] = eq
    system = _trusted(d * d, d * d, equations)
    return LieAlgebra.from_matrices(kernel(system).basis_matrices(d, d), validate=False)


# the sl(2,C) case: a complex 2x2 matrix is a (re, im) pair, realified to a
# real 4x4 matrix


def _sl2c_complex_basis():
    z = Matrix.zeros(2, 2)
    h = Matrix.from_rows([[ONE, ZERO], [ZERO, -ONE]])
    e = Matrix.from_rows([[ZERO, ONE], [ZERO, ZERO]])
    f = Matrix.from_rows([[ZERO, ZERO], [ONE, ZERO]])
    real = [(h, z), (e, z), (f, z)]
    imag = [(z, h), (z, e), (z, f)]
    return real + imag


def _realify(cm) -> Matrix:
    re, im = cm
    n = re.rows
    out = {}
    for i in range(n):
        for j in range(n):
            a, b = re[i, j], im[i, j]
            out[(2 * i, 2 * j)] = a
            out[(2 * i, 2 * j + 1)] = -b
            out[(2 * i + 1, 2 * j)] = b
            out[(2 * i + 1, 2 * j + 1)] = a
    return Matrix.from_sparse(2 * n, 2 * n, out)


def _herm_basis():
    z = Matrix.zeros(2, 2)
    ident = Matrix.identity(2)
    s1 = Matrix.from_rows([[ZERO, ONE], [ONE, ZERO]])
    s2_im = Matrix.from_rows([[ZERO, -ONE], [ONE, ZERO]])  # imaginary part of sigma_2
    s3 = Matrix.from_rows([[ONE, ZERO], [ZERO, -ONE]])
    return [(ident, z), (s1, z), (z, s2_im), (s3, z)]


def _sl2c_realified():
    """The realified sl(2,C) with its action on 2x2 Hermitian matrices.

    The Hermitian action X.A = X A + A conj(X)^t carries the four-dimensional
    module whose invariant form has inertia (3,1).  Realification R sends
    conj(X)^t to R(X)^t, so the action is R(X) R(A) + R(A) R(X)^t, read off
    in the realified Hermitian basis.
    """
    algebra = LieAlgebra.from_matrices([_realify(x) for x in _sl2c_complex_basis()], validate=False)
    herm = [_realify(b) for b in _herm_basis()]
    coord = _Coordinatizer(herm)
    actions = []
    for x in algebra.basis:
        cols = [coord.express(x @ b + b @ x.transpose()) for b in herm]
        actions.append(Matrix.from_rows(cols).transpose())
    herm_rep = Representation(algebra, 4, actions)
    return algebra, herm_rep


def sl2c_compact_form_vectors():
    """su(2) = span{iH, E - F, i(E + F)} in the frozen sl(2,C)_R basis order
    (H, E, F, iH, iE, iF)."""
    i_h = [ZERO, ZERO, ZERO, ONE, ZERO, ZERO]
    e_minus_f = [ZERO, ONE, -ONE, ZERO, ZERO, ZERO]
    i_e_plus_f = [ZERO, ZERO, ZERO, ZERO, ONE, ONE]
    return [i_h, e_minus_f, i_e_plus_f]


# -- half-spin modules of so(4,4) --------------------------------------


class HalfSpinData(NamedTuple):
    gammas: list
    spinor_rep: Representation
    chirality: Matrix
    plus_space: Subspace
    minus_space: Subspace
    c_plus: Representation
    c_minus: Representation


def clifford_gammas_44():
    """Sixteen-dimensional real gammas with gamma_i^2 = (I_{4,4})_ii."""
    s1 = Matrix.from_rows([[ZERO, ONE], [ONE, ZERO]])
    s3 = Matrix.from_rows([[ONE, ZERO], [ZERO, -ONE]])
    eps = Matrix.from_rows([[ZERO, ONE], [-ONE, ZERO]])
    plus, minus = [s1], [eps]
    for _ in range(3):
        size = plus[0].rows
        ident = Matrix.identity(size)
        new_plus = [kron(s1, ident)]
        new_minus = [kron(eps, ident)]
        for g in plus:
            new_plus.append(kron(s3, g))
        for g in minus:
            new_minus.append(kron(s3, g))
        plus, minus = new_plus, new_minus
    return plus + minus


def half_spin_reps(p: int, q: int) -> HalfSpinData:
    """The two 8-dimensional chiral summands of the so(4,4) spinor module."""
    if (p, q) != (4, 4):
        raise UnsupportedRealizationError("half-spin construction is fixed at (4,4)")
    gammas = clifford_gammas_44()
    algebra = so_pq_algebra(4, 4)
    eta = ipq(4, 4)
    pairs = [(a, b) for a in range(8) for b in range(a + 1, 8)]
    index = {pair: k for k, pair in enumerate(pairs)}
    products = [mat_mul(gammas[a], gammas[b]) for a, b in pairs]
    actions = []
    for gen in algebra.basis:
        # gamma_a gamma_b, a < b, has coefficient (gen . eta)[a, b] / 2, read
        # off the nonzeros
        ai = mat_mul(gen, eta)
        coeffs = {
            index[(a, b)]: x
            for a, row in ai._data.items()
            for b, x in row.items()
            if a < b
        }
        actions.append(_combine_maps(products, coeffs, 16, 16, 2 * ai.den))
    spinor = Representation(algebra, 16, actions)
    chi = gammas[0]
    for g in gammas[1:]:
        chi = mat_mul(chi, g)
    ident = Matrix.identity(16)
    plus_space = kernel(chi - ident)
    minus_space = kernel(chi + ident)
    return HalfSpinData(
        gammas=gammas,
        spinor_rep=spinor,
        chirality=chi,
        plus_space=plus_space,
        minus_space=minus_space,
        c_plus=restrict(spinor, plus_space),
        c_minus=restrict(spinor, minus_space),
    )


# -- the dimension table -----------------------------------------------


class DimensionBound(NamedTuple):
    dim_group: int
    smallest_module: int
    total: int


def smallest_module_dim(p: int, q: int) -> int:
    """m(so(p,q)) for the in-scope table; UnknownSmallestModuleError outside."""
    n = p + q
    if p < 1 or q < 1:
        raise UnknownSmallestModuleError(
            "table covers p, q >= 1 only (compact forms are out of scope)"
        )
    if n < 3:
        raise UnknownSmallestModuleError("no table entry below p + q = 3")
    if (p, q) == (2, 2):
        return 3
    return n


def dimension_bound(p: int, q: int) -> DimensionBound:
    m = smallest_module_dim(p, q)
    n = p + q
    return DimensionBound(n * (n - 1) // 2, m, n * (n - 1) // 2 + m)
