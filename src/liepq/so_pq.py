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
    _echelon,
    _intertwining_defect,
    _quotient,
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
    _tensor_from_entries,
    centralizer,
    is_maximal_subalgebra,
)
from .rep_theory import (
    Representation,
    _bracket_defect,
    dual_rep,
    invariant_symmetric_forms,
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
    """diag(c, I_{p,q}) for c > 0 and diag(I_{p,q}, c) for c < 0.

    Built as canonical integer rows: with c = cn/cd in lowest terms, the
    form is diag(cn, cd, ..., -cd) (or diag(cd, ..., -cd, cn)) over cd."""
    c = rat(c)
    if c == 0:
        raise ContractError("ipq_c requires c != 0")
    n = Signature(p, q).n
    cn, cd = int(c.numerator), int(c.denominator)
    shift, extra = (1, 0) if c > 0 else (0, n)
    rows = {i + shift: {i + shift: cd if i < p else -cd} for i in range(n)}
    rows[extra] = {extra: cn}
    return _trusted(n + 1, n + 1, rows, cd)


def generator_pairs(n: int):
    return wedge_square_index(n)


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
    {i: {j: b}, j: {i: -a}} over b).  Two of them bracket to a nonzero only
    when they share exactly one index, and for x < y < z
    [X_xy, X_yz] = X_xz, [X_xy, X_xz] = -(d_x/d_y).X_yz and
    [X_xz, X_yz] = -(d_y/d_z).X_xy.
    """
    n = len(diag)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]  # as generator_pairs(n)
    # pair (i, j) has index start[i] + j
    start = [i * n - i * (i + 3) // 2 - 1 for i in range(n)]
    basis, minus_ratio = [], []
    for i, j in pairs:
        r = Rational(diag[i], diag[j])
        a, b = int(r.numerator), int(r.denominator)
        basis.append(_trusted(n, n, {i: {j: b}, j: {i: -a}}, b))
        minus_ratio.append(-r)
    entries = []
    for xy, (x, y) in enumerate(pairs):
        for z in range(y + 1, n):
            xz, yz = start[x] + z, start[y] + z
            entries.append((xy, yz, xz, ONE))
            entries.append((xy, xz, yz, minus_ratio[xy]))
            entries.append((xz, yz, xy, minus_ratio[yz]))
    return LieAlgebra.from_structure(len(pairs), entries, validate=False, basis=basis)


def standard_rep(p: int, q: int) -> Representation:
    """Natural representation: each basis element acts as itself on R^n."""
    algebra = so_pq_algebra(p, q)
    return Representation(algebra, p + q, list(algebra.basis))


def t_c(p: int, q: int, c) -> Matrix:
    """Matrix of T_c : wedge^2 R^n -> so(p,q) in the frozen bases.

    T_c(u ^ v) = c<u,.>v - c<v,.>u; on basis bivectors the image is a single
    generator, so the matrix has one entry per column.
    """
    c = rat(c)
    n = Signature(p, q).n
    # row index equals generator index; a zero c gives the zero matrix
    return Matrix.diagonal([-c if (i < p and j < p) else c for i, j in generator_pairs(n)])


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
        return Subspace(_echelon(self.dim, ({i: 1} for i in self.so_indices)))

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


class _DeformationFamily(NamedTuple):
    """The brackets [.,.]_c = base + c.vec on so(p,q) (+) R^{p,q}, certified
    for every rational c, with the Killing gram K(c) = k0 + c.k1 + c^2.k2,
    the algebras at c = 0 and c = 1 and the span of the so(p,q) block."""

    dim: int
    base: dict  # structure tensor {(i, j): {k: constant}} free of c
    vec: dict  # the coefficients of c: brackets of two vectors, all zero in base
    k0: Matrix
    k1: Matrix
    k2: Matrix
    base_algebra: LieAlgebra  # c = 0
    joint: LieAlgebra  # c = 1
    so_block: Subspace


def _deformation_constants(p: int, q: int):
    """(dim, base, vec): the structure entries (i, j, k, value) of the
    c-free brackets, [so, so] and the action [X, e_i] = X e_i, and of the
    coefficients of c, [e_i, e_j] = -X_ij for i < j < p and X_ij otherwise."""
    so = so_pq_algebra(p, q)
    m, n = so.dim, p + q
    base = [(i, j, k, v) for (i, j), entry in so.structure.items() for k, v in entry.items()]
    for a, gen in enumerate(so.basis):
        # [X, e_i] = X e_i = sum over k of X_ki e_k
        for i, column in gen.transpose()._data.items():
            for k, x in column.items():
                base.append((a, m + i, m + k, _quotient(x, gen.den)))
    vec = [
        (m + i, m + j, idx, -ONE if (i < p and j < p) else ONE)
        for idx, (i, j) in enumerate(generator_pairs(n))
    ]
    return m + n, base, vec


@functools.lru_cache(maxsize=64, typed=True)
def _deformation_family(p: int, q: int) -> _DeformationFamily:
    """The family base + c.vec of so(p,q), its Jacobi identity certified
    for every rational c by one graded pass, once per (p, q), with the
    algebras at c = 0 and c = 1 and the span of the so(p,q) block.

    Every key of vec brackets two vectors and no key of base does (checked
    here): a bracket with an so index is c-free, a bracket of two vectors
    is c times its value at c = 1, and one integer tensor holds both, the
    joint algebra.  A term of the Jacobiator or of the Killing contraction
    has the sum of the degrees of its two constants, so one Jacobi pass
    over the joint tensor, filed by degree, gives J(c) = J(base) + c.M +
    c^2.J(vec), all three zero exactly when J(c) = 0 for every c; one
    Killing contraction filed the same way gives K(c) = K0 + c.K1 + c^2.K2.
    Raises ContractError when the grading or a degree fails.
    """
    Signature(p, q)
    if p + q < 3:
        raise ContractError("the deformed bracket needs p + q >= 3")
    dim, base, vec = _deformation_constants(p, q)
    base = _tensor_from_entries(dim, base)
    vec = _tensor_from_entries(dim, vec)
    m = dim - (p + q)
    if any(i < m for i, _ in vec):
        raise ContractError("a c-dependent bracket of the family has an so(p,q) index")
    if any(i >= m for i, _ in base):
        raise ContractError("a c-free bracket of the family brackets two vectors")
    joint = {**base, **vec}
    graded = LieAlgebra(ABSTRACT, dim, structure=joint, validate=False)
    degree = dict.fromkeys(vec, 1)
    graded._check_jacobi(degree)
    k0, k1, k2 = graded._killing_grams(degree)
    # fresh algebras on the same tensors, so the family keeps no integer
    # copy of them until a certificate reads one: deformed_algebra never does
    return _DeformationFamily(
        dim, base, vec, k0, k1, k2,
        LieAlgebra._certified(dim, base, k0),
        LieAlgebra._certified(dim, joint, k0 + k1 + k2),
        Subspace(_echelon(dim, ({i: 1} for i in range(m)))),
    )


def deformed_algebra(p: int, q: int, c) -> DeformedAlgebra:
    """The bracket [.,.]_c on so(p,q) (+) R^{p,q}, read off the family that
    `_deformation_family` certifies for every c: no per-c Jacobi run, and
    the Killing gram comes from the family's expansion in c."""
    c = rat(c)
    family = _deformation_family(p, q)
    structure = dict(family.base)
    if c:
        for key, entry in family.vec.items():
            structure[key] = {k: c * v for k, v in entry.items()}
    killing = family.k0 + family.k1.scale(c) + family.k2.scale(c * c)
    m = family.dim - (p + q)
    return DeformedAlgebra(
        p=p,
        q=q,
        c=c,
        algebra=LieAlgebra._certified(family.dim, structure, killing),
        so_indices=tuple(range(m)),
        vec_indices=tuple(range(m, family.dim)),
    )


class EmbeddingIso(NamedTuple):
    """The explicit map (X, u) -> block matrix into so(R^{n+1}, I_{p,q}(c))."""

    p: int
    q: int
    c: Rational
    target_form: Matrix
    images: list  # one (n+1) x (n+1) matrix per deformed-algebra basis index


@functools.lru_cache(maxsize=64, typed=True)
def _shifted_so_block(p: int, q: int, shift: int) -> tuple:
    """The so(p,q) basis moved into (n+1) x (n+1) matrices, each index
    raised by shift (1 when the extra coordinate sits first, 0 when it sits
    last, where the generators' own rows serve).  Memoized per (p, q,
    shift): the matrices are immutable, so every embedding with that sign
    of c shares them."""
    n = p + q
    return tuple(
        _trusted(
            n + 1, n + 1,
            {i + shift: {j + shift: x for j, x in row.items()} for i, row in gen._data.items()}
            if shift else gen._data,
            gen.den,
        )
        for gen in so_pq_algebra(p, q).basis
    )


def embedding_iso(p: int, q: int, c) -> EmbeddingIso:
    """The embedding of [.,.]_c into so(R^{n+1}, I_{p,q}(c)).  The image of
    e_i has column c.e_i and row -e_i^t I_{p,q}: with c = cn/cd in lowest
    terms, the canonical integer rows {r: {extra: cn}, extra: {r: -eta_i.cd}}
    over cd, for r the place of coordinate i."""
    c = rat(c)
    if c == 0:
        raise ContractError("embedding_iso requires c != 0")
    n = Signature(p, q).n
    if n < 3:
        raise ContractError("embedding_iso needs p + q >= 3")
    # extra coordinate sits first for c > 0 and last for c < 0
    shift, extra = (1, 0) if c > 0 else (0, n)
    images = list(_shifted_so_block(p, q, shift))
    cn, cd = int(c.numerator), int(c.denominator)
    for i in range(n):
        r = i + shift
        eta_cd = cd if i < p else -cd
        images.append(_trusted(n + 1, n + 1, {r: {extra: cn}, extra: {r: -eta_cd}}, cd))
    return EmbeddingIso(p=p, q=q, c=c, target_form=ipq_c(p, q, c), images=images)


def _embedding_branch(p: int, q: int, positive: bool):
    """The embedding of one sign branch of c as polynomials in c: (form,
    images), each a tuple of parts, part d the coefficient of c^d.  form is
    (F0, F1) with I_{p,q}(c) = F0 + c.F1, and images holds one (P, Q) per
    deformed-algebra basis index with image P + c.Q: the so block is
    c-free (Q = 0), and e_i has P = -eta_i.E_{x,r} and Q = E_{r,x}, for x
    the extra coordinate and r the place of coordinate i.  These are the
    matrices `ipq_c` and `embedding_iso` build for every c of the branch
    (c > 0 when positive, else c < 0); the family refuses n < 3 first."""
    n = Signature(p, q).n
    shift, extra = (1, 0) if positive else (0, n)
    zero = Matrix.zeros(n + 1, n + 1)
    images = [(gen, zero) for gen in _shifted_so_block(p, q, shift)]
    for i in range(n):
        r = i + shift
        p_i = _trusted(n + 1, n + 1, {extra: {r: -1 if i < p else 1}})
        images.append((p_i, _trusted(n + 1, n + 1, {r: {extra: 1}})))
    f0 = {i + shift: {i + shift: 1 if i < p else -1} for i in range(n)}
    form = (_trusted(n + 1, n + 1, f0), _trusted(n + 1, n + 1, {extra: {extra: 1}}))
    return form, images


# -- the deformation family's certificates ------------------------------
# Each holds for every c at once, or for every c of one sign, and is
# certified once per (p, q) (and sign) on the family.


@functools.lru_cache(maxsize=64, typed=True)
def _so_centralizer(p: int, q: int) -> Subspace:
    """The centralizer of the so(p,q) block in [.,.]_c, one subspace for
    every c, 0 included: a bracket with an so index is a key of base, so
    [x, h]_c = [x, h]_0 for every h in the block."""
    family = _deformation_family(p, q)
    return centralizer(family.base_algebra, family.so_block)


@functools.lru_cache(maxsize=64, typed=True)
def _so_maximality(p: int, q: int, deformed: bool):
    """is_maximal_subalgebra of the so(p,q) block: at c = 0 on base, and
    for every c != 0 (deformed) on the joint tensor, c = 1.  The so block
    has degree 0 and each e_idx degree 1, and [x, y]_c = c^(deg x . deg y)
    [x, y]_1 for such homogeneous x and y, so every iterated bracket of
    the closure of H + e_idx at c is a nonzero multiple of the same
    bracket at c = 1: the closures, the verdict and the witness are the
    same for every c != 0."""
    family = _deformation_family(p, q)
    return is_maximal_subalgebra(family.joint if deformed else family.base_algebra, family.so_block)


@functools.lru_cache(maxsize=64, typed=True)
def _embedding_defect(p: int, q: int, positive: bool):
    """Why the embedding of [.,.]_c fails for every c of one sign branch,
    or None: `_graded_embedding_defect` on the family's joint tensor, its
    vec constants of degree 1, and `_embedding_branch`."""
    family = _deformation_family(p, q)
    form, images = _embedding_branch(p, q, positive)
    return _graded_embedding_defect(family.joint, dict.fromkeys(family.vec, 1), form, images)


def _graded_embedding_defect(algebra, degree, form, images):
    """Why the images fail to embed the graded algebra into so(form), or
    None; every certificate holds as an identity of polynomials in c.

    The structure constants of key (i, j) have degree degree.get((i, j), 0)
    in c, and form and each image are tuples of matrix parts, part d the
    coefficient of c^d.  Three certificates, in order:
    - the form: A^t.F + F.A = 0 in every degree, for every image A;
    - the brackets: `rep_theory._bracket_defect`, whose reason names the
      first failing pair and its lowest failing degree;
    - injectivity: on the matrix entries where every part of degree >= 1
      of every image vanishes, an image equals its part of degree 0 for
      every c, so those restricted parts being independent proves the
      images independent for every c.
    """
    for parts in images:
        sums = {}
        for d, x in enumerate(parts):
            if x.is_zero():
                continue
            for e, f in enumerate(form):
                term = x.transpose() @ f + f @ x
                sums[d + e] = sums[d + e] + term if d + e in sums else term
        bad = [g for g, s in sums.items() if not s.is_zero()]
        if bad:
            return f"image leaves so(R^{{n+1}}, I_{{p,q}}(c)) in degree {min(bad)}"
    defect = _bracket_defect(algebra, images, degree)
    if defect is not None:
        a, b, g = defect
        return (
            f"bracket not intertwined in degree {g}: "
            f"homomorphism property fails on basis pair ({a},{b})"
        )
    lifted = set()  # the entries where some part of degree >= 1 is nonzero
    for parts in images:
        for x in parts[1:]:
            lifted.update(x._flat())
    n = form[0].rows
    ech = Echelon(n * n)
    for parts in images:
        vec = {k: v for k, v in parts[0]._flat().items() if k not in lifted}
        if not ech.insert(vec):
            return "embedding is not injective"
    return None


@functools.lru_cache(maxsize=64, typed=True)
def _killing_block_constants(p: int, q: int):
    """(reason, a1, r1) for the Killing gram K(c) = K0 + c.K1 + c^2.K2 of
    the family, block by block, once per (p, q): the mixed block vanishes
    in every degree, the so block is a1 x Killing(so(p,q)) in degree 0 and
    zero in degrees 1 and 2, and the vector block is r1 x <.,.>_{p,q} in
    degree 1 and zero in degrees 0 and 2, so a2 = c.r1.  reason is None when
    all of this holds with a1 and r1 nonzero, and then K(c) has the block
    form with nonzero constants for every c != 0."""
    family = _deformation_family(p, q)
    grams = (family.k0, family.k1, family.k2)
    so = so_pq_algebra(p, q)
    m, n = so.dim, p + q
    # 0/1 inclusions of the so block (the first m basis vectors) and of the
    # vector block (the last n)
    s = Matrix.from_sparse(m + n, m, {(i, i): 1 for i in range(m)})
    v = Matrix.from_sparse(m + n, n, {(m + i, i): 1 for i in range(n)})
    st, vt = s.transpose(), v.transpose()
    for d, k in enumerate(grams):
        if not (st @ k @ v).is_zero():
            return f"mixed block is not zero in degree {d}", None, None
    so_blocks = [st @ k @ s for k in grams]
    a1 = proportionality(so_blocks[0], so.killing_form().gram)
    if a1 is None:
        return "so block not proportional to Killing(so(p,q))", None, None
    for d in (1, 2):
        if not so_blocks[d].is_zero():
            return f"so block is not zero in degree {d}", None, None
    vec_blocks = [vt @ k @ v for k in grams]
    for d in (0, 2):
        if not vec_blocks[d].is_zero():
            return f"vector block is not zero in degree {d}", None, None
    r1 = proportionality(vec_blocks[1], ipq(p, q))
    if r1 is None:
        return "vector block not proportional to <.,.>_{p,q}", None, None
    if not a1 or not r1:
        return "a proportionality constant vanished", None, None
    return None, a1, r1


@functools.lru_cache(maxsize=64, typed=True)
def _t1_equivariance_defect(p: int, q: int):
    """The first basis index x with ad(x).T_1 != T_1.wedge(x), or None, once
    per (p, q): equivariance is linear in T, and T_c = c.T_1."""
    algebra = so_pq_algebra(p, q)
    wedge = wedge_square_rep(standard_rep(p, q))
    t1 = t_c(p, q, 1)
    for x in range(algebra.dim):
        if _intertwining_defect(algebra.ad_basis_matrix(x), t1, wedge.actions[x])[0]:
            return x
    return None


def so_of_form(form: Matrix) -> LieAlgebra:
    """so(R^N, form) = {A : A^t.form + form.A = 0} with the canonical
    kernel basis.

    A diagonal nondegenerate form, one whose every row holds exactly its
    nonzero diagonal entry (I_{p,q}(c) is one), gets that basis and its
    structure in closed form from `_diagonal_so`.  A degenerate or
    non-diagonal symmetric form goes through the N^2 x N^2 kernel of
    `_form_preserving_algebra`.
    """
    if not form.is_symmetric():
        raise ContractError("so_of_form requires a symmetric form")
    rows = form._data
    if len(rows) == form.rows and all(len(row) == 1 and i in row for i, row in rows.items()):
        return _diagonal_so([rows[i][i] for i in range(form.rows)])
    return _form_preserving_algebra(form)


def sqrt_conjugation(p: int, q: int, c) -> Matrix | None:
    """For perfect-square |c|: the diagonal S with S.so(I_{p,q}(c)).S^{-1}
    landing in so(p+1,q) (c > 0) or so(p,q+1) (c < 0); None otherwise."""
    c = rat(c)
    if c == 0:
        raise ContractError("c must be nonzero")
    n = Signature(p, q).n
    s = rational_sqrt(abs(c))
    if s is None:
        return None
    if c > 0:
        return Matrix.diagonal([s] + [ONE] * n)
    return Matrix.diagonal([ONE] * n + [s])


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
    products = {}
    for a in range(8):
        for b in range(a + 1, 8):
            products[(a, b)] = mat_mul(gammas[a], gammas[b])
    actions = []
    for gen in algebra.basis:
        ai = mat_mul(gen, eta)
        out = Matrix.zeros(16, 16)
        for a in range(8):
            for b in range(a + 1, 8):
                v = ai[a, b]
                if v:
                    out = out + products[(a, b)].scale(v / 2)
        actions.append(out)
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
