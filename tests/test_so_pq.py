import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liepq import so_pq
from liepq.errors import ContractError, UnknownSmallestModuleError, UnsupportedRealizationError
from liepq.exact_linalg import (
    Matrix,
    Subspace,
    inertia_of_diagonalizable_form,
    rat,
    rref,
)
from liepq.lie_core import LieAlgebra
from liepq.ratpoly import min_poly
from liepq.rep_theory import (
    Representation,
    adjoint_rep,
    cyclic_submodule,
    hom_space,
    invariant_skew_forms,
    invariant_symmetric_forms,
    is_irreducible,
    restrict,
    wedge_square_rep,
)
from liepq.so_pq import (
    SO31_SL2C,
    SO32_SP4R,
    SO33_SL4R,
    _generator,
    clifford_gammas_44,
    deformed_algebra,
    dimension_bound,
    embedding_iso,
    exceptional_iso,
    generator_pairs,
    half_spin_reps,
    ipq,
    ipq_c,
    so_of_form,
    so_pq_algebra,
    sqrt_conjugation,
    standard_rep,
    t_c,
)

from conftest import pairwise_defect, per_c_deformed_algebra

C_GRID = [rat(x) for x in ("-2", "-1", "-1/2", "0", "1/2", "1", "2")]


def test_ipq_values():
    assert ipq(1, 1) == Matrix.diagonal([1, -1])
    assert ipq_c(2, 1, 3) == Matrix.diagonal([3, 1, 1, -1])
    assert ipq_c(2, 1, -3) == Matrix.diagonal([1, 1, -1, -3])
    with pytest.raises(ContractError):
        ipq_c(2, 1, 0)


def test_so_pq_dimensions():
    assert so_pq_algebra(3, 1).dim == 6
    assert so_pq_algebra(4, 4).dim == 28
    with pytest.raises(ContractError):
        so_pq_algebra(1, 0)


def fresh_so_pq(p, q):
    n = p + q
    basis = [_generator(p, n, i, j) for i, j in generator_pairs(n)]
    return LieAlgebra.from_matrices(basis, validate=False)


@pytest.mark.parametrize("p,q", [(2, 1), (3, 1), (2, 2)])
def test_memoized_so_pq_algebra_matches_fresh_build(p, q):
    fresh = fresh_so_pq(p, q)
    algebra = so_pq_algebra(p, q)
    assert so_pq_algebra(p, q) is algebra
    assert algebra.structure == fresh.structure
    # consumers built on the shared instance must leave it untouched
    std = standard_rep(p, q)
    hom_space(std, std)
    min_poly(algebra.basis[0])
    embedding_iso(p, q, 1)
    embedding_iso(p, q, rat("-1/2"))
    deformed_algebra(p, q, 2)
    if (p, q) == (3, 1):
        exceptional_iso(SO31_SL2C)
    assert so_pq_algebra(p, q) is algebra
    assert algebra.structure == fresh.structure
    assert algebra.basis == fresh.basis


def test_so30_is_compact_form():
    algebra = so_pq_algebra(3, 0)
    assert all(b.transpose() == -b for b in algebra.basis)
    gram = algebra.killing_form().gram
    assert inertia_of_diagonalizable_form(gram) == (0, 3, 0)


def test_defining_property_44():
    algebra = so_pq_algebra(4, 4)
    form = ipq(4, 4)
    for b in algebra.basis:
        assert (b.transpose() @ form + form @ b).is_zero()


def test_standard_rep_basics():
    rep = standard_rep(3, 2)
    assert rep.module_dim == 5
    rep.validate()
    forms = invariant_symmetric_forms(rep)
    assert len(forms) == 1
    lead = next(x for x in forms[0].entries if x)
    assert forms[0] == ipq(3, 2).scale(lead)


def test_standard_rep_11_null_lines():
    rep = standard_rep(1, 1)
    plus = cyclic_submodule(rep, [1, 1])
    minus = cyclic_submodule(rep, [1, -1])
    assert plus.dim == 1 and minus.dim == 1
    # infinitesimal actions on the null lines are +1 and -1
    for line, expected in ((plus, 1), (minus, -1)):
        sub = restrict(rep, line)
        assert sub.actions[0] == Matrix.from_rows([[expected]])
    assert cyclic_submodule(rep, [1, 0]).dim == 2


def test_t_zero_vanishes():
    assert t_c(2, 1, 0).is_zero()


def test_t_c_rank_iff_nonzero():
    m = t_c(2, 1, 1)
    assert len(rref(m.to_rows())[1]) == 3


def test_t_c_11_matches_displayed_formula():
    # T_1(e_0 ^ e_1) = <e_0,.>e_1 - <e_1,.>e_0 = E_10 + E_01 for (p,q) = (1,1)
    coeffs = t_c(1, 1, 1)
    assert coeffs == Matrix.from_rows([[1]])
    generator = so_pq_algebra(1, 1).basis[0]
    assert generator == Matrix.from_rows([[0, 1], [1, 0]])


@pytest.mark.parametrize("c", ["0", "1", "-1", "2", "-2", "1/2"])
@pytest.mark.parametrize("pq", [(2, 1), (2, 2), (3, 1)])
def test_t_c_equivariance(pq, c):
    p, q = pq
    algebra = so_pq_algebra(p, q)
    std = Representation(algebra, p + q, list(algebra.basis))
    wedge = wedge_square_rep(std)
    adjoint = adjoint_rep(algebra)
    tc = t_c(p, q, rat(c))
    for x in range(algebra.dim):
        assert tc @ wedge.actions[x] == adjoint.actions[x] @ tc


def test_deformed_requires_n3():
    with pytest.raises(ContractError):
        deformed_algebra(1, 1, 1)


def test_deformed_c0_has_abelian_radical():
    dalg = deformed_algebra(2, 1, 0)
    assert not dalg.algebra.is_semisimple()
    # the vector block is an abelian ideal: brackets of vec basis vanish
    for i in dalg.vec_indices:
        for j in dalg.vec_indices:
            if i < j:
                assert dalg.algebra.structure_entry(i, j) == {}


def test_deformed_killing_matches_classical():
    plus = deformed_algebra(2, 1, 1).algebra.killing_form().gram
    minus = deformed_algebra(2, 1, -1).algebra.killing_form().gram
    assert inertia_of_diagonalizable_form(plus) == inertia_of_diagonalizable_form(
        so_pq_algebra(3, 1).killing_form().gram
    )
    assert inertia_of_diagonalizable_form(minus) == inertia_of_diagonalizable_form(
        so_pq_algebra(2, 2).killing_form().gram
    )


rational_c = st.builds(
    lambda n, d: rat(f"{n}/{d}"), st.integers(-40, 40), st.integers(1, 30)
)
signatures_3_to_6 = st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(
    lambda pq: 3 <= sum(pq) <= 6
)


@given(signatures_3_to_6, rational_c)
@settings(max_examples=40, deadline=None)
def test_deformed_algebra_matches_the_per_c_builder(pq, c):
    """The family read at c gives the per-c builder's constants, a Jacobi
    identity that holds when checked at c, and the Killing gram of a fresh
    contraction of those constants."""
    p, q = pq
    alg = deformed_algebra(p, q, c).algebra
    assert alg.structure == per_c_deformed_algebra(p, q, c).structure
    alg._check_jacobi()
    entries = [(i, j, k, v) for (i, j), entry in alg.structure.items() for k, v in entry.items()]
    fresh = LieAlgebra.from_structure(alg.dim, entries)
    assert alg.killing_form().gram == fresh.killing_form().gram


def _doubled(entries, index):
    i, j, k, v = entries[index]
    return entries[:index] + [(i, j, k, 2 * v)] + entries[index + 1:]


@pytest.mark.parametrize("part", ["vec", "action"])
def test_family_certification_catches_one_wrong_constant(monkeypatch, part):
    """Doubling the coefficient of one [e_i, e_j] (c -> 2c) or one action
    constant [X, e_i] breaks the family's certificate for every c."""
    p, q = 3, 1
    dim, base, vec = so_pq._deformation_constants(p, q)
    so_dim = dim - (p + q)
    if part == "vec":
        vec = _doubled(vec, 0)
    else:
        base = _doubled(base, next(t for t, e in enumerate(base) if e[1] >= so_dim))
    monkeypatch.setattr(so_pq, "_deformation_constants", lambda p, q: (dim, base, vec))
    so_pq._deformation_family.cache_clear()
    try:
        with pytest.raises(ContractError, match="Jacobi"):
            deformed_algebra(p, q, rat("1/2"))
    finally:
        so_pq._deformation_family.cache_clear()


def test_deformed_json_blocks():
    dalg = deformed_algebra(2, 1, rat("1/2"))
    data = dalg.to_json_dict()
    assert data["p"] == 2 and data["q"] == 1 and data["c"] == "1/2"
    assert data["blocks"]["so"] == [0, 1, 2]
    assert data["blocks"]["vec"] == [3, 4, 5]
    assert data["realization"] == "abstract"


def test_embedding_canonical_so_block():
    emb = embedding_iso(2, 1, 2)
    so = so_pq_algebra(2, 1)
    for idx, b in enumerate(so.basis):
        img = emb.images[idx]
        assert all(img[0, j] == 0 for j in range(4))
        assert all(img[i, 0] == 0 for i in range(4))
        block = Matrix.from_rows([[img[i + 1, j + 1] for j in range(3)] for i in range(3)])
        assert block == b


@pytest.mark.parametrize("c", ["1", "-1", "2", "-1/2"])
def test_embedding_certificate(c):
    p, q = 3, 1
    c = rat(c)
    dalg = deformed_algebra(p, q, c)
    emb = embedding_iso(p, q, c)
    form = emb.target_form
    n1 = p + q + 1
    for im in emb.images:
        assert (im.transpose() @ form + form @ im).is_zero()
    d = dalg.dim
    for i in range(d):
        for j in range(i + 1, d):
            lhs = emb.images[i] @ emb.images[j] - emb.images[j] @ emb.images[i]
            rhs = Matrix.zeros(n1, n1)
            for k, v in dalg.algebra.structure_entry(i, j).items():
                rhs = rhs + emb.images[k].scale(v)
            assert lhs == rhs
    assert len(rref([list(im.entries) for im in emb.images])[1]) == d
    expected = (p + 1, q, 0) if c > 0 else (p, q + 1, 0)
    assert inertia_of_diagonalizable_form(form) == expected


def test_sqrt_conjugation_perfect_squares():
    for (p, q, c) in [(2, 1, rat(1)), (2, 1, rat(4)), (3, 1, rat("-9/4"))]:
        s = sqrt_conjugation(p, q, c)
        assert s is not None
        n = p + q
        sinv = Matrix.diagonal([1 / s[i, i] for i in range(n + 1)])
        target = ipq(p + 1, q) if c > 0 else ipq(p, q + 1)
        emb = embedding_iso(p, q, c)
        for im in emb.images:
            conj = s @ im @ sinv
            assert (conj.transpose() @ target + target @ conj).is_zero()
    assert sqrt_conjugation(2, 1, 2) is None


def test_so_of_form_dimension():
    target = so_of_form(ipq_c(2, 1, rat(1)))
    assert target.dim == 6


@pytest.mark.parametrize("name,small_dim,carrier_dim,inertia", [
    (SO31_SL2C, 6, 4, (1, 3, 0)),
    (SO32_SP4R, 10, 5, (3, 2, 0)),
    (SO33_SL4R, 15, 6, (3, 3, 0)),
])
def test_exceptional_iso_certificates(name, small_dim, carrier_dim, inertia):
    iso = exceptional_iso(name)
    assert iso.small_algebra.dim == small_dim
    assert iso.target.dim == small_dim
    assert iso.carrier.module_dim == carrier_dim
    assert inertia_of_diagonalizable_form(iso.carrier_form) == inertia
    iso.carrier.validate()
    for module in iso.small_modules:
        module.validate()
    # the normalizer conjugates the carrier form to scale * I_{p,q}
    scaled = iso.normalizer.transpose() @ iso.carrier_form @ iso.normalizer
    pq = {SO31_SL2C: (3, 1), SO32_SP4R: (3, 2), SO33_SL4R: (3, 3)}[name]
    assert scaled == ipq(*pq).scale(iso.scale)
    # bracket-compatible bijection onto so(p,q)
    assert len(rref(iso.iso_coeffs.to_rows())[1]) == small_dim
    assert pairwise_defect(iso.small_algebra, iso.target, iso.iso_coeffs) is None


@pytest.mark.parametrize("name", [SO31_SL2C, SO32_SP4R, SO33_SL4R])
def test_memoized_exceptional_iso_matches_fresh_solve(name):
    iso = exceptional_iso(name)
    assert exceptional_iso(name) is iso
    fresh = exceptional_iso.__wrapped__(name)
    assert fresh is not iso
    assert fresh.iso_coeffs == iso.iso_coeffs
    assert fresh.carrier_form == iso.carrier_form
    assert fresh.normalizer == iso.normalizer
    assert fresh.scale == iso.scale


def test_exceptional_iso_unknown_name():
    with pytest.raises(ContractError):
        exceptional_iso("SO99")


def test_sl2c_modules():
    iso = exceptional_iso(SO31_SL2C)
    cvec = iso.small_modules[0]
    assert cvec.module_dim == 4
    # C^2 realified carries no invariant symmetric form
    assert invariant_symmetric_forms(cvec) == []
    verdict = is_irreducible(cvec)
    assert verdict.status == "IRREDUCIBLE" and verdict.endo_dim == 2
    # the realified adjoint carries a 2-dimensional symmetric form space
    adjoint = adjoint_rep(iso.small_algebra)
    assert len(invariant_symmetric_forms(adjoint)) == 2


def test_sl4_wedge_form_signature():
    iso = exceptional_iso(SO33_SL4R)
    std, dual = iso.small_modules
    assert std.module_dim == 4 and dual.module_dim == 4
    assert len(hom_space(std, dual)) == 0  # R^4 and its dual are not isomorphic


def test_sp4_primitive_part():
    iso = exceptional_iso(SO32_SP4R)
    assert iso.carrier.module_dim == 5
    std = iso.small_modules[0]
    assert len(invariant_skew_forms(std)) == 1
    assert invariant_symmetric_forms(std) == []


def test_clifford_relations():
    gammas = clifford_gammas_44()
    eta = ipq(4, 4)
    ident = Matrix.identity(16)
    for i in range(8):
        for j in range(8):
            anti = gammas[i] @ gammas[j] + gammas[j] @ gammas[i]
            assert anti == ident.scale(2 * eta[i, j])


def test_half_spin_construction():
    hs = half_spin_reps(4, 4)
    ident = Matrix.identity(16)
    assert hs.chirality @ hs.chirality == ident
    for a in hs.spinor_rep.actions:
        assert (hs.chirality @ a - a @ hs.chirality).is_zero()
    assert hs.plus_space.dim == 8 and hs.minus_space.dim == 8
    hs.spinor_rep.validate()
    hs.c_plus.validate()
    hs.c_minus.validate()
    for half in (hs.c_plus, hs.c_minus):
        assert is_irreducible(half).status == "IRREDUCIBLE"
        assert len(invariant_symmetric_forms(half)) == 1
        assert len(invariant_skew_forms(half)) == 0


def test_half_spin_gamma_equivariance():
    hs = half_spin_reps(4, 4)
    algebra = hs.spinor_rep.algebra
    for idx, gen in enumerate(algebra.basis):
        tau = hs.spinor_rep.actions[idx]
        for k in range(8):
            lhs = tau @ hs.gammas[k] - hs.gammas[k] @ tau
            rhs = Matrix.zeros(16, 16)
            for i in range(8):
                v = gen[i, k]
                if v:
                    rhs = rhs + hs.gammas[i].scale(v)
            assert lhs == rhs


def test_half_spin_other_signature_unsupported():
    with pytest.raises(UnsupportedRealizationError):
        half_spin_reps(3, 3)


def test_dimension_bound_table():
    assert tuple(dimension_bound(3, 2)) == (10, 5, 15)
    assert tuple(dimension_bound(4, 1)) == (10, 5, 15)
    assert tuple(dimension_bound(4, 4)) == (28, 8, 36)
    assert dimension_bound(2, 2).smallest_module == 3
    with pytest.raises(UnknownSmallestModuleError):
        dimension_bound(1, 1)
    with pytest.raises(UnknownSmallestModuleError):
        dimension_bound(3, 0)


def test_deformed_c0_killing_complement_is_vector_block():
    # the c = 0 analogue of the matrix-side pipeline, inside the abstract algebra
    from liepq.lie_core import orthogonal_complement

    dalg = deformed_algebra(2, 1, 0)
    complement = orthogonal_complement(
        dalg.algebra.killing_form(), dalg.so_block_subspace()
    )
    expected = Subspace.from_vectors(
        dalg.dim, [[rat(1) if r == i else rat(0) for r in range(dalg.dim)] for i in dalg.vec_indices]
    )
    assert complement == expected


@pytest.mark.parametrize("pq", [(2, 1), (3, 1), (2, 2), (3, 3), (4, 2)])
@pytest.mark.parametrize("c", ["1", "-2", "2/3", "-2/3"])
def test_embedded_so_block_has_the_so_pq_structure(pq, c):
    """The first m embedding images re-derive so(p,q)'s own structure
    constants, so the complement check may act with so_pq_algebra as H."""
    p, q = pq
    m = (p + q) * (p + q - 1) // 2
    images = embedding_iso(p, q, rat(c)).images[:m]
    assert LieAlgebra.from_matrices(images, validate=False).structure == so_pq_algebra(p, q).structure
