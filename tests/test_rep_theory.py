import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from liepq.errors import ContractError, NotStableError, ShapeMismatchError
from liepq.exact_linalg import Matrix, Subspace, invert, kernel, kron, mat_mul, mat_vec, rat, rref
from liepq.ratpoly import char_poly, rational_roots
from liepq.rep_theory import (
    Representation,
    adjoint_action,
    adjoint_rep,
    boost_element,
    character_discrimination_test,
    complex_structure_endomorphism,
    constrained_form_uniqueness,
    cyclic_submodule,
    direct_sum,
    dual_rep,
    hom_space,
    hom_space_dense,
    invariant_skew_forms,
    invariant_symmetric_forms,
    is_irreducible,
    restrict,
    wedge_action,
    wedge_square_rep,
)
from liepq.so_pq import (
    SO31_SL2C,
    deformed_algebra,
    embedding_iso,
    exceptional_iso,
    half_spin_reps,
    ipq,
    sl2c_compact_form_vectors,
    so_of_form,
    so_pq_algebra,
    standard_rep,
    t_c,
)
from liepq.lie_core import LieAlgebra, orthogonal_complement

from conftest import (
    block_pairing_basis, column_list, contains, dense_basis_map, dense_hom_oracle, dense_kernel, per_c_complement,
    restrict_by_solve, restrict_per_row,
)


def std_and_friends(p, q):
    algebra = so_pq_algebra(p, q)
    std = Representation(algebra, p + q, list(algebra.basis))
    return algebra, std


def test_representation_validation():
    for (p, q) in [(2, 1), (3, 1), (2, 2)]:
        algebra, std = std_and_friends(p, q)
        std.validate()
        wedge_square_rep(std).validate()
        adjoint_rep(algebra).validate()
        dual_rep(std).validate()


def test_validation_catches_garbage():
    algebra, std = std_and_friends(2, 1)
    broken = Representation(algebra, 3, [std.actions[0], std.actions[1], std.actions[1]])
    with pytest.raises(ContractError):
        broken.validate()


def test_hom_contains_identity():
    algebra, std = std_and_friends(2, 1)
    homs = hom_space(std, std)
    assert len(homs) >= 1
    rows = [list(h.entries) for h in homs]
    rows.append(list(Matrix.identity(3).entries))
    assert len(rref(rows)[0]) == len(homs)


@pytest.mark.parametrize(
    "pq,expected",
    [((2, 1), 1), ((3, 2), 1), ((4, 1), 1), ((3, 3), 1), ((3, 1), 2), ((2, 2), 2)],
)
def test_hom_wedge_adjoint_dimensions(pq, expected):
    algebra, std = std_and_friends(*pq)
    homs = hom_space(wedge_square_rep(std), adjoint_rep(algebra))
    assert len(homs) == expected


def test_hom_dense_cross_check_22():
    algebra, std = std_and_friends(2, 2)
    wedge = wedge_square_rep(std)
    adj = adjoint_rep(algebra)
    fast = hom_space(wedge, adj)
    dense = hom_space_dense(wedge, adj)
    assert [h.entries for h in fast] == [h.entries for h in dense]


def test_hom_intertwines_exactly():
    algebra, std = std_and_friends(3, 1)
    wedge = wedge_square_rep(std)
    adj = adjoint_rep(algebra)
    for phi in hom_space(wedge, adj):
        for x in range(algebra.dim):
            assert phi @ wedge.actions[x] == adj.actions[x] @ phi


def test_hom_algebra_mismatch():
    _, std21 = std_and_friends(2, 1)
    _, std31 = std_and_friends(3, 1)
    with pytest.raises(ContractError):
        hom_space(std21, std31)


@pytest.mark.parametrize("pq", [(2, 1), (3, 1), (3, 2), (2, 2)])
def test_t_c_lies_in_hom_span(pq):
    from liepq.so_pq import t_c

    algebra, std = std_and_friends(*pq)
    homs = hom_space(wedge_square_rep(std), adjoint_rep(algebra))
    rows = [list(h.entries) for h in homs]
    rank_before = len(rref([r[:] for r in rows])[0])
    rows.append(list(t_c(*pq, 1).entries))
    assert len(rref(rows)[0]) == rank_before


def test_form_hom_duality():
    for (p, q) in [(2, 1), (3, 1), (2, 2)]:
        algebra, std = std_and_friends(p, q)
        for rep in (std, wedge_square_rep(std)):
            sym = len(invariant_symmetric_forms(rep))
            skew = len(invariant_skew_forms(rep))
            assert sym + skew == len(hom_space(rep, dual_rep(rep)))


def test_schur_consistency_complex_type():
    iso = exceptional_iso(SO31_SL2C)
    cvec = iso.small_modules[0]
    assert is_irreducible(cvec).status == "IRREDUCIBLE"
    endos = hom_space(cvec, cvec)
    ident = Matrix.identity(4)
    for e in endos:
        roots = rational_roots(char_poly(e))
        if roots:
            # a rational eigenvalue forces a scalar: kernel of (e - r) is
            # invariant, so it must be everything
            assert any(e == ident.scale(r) for r in roots)


def test_cyclic_submodule_cases():
    rep = standard_rep(2, 1)
    assert cyclic_submodule(rep, [0, 0, 0]).dim == 0
    assert cyclic_submodule(rep, [1, 0, 0]).dim == 3
    assert cyclic_submodule(rep, [rat("1/2"), rat(5), rat(-3)]).dim == 3


def test_is_irreducible_standard_31():
    verdict = is_irreducible(standard_rep(3, 1))
    assert verdict.status == "IRREDUCIBLE" and verdict.endo_dim == 1


def test_is_irreducible_11_abelian_path():
    verdict = is_irreducible(standard_rep(1, 1))
    assert verdict.status == "REDUCIBLE"
    assert verdict.witness.dim == 1
    assert contains(verdict.witness, [1, 1]) or contains(verdict.witness, [1, -1])


def conjugated_double(p, q, entries):
    """W (+) W, W the standard module of so(p,q), in the basis of the
    columns of the n x n matrix P of the entries (n = 2 dim W): the actions
    P^-1 (I_2 (x) b) P."""
    algebra = so_pq_algebra(p, q)
    n = 2 * (p + q)
    P = Matrix(n, n, entries)
    Pinv = invert(P)
    return Representation(algebra, n, [Pinv @ kron(Matrix.identity(2), b) @ P for b in algebra.basis]), Pinv


FOUR_DIM_REPRODUCER = [1, 0, -1, 0, 0, 0, 1, -1, 1, 0, 1, 0, -1, 0, -1, 1, 0, -1,
                       1, 1, 0, 1, -1, 1, 1, 0, -1, -1, 0, 0, -1, 0, 1, 0, 1, 0]


def test_a_four_dimensional_endomorphism_algebra_is_not_certified():
    """W (+) W of so(2,1) in a conjugated basis: End is M_2(Q), whose
    candidates all have irreducible characteristic polynomials here, and
    the module has a 3-dimensional submodule.  It is not IRREDUCIBLE."""
    rep, Pinv = conjugated_double(2, 1, FOUR_DIM_REPRODUCER)
    verdict = is_irreducible(rep)
    assert verdict.status == "INCONCLUSIVE" and verdict.endo_dim == 4
    assert cyclic_submodule(rep, [Pinv[i, 0] for i in range(6)]).dim == 3


@given(st.lists(st.sampled_from([-1, 0, 1]), min_size=36, max_size=36))
@example(FOUR_DIM_REPRODUCER)
@settings(max_examples=25, deadline=None)
def test_conjugated_doubles_are_never_certified_irreducible(entries):
    """W (+) W of so(2,1) in the basis of any invertible P with entries in
    {-1, 0, 1} is reducible: the verdict is never IRREDUCIBLE, and a
    REDUCIBLE witness is a proper subspace closed under every action."""
    P = Matrix(6, 6, entries)
    assume(kernel(P).dim == 0)
    rep, _ = conjugated_double(2, 1, entries)
    verdict = is_irreducible(rep)
    assert verdict.status != "IRREDUCIBLE"
    if verdict.status == "REDUCIBLE":
        witness = verdict.witness
        assert 0 < witness.dim < 6
        for row in witness.basis_rows():
            for a in rep.actions:
                assert contains(witness, mat_vec(a, row))


def test_is_irreducible_rejects_zero_module():
    algebra, std = std_and_friends(2, 1)
    with pytest.raises(ContractError):
        is_irreducible(Representation(algebra, 0, [Matrix.zeros(0, 0)] * 3))


def test_direct_sum_is_reducible():
    algebra, std = std_and_friends(2, 1)
    double = direct_sum(std, std)
    double.validate()
    assert double.module_dim == 6
    verdict = is_irreducible(double)
    assert verdict.status == "REDUCIBLE"
    assert 0 < verdict.witness.dim < 6


def test_direct_sum_mixed_reducible():
    algebra = so_pq_algebra(2, 2)
    std = Representation(algebra, 4, list(algebra.basis))
    both = direct_sum(std, adjoint_rep(algebra))
    assert both.module_dim == 10
    assert is_irreducible(both).status == "REDUCIBLE"


def test_restrict_full_is_identity_change():
    algebra, std = std_and_friends(2, 1)
    full = restrict(std, Subspace.full(3))
    assert [a.entries for a in full.actions] == [a.entries for a in std.actions]


def test_restrict_requires_invariance():
    algebra, std = std_and_friends(2, 1)
    with pytest.raises(ContractError):
        restrict(std, Subspace.from_vectors(3, [[1, 0, 0]]))


def test_restrict_matches_the_solve_linear_oracle():
    """Reading coordinates at the pivots gives the same canonical matrices
    as solving b.x = a.b: on the complement modules of criterion 8, the
    (4,4) half-spin modules, and a submodule of a conjugated W + W whose
    basis has pivot entries 3 and actions a denominator 3."""
    cases = [
        per_c_complement(p, n - p, rat(c))
        for n in range(3, 7)
        for p in range(1, n)
        for c in ("-2", "-1", "-1/2", "1/2", "1", "2")
    ]
    hs = half_spin_reps(4, 4)
    cases += [(hs.spinor_rep, hs.plus_space), (hs.spinor_rep, hs.minus_space)]
    algebra = so_pq_algebra(2, 1)
    g = Matrix(6, 6, [2, 0, -1, 0, 0, 0, 1, -1, 1, 0, 1, 0, -1, 0, -1, 1, 0, -1,
                      1, 1, 0, 1, -1, 1, 1, 0, -1, -1, 0, 0, -1, 0, 1, 0, 3, 0])
    ginv = invert(g)
    twice = Representation(algebra, 6, [ginv @ kron(Matrix.identity(2), b) @ g for b in algebra.basis])
    summand = cyclic_submodule(twice, column_list(ginv, 0))
    assert {row[p] for p, row in zip(summand.pivot_columns(), summand._integer_rows())} == {1, 3}
    cases.append((twice, summand))
    assert len(cases) == 87
    for v, subspace in cases:
        assert restrict(v, subspace).actions == restrict_by_solve(v, subspace)


@given(
    st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 0)]),
    st.sampled_from([("std",), ("ad",), ("sum", ("std",), ("std",)), ("sum", ("std",), ("ad",))]),
    st.integers(0, 2**16), st.data(),
)
@settings(max_examples=40, deadline=None)
def test_restrict_matches_the_per_row_loop(pq, expr, seed, data):
    """One walk per action gives the matrices of the former per-row loop on
    conjugated modules, restricted to the cyclic submodule of a drawn
    vector (invariant) and to the span of drawn vectors (mostly not): both
    raise ContractError on the same subspaces."""
    v = _conjugated(_build_module(expr, *pq), seed)
    n = v.module_dim
    entries = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    spanned = Subspace.from_vectors(n, data.draw(st.lists(entries, min_size=1, max_size=3)))
    subspaces = [spanned, cyclic_submodule(v, data.draw(entries))]
    for subspace in subspaces:
        try:
            expected = restrict_per_row(v, subspace)
        except ContractError:
            with pytest.raises(ContractError, match="not invariant"):
                restrict(v, subspace)
            continue
        assert restrict(v, subspace).actions == expected


def test_restrict_matches_the_per_row_loop_on_the_criterion_modules():
    """The complement modules of criterion 8 and the (4,4) half-spin
    modules, and the error on a line of R^{2,1}, which no boost keeps."""
    cases = [per_c_complement(p, n - p, rat(c)) for n in (3, 4, 5) for p in range(1, n) for c in ("-1/2", "2")]
    hs = half_spin_reps(4, 4)
    cases += [(hs.spinor_rep, hs.plus_space), (hs.spinor_rep, hs.minus_space)]
    for v, subspace in cases:
        assert restrict(v, subspace).actions == restrict_per_row(v, subspace)
    _, std = std_and_friends(2, 1)
    line = Subspace.from_vectors(3, [[1, 0, 0]])
    for solver in (restrict, restrict_per_row):
        with pytest.raises(ContractError, match="not invariant"):
            solver(std, line)


def test_beta_complement_restricts_to_standard_module():
    # complement of embedded so(2,1) inside so(R^4, I_{2,1}(1)) is R^{2,1}
    emb = embedding_iso(2, 1, 1)
    target = so_of_form(emb.target_form)
    coord = target.coordinatizer()
    vectors = [coord.express(im) for im in emb.images[:3]]
    sub = Subspace.from_vectors(6, vectors)
    complement = orthogonal_complement(target.trace_form(), sub)
    assert complement.dim == 3
    h_alg = LieAlgebra.from_matrices(emb.images[:3], validate=False)
    actions = [target.ad_matrix(v) for v in vectors]
    module = restrict(Representation(h_alg, 6, actions), complement)
    std = standard_rep(2, 1)
    # compare against the standard module over a shared abstract algebra
    shared = Representation(h_alg, 3, list(so_pq_algebra(2, 1).basis))
    homs = hom_space(module, shared)
    assert len(homs) == 1
    assert len(rref(homs[0].to_rows())[1]) == 3  # the intertwiner is invertible


def test_wedge_action_identity():
    assert wedge_action(Matrix.identity(4)) == Matrix.identity(6)


def test_wedge_action_refuses_a_non_square_matrix():
    with pytest.raises(ShapeMismatchError):
        wedge_action(Matrix.zeros(2, 3))


@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=16, max_size=16))
@settings(max_examples=40)
def test_wedge_action_trace_identity(entries):
    g = Matrix(4, 4, [rat(x) for x in entries])
    if len(rref(g.to_rows())[1]) < 4:
        return
    lhs = wedge_action(g).trace()
    rhs = (g.trace() * g.trace() - mat_mul(g, g).trace()) / 2
    assert lhs == rhs


def test_wedge_action_multiplicative():
    g = Matrix.from_rows([[1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 1, 3], [0, 0, -1, 1]])
    h = Matrix.from_rows([[2, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 1]])
    assert wedge_action(mat_mul(g, h)) == mat_mul(wedge_action(g), wedge_action(h))


def test_boost_element():
    b = boost_element(rat(4))
    assert mat_mul(b.matrix_on_v, b.matrix_on_v) == boost_element(rat(16)).matrix_on_v
    with pytest.raises(ContractError):
        boost_element(rat(-1))


def test_adjoint_action_boost_rational():
    algebra = so_pq_algebra(3, 1)
    g = boost_element(rat(4)).matrix_on_v
    ad_g = adjoint_action(g, algebra)
    assert ad_g.rows == 6
    # group action: Ad(g)Ad(g) = Ad(g^2)
    g2 = boost_element(rat(16)).matrix_on_v
    assert mat_mul(ad_g, ad_g) == adjoint_action(g2, algebra)


def _rational_isometry(p, q):
    """A rational element of O(p,q) off the diagonal: the rotation by
    (3/5, 4/5) in the first plane of two coordinates of one sign, then,
    when both signs occur, the boost by (5/4, 3/4) in the plane of
    coordinates 0 and p."""
    n = p + q
    ident = {(k, k): 1 for k in range(n)}
    g = Matrix.identity(n)
    i, j = (0, 1) if p >= 2 else (p, p + 1)
    if j < n:
        a, b = rat("3/5"), rat("4/5")
        g = Matrix.from_sparse(n, n, {**ident, (i, i): a, (j, j): a, (i, j): b, (j, i): -b})
    if p and q:
        a, b = rat("5/4"), rat("3/4")
        g = g @ Matrix.from_sparse(n, n, {**ident, (0, 0): a, (p, p): a, (0, p): b, (p, 0): b})
    return g


@pytest.mark.parametrize("p, q", [(2, 1), (3, 0), (3, 1), (2, 2), (1, 3), (3, 3)])
def test_adjoint_action_matches_the_dense_oracle(p, q):
    """Ad(g) read sparsely equals the matrix whose column j holds the
    coordinates of g.X_j.g^-1 by one dense elimination."""
    algebra = so_pq_algebra(p, q)
    g = _rational_isometry(p, q)
    assert g.transpose() @ ipq(p, q) @ g == ipq(p, q)
    ginv = invert(g)
    expected = dense_basis_map(algebra.basis, [g @ b @ ginv for b in algebra.basis])
    assert expected != Matrix.identity(algebra.dim)
    assert adjoint_action(g, algebra) == expected


def test_adjoint_action_not_stable():
    algebra = so_pq_algebra(3, 0)
    g = Matrix.diagonal([1, 2, 1])
    with pytest.raises(NotStableError):
        adjoint_action(g, algebra)


@pytest.mark.parametrize("mu", ["3/2", "2", "3", "5"])
def test_character_discrimination(mu):
    report = character_discrimination_test(rat(mu))
    assert report.residual_standard == 0
    assert report.residual_complex != 0


def test_character_test_rejects_mu_one():
    with pytest.raises(ContractError):
        character_discrimination_test(1)


def test_complex_structure_on_sl2c_adjoint():
    iso = exceptional_iso(SO31_SL2C)
    adjoint = adjoint_rep(iso.small_algebra)
    j = complex_structure_endomorphism(adjoint)
    assert mat_mul(j, j) == Matrix.identity(6).scale(-1)
    # multiplication by i in the frozen basis (H,E,F,iH,iE,iF) swaps halves
    entries = {}
    for k in range(3):
        entries[(k + 3, k)] = rat(1)
        entries[(k, k + 3)] = rat(-1)
    expected = Matrix.from_sparse(6, 6, entries)
    assert j == expected or j == expected.scale(-1)


def test_constrained_form_uniqueness():
    iso = exceptional_iso(SO31_SL2C)
    adjoint = adjoint_rep(iso.small_algebra)
    forms = invariant_symmetric_forms(adjoint)
    assert len(forms) == 2
    compact = Subspace.from_vectors(6, sl2c_compact_form_vectors())
    verdict = constrained_form_uniqueness(adjoint, compact)
    assert verdict.solution_dim == 1
    assert verdict.killing_ratio not in (None, 0)
    # K-hat = K(., J.) violates the constraint: find a su(2) pair with
    # nonzero K-hat pairing within the complementary direction
    j = complex_structure_endomorphism(adjoint)
    kill = iso.small_algebra.killing_form()
    rows = compact.basis_rows()
    khat_on_mixed = [
        kill.evaluate(x, mat_vec(j, mat_vec(j, y))) for x in rows for y in rows
    ]
    assert any(v != 0 for v in khat_on_mixed)  # K itself is nonzero on su(2)


def test_constrained_form_rejects_non_compact():
    iso = exceptional_iso(SO31_SL2C)
    adjoint = adjoint_rep(iso.small_algebra)
    boosty = Subspace.from_vectors(6, [[1, 0, 0, 0, 0, 0]])
    with pytest.raises(ContractError):
        constrained_form_uniqueness(adjoint, boosty)


def test_direct_sum_dims_add():
    algebra, std = std_and_friends(2, 1)
    adj = adjoint_rep(algebra)
    total = direct_sum(std, adj)
    assert total.module_dim == std.module_dim + adj.module_dim


# -- the eigensplit filter and the joint-eigenspace Hom split -------------


def _no_min_poly(a):
    raise AssertionError("min_poly reached; the tr(a^2) filter should decide")


@pytest.mark.parametrize(
    "rows",
    [
        [[0, -1], [1, 0]],  # compact rotation generator: tr(a^2) = -2
        [[0, 0, 0], [0, 0, -1], [0, 1, 0]],  # rotation inside a 3x3 block
        [[0, 1], [0, 0]],  # nonzero nilpotent: tr(a^2) = 0
        [[0, 1, 2], [0, 0, 3], [0, 0, 0]],
    ],
)
def test_eigensplit_filter_rejects_before_min_poly(rows, monkeypatch):
    import liepq.rep_theory as rt

    monkeypatch.setattr(rt, "min_poly", _no_min_poly)
    assert rt.rational_eigensplit(Matrix.from_rows(rows)) is None


def test_eigensplit_zero_matrix_is_one_block():
    import liepq.rep_theory as rt

    zero = Matrix.zeros(3, 3)
    assert rt.rational_eigensplit(zero) == [rat(0)]
    whole = [((), [{j: 1} for j in range(3)])]
    assert rt._refine_blocks(whole, zero, [rat(0)]) == [((rat(0),), whole[0][1])]


def test_eigensplit_jordan_block_rejected_by_min_poly(monkeypatch):
    import liepq.rep_theory as rt

    calls = []
    real = rt.min_poly
    monkeypatch.setattr(rt, "min_poly", lambda a: calls.append(a) or real(a))
    jordan = Matrix.from_rows([[1, 1], [0, 1]])  # tr(a^2) = 2 > 0
    assert rt.rational_eigensplit(jordan) is None
    assert len(calls) == 1


_SMALL_RATIONALS = st.builds(
    lambda num, den: rat(num) / den,
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=1, max_value=3),
)


@given(
    st.lists(_SMALL_RATIONALS, min_size=1, max_size=4),
    st.booleans(),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_eigensplit_of_conjugated_diagonal(diag, jordan, data):
    """P.D.P^-1, for a diagonal D with a repeated entry, is diagonalizable:
    `rational_eigensplit` returns the distinct entries of D, and
    `_refine_blocks` from the whole-space block cuts out each eigenspace
    ker(a - lam), the span of D's eigenvectors moved by P, as the dense
    oracle does.  With a Jordan block in place of the repeated pair,
    P.J.P^-1 is not diagonalizable and `rational_eigensplit` returns None."""
    import liepq.rep_theory as rt

    diag = diag + [data.draw(st.sampled_from(diag))]  # an entry repeated
    n = len(diag)
    ints = st.integers(min_value=-2, max_value=2)
    # P = L.U with unit triangular factors is invertible
    lower = {(i, i): rat(1) for i in range(n)}
    upper = dict(lower)
    for i in range(n):
        for j in range(i):
            lower[(i, j)] = rat(data.draw(ints))
            upper[(j, i)] = rat(data.draw(ints))
    lower = Matrix.from_sparse(n, n, lower)
    upper = Matrix.from_sparse(n, n, upper)
    p = lower @ upper
    if jordan:
        # J = D + E_{k, n-1}, for diag[k] = diag[n-1] and k < n - 1: a
        # Jordan block of size 2 on e_k, e_{n-1}
        k = diag.index(diag[-1])
        j = Matrix.diagonal(diag) + Matrix.from_sparse(n, n, {(k, n - 1): rat(1)})
        assert rt.rational_eigensplit(p @ j @ invert(p)) is None
        return
    a = p @ Matrix.diagonal(diag) @ invert(p)
    eigenvalues = sorted(set(diag))
    assert rt.rational_eigensplit(a) == eigenvalues
    blocks = rt._refine_blocks([((), [{j: 1} for j in range(n)])], a, eigenvalues)
    assert [key for key, _ in blocks] == [(lam,) for lam in eigenvalues]
    for (_, rows), lam in zip(blocks, eigenvalues):
        block = Subspace.from_vectors(n, [[row.get(j, 0) for j in range(n)] for row in rows])
        moved = Subspace.from_vectors(n, [column_list(p, i) for i in range(n) if diag[i] == lam])
        shifted = [[a[r, c] - (lam if r == c else 0) for c in range(n)] for r in range(n)]
        assert block == moved == Subspace.from_vectors(n, dense_kernel(shifted, n))


def _module_dim(expr, n):
    """Dimension of the module, or 0 when a wedge^2 would take a module of
    dimension below 2."""
    kind = expr[0]
    if kind == "std":
        return n
    if kind == "ad":
        return n * (n - 1) // 2
    if kind == "dual":
        return _module_dim(expr[1], n)
    if kind == "wedge":
        d = _module_dim(expr[1], n)
        return d * (d - 1) // 2 if d >= 2 else 0
    d1, d2 = _module_dim(expr[1], n), _module_dim(expr[2], n)
    return d1 + d2 if d1 and d2 else 0


def _build_module(expr, p, q):
    kind = expr[0]
    if kind == "std":
        return standard_rep(p, q)
    if kind == "ad":
        return adjoint_rep(so_pq_algebra(p, q))
    if kind == "dual":
        return dual_rep(_build_module(expr[1], p, q))
    if kind == "wedge":
        return wedge_square_rep(_build_module(expr[1], p, q))
    return direct_sum(_build_module(expr[1], p, q), _build_module(expr[2], p, q))


_MODULE_EXPRS = st.recursive(
    st.sampled_from([("std",), ("ad",)]),
    lambda inner: st.one_of(
        st.tuples(st.just("dual"), inner),
        st.tuples(st.just("wedge"), inner),
        st.tuples(st.just("sum"), inner, inner),
    ),
    max_leaves=3,
)
# every (p, q) with p + q <= 4; q = 0 gives compact forms, where no element
# splits and hom_space starts from all of Hom(V, W)
_HOM_SIGNATURES = [(p, n - p) for n in (2, 3, 4) for p in range(1, n + 1)]
# well under the dense solver's 4096-unknown cap, to keep the test quick
_HOM_PRODUCT_CAP = 256


def _assert_hom_matches_dense(v, w):
    fast = hom_space(v, w)
    dense = hom_space_dense(v, w)
    assert [h.entries for h in fast] == [h.entries for h in dense]


def _conjugated(v, seed):
    """P^-1 rho P for the rational P = L D U with random unit triangular L
    and U (entries in {-1, 0, 1}) and a diagonal D whose last entry is 2,
    -1/3 or 3/2: the actions then carry denominators other than 1."""
    rng = random.Random(seed)
    n = v.module_dim
    lower = {(i, j): rng.choice((-1, 0, 1)) for i in range(n) for j in range(i)}
    upper = {(j, i): rng.choice((-1, 0, 1)) for i in range(n) for j in range(i)}
    for i in range(n):
        lower[(i, i)] = upper[(i, i)] = 1
    diag = [rng.choice((1, 1, -1, 2)) for _ in range(n - 1)] + [rng.choice((2, "-1/3", "3/2"))]
    cob = Matrix.from_sparse(n, n, lower) @ Matrix.diagonal(diag) @ Matrix.from_sparse(n, n, upper)
    inverse = invert(cob)
    return Representation(v.algebra, n, [inverse @ a @ cob for a in v.actions])


@given(
    st.sampled_from(_HOM_SIGNATURES), _MODULE_EXPRS, _MODULE_EXPRS,
    st.sampled_from(["neither", "v", "w", "both"]), st.integers(0, 2**16),
)
@settings(max_examples=30, deadline=None)
def test_hom_space_matches_dense_on_random_modules(pq, expr_v, expr_w, conjugate, seed):
    """Also on modules conjugated by a rational P (ROADMAP item 1), whose
    actions, unlike those of the modules built from std and ad, have
    denominators other than 1."""
    p, q = pq
    n = p + q
    dims = _module_dim(expr_v, n) * _module_dim(expr_w, n)
    assume(0 < dims <= _HOM_PRODUCT_CAP)
    v, w = _build_module(expr_v, p, q), _build_module(expr_w, p, q)
    if conjugate in ("v", "both"):
        v = _conjugated(v, seed)
    if conjugate in ("w", "both"):
        w = _conjugated(w, seed + 1)
    _assert_hom_matches_dense(v, w)


def test_conjugated_modules_feed_the_column_system_real_denominators(monkeypatch):
    """Conjugated R^{2,1} spins into exactly its Hom bases, so no kernel
    runs there; conjugated R^{2,2} is spun from one generator whose key has
    two vectors in the adjoint, two maps for a zero Hom space, so the
    constraint kernels run on images over real denominators."""
    import liepq.rep_theory as rt

    dens = []
    real = rt._column_system
    monkeypatch.setattr(
        rt, "_column_system",
        lambda images, size: dens.extend(den for _, den in images) or real(images, size),
    )
    v = _conjugated(standard_rep(2, 1), 0)
    assert max(a.den for a in v.actions) > 1
    _assert_hom_matches_dense(v, adjoint_rep(so_pq_algebra(2, 1)))
    _assert_hom_matches_dense(v, v)
    v = _conjugated(standard_rep(2, 2), 0)
    ad = adjoint_rep(so_pq_algebra(2, 2))
    assert len(rt._initial_hom_basis(v, ad)) == 2
    _assert_hom_matches_dense(v, ad)
    assert max(dens) > 1



# the modules of the dense builder's oracle test: R^{p,q}, the adjoint and wedge^2 R^{p,q}
_ORACLE_MODULES = [("std",), ("ad",), ("wedge", ("std",))]


def _drawn_conjugate(data, v):
    """P^-1 rho P for a drawn invertible P with entries in {-1, 0, 1}."""
    n = v.module_dim
    cob = Matrix(n, n, data.draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=n * n, max_size=n * n)))
    assume(kernel(cob).dim == 0)
    inverse = invert(cob)
    return Representation(v.algebra, n, [inverse @ a @ cob for a in v.actions])


@given(
    st.sampled_from([(2, 1), (3, 1), (2, 2)]), st.sampled_from(_ORACLE_MODULES),
    st.sampled_from(_ORACLE_MODULES), st.data(),
)
@settings(max_examples=30, deadline=None)
def test_dense_hom_builder_matches_its_oracle_and_hom_space(pq, expr_v, expr_w, data):
    """`hom_space_dense` builds its system on the integer rows of aw and the
    columns of av; the oracle builds the same system entry by entry as dense
    rationals.  Both, and `hom_space`, give the same canonical basis on
    conjugated modules whose actions carry a denominator above 1."""
    p, q = pq
    v = _drawn_conjugate(data, _build_module(expr_v, p, q))
    w = _drawn_conjugate(data, _build_module(expr_w, p, q))
    assume(max(a.den for a in v.actions + w.actions) > 1)
    dense = [h.entries for h in hom_space_dense(v, w)]
    assert dense == [h.entries for h in dense_hom_oracle(v, w)]
    assert dense == [h.entries for h in hom_space(v, w)]


def test_dense_hom_builder_matches_its_oracle_on_the_criterion_modules():
    for p, q in [(2, 1), (3, 1), (2, 2)]:
        algebra, std = std_and_friends(p, q)
        wedge, adj = wedge_square_rep(std), adjoint_rep(algebra)
        for v, w in [(wedge, adj), (adj, wedge), (std, std), (std, dual_rep(std))]:
            assert hom_space_dense(v, w) == dense_hom_oracle(v, w)


def _hom_solves(monkeypatch):
    """The Hom-space solves from here on, "End" for Hom(V, V) and "Hom"
    for any other target."""
    import liepq.rep_theory as rt

    solves = []
    real = rt.hom_space

    def counted(v, w):
        solves.append("End" if w is v else "Hom")
        return real(v, w)

    monkeypatch.setattr(rt, "hom_space", counted)
    return solves


def test_half_spin_check_solves_hom_v_vstar_once_per_module(monkeypatch):
    """Per half-spin module: End(V) for irreducibility and one Hom(V, V*)
    shared by the symmetric and the skew forms (six solves before)."""
    from liepq.checks import check_half_spin

    solves = _hom_solves(monkeypatch)
    assert check_half_spin(4, 4)["status"] == "pass"
    assert solves == ["End", "Hom", "End", "Hom"]


@pytest.mark.parametrize("k, r, s", [(0, 0, 1), (3, 5, 5), (4, 2, 9), (7, 15, 0)])
def test_half_spin_check_names_the_first_pair_a_bent_gamma_breaks(monkeypatch, k, r, s):
    """The check visits only the pairs i <= j, the anticommutator being
    symmetric in i and j: gamma_k bent by one entry still fails, at the
    first of all 64 ordered pairs whose anticommutator is not
    2.eta_ij.I."""
    import liepq.checks as checks

    hs = half_spin_reps(4, 4)
    gammas = list(hs.gammas)
    gammas[k] = gammas[k] + Matrix.from_sparse(16, 16, {(r, s): 1})
    eta, ident = ipq(4, 4), Matrix.identity(16)
    failing = [
        (i, j)
        for i in range(8)
        for j in range(8)
        if gammas[i] @ gammas[j] + gammas[j] @ gammas[i] != ident.scale(2 * eta[i, j])
    ]
    monkeypatch.setattr(checks, "half_spin_reps", lambda p, q: hs._replace(gammas=gammas))
    assert checks.check_half_spin(4, 4) == {
        "status": "fail", "reason": "Clifford relation fails at ({},{})".format(*min(failing))
    }


def test_su2_collapse_check_solves_hom_ad_adstar_once(monkeypatch):
    """The check's own symmetric forms and those of
    `constrained_form_uniqueness` share one Hom(ad, ad*) (two before); the
    complex structure J still solves End(ad)."""
    from liepq.checks import check_su2_collapse

    exceptional_iso(SO31_SL2C)  # memoized per process: solved before counting
    solves = _hom_solves(monkeypatch)
    assert check_su2_collapse(3, 1)["status"] == "pass"
    assert solves == ["Hom", "End"]


def test_shared_dual_hom_follows_replaced_actions():
    """After the forms of R^{2,1} + R^{2,1} (3 symmetric, 1 skew), a
    replaced action (the identity, which no nonzero phi = -phi meets) gives
    the forms of the new actions, those of a freshly built module."""
    algebra, std = std_and_friends(2, 1)
    v = direct_sum(std, std)
    assert len(invariant_symmetric_forms(v)) == 3
    assert len(invariant_skew_forms(direct_sum(std, std))) == 1
    v.actions[0] = Matrix.identity(6)
    fresh = Representation(algebra, 6, list(v.actions))
    assert invariant_skew_forms(v) == invariant_skew_forms(fresh) == []
    assert invariant_symmetric_forms(v) == []
    v.actions = list(direct_sum(std, std).actions)
    assert len(invariant_skew_forms(v)) == 1
    assert len(invariant_symmetric_forms(v)) == 3


# (signature, V, W) and whether a second pool member refines the blocks
_REFINED_SPLITS = [
    # so(2,2): the boosts (0,2) and (1,3) commute; after the first every
    # block of V has two vectors or more, so the second refines them
    (((2, 2), ("sum", ("std",), ("ad",)), ("sum", ("ad",), ("wedge", ("std",)))), True),
    # the boost has eigenvalue 0 twice on R^{2,2} and +-1 twice on the
    # adjoint, and +-2 occurs only on wedge^2 of the adjoint, once each:
    # a one-vector block, so the walk stops at the first boost
    (((2, 2), ("sum", ("std",), ("wedge", ("ad",))), ("sum", ("dual", ("std",)), ("ad",))), False),
    (((3, 1), ("sum", ("std",), ("ad",)), ("sum", ("std",), ("ad",))), False),
    (((2, 1), ("sum", ("std",), ("wedge", ("sum", ("std",), ("std",)))), ("ad",)), False),
    (((2, 2), ("sum", ("std",), ("std",)), ("sum", ("std",), ("std",))), True),
]


@pytest.mark.parametrize("pq,expr_v,expr_w", [case for case, _ in _REFINED_SPLITS])
def test_hom_space_matches_dense_on_refined_splits(pq, expr_v, expr_w, monkeypatch):
    import liepq.rep_theory as rt

    p, q = pq
    v, w = _build_module(expr_v, p, q), _build_module(expr_w, p, q)
    refinements = []
    real = rt._refine_blocks
    monkeypatch.setattr(
        rt, "_refine_blocks", lambda *args: refinements.append(args) or real(*args)
    )
    _assert_hom_matches_dense(v, w)
    # every pool member refines the blocks, the first one the whole-space
    # block of key (); a second pool member refines a split
    keys = [blocks[0][0] for blocks, *_ in refinements]
    assert keys and keys[0] == ()
    assert any(keys) == dict(_REFINED_SPLITS)[(pq, expr_v, expr_w)]
    if expr_v[0] == "sum" and expr_v[1] != expr_v[2]:
        # the summands of V split differently under some pool element
        first = _build_module(expr_v[1], p, q)
        second = _build_module(expr_v[2], p, q)
        algebra = v.algebra
        differ = False
        for a in range(algebra.dim):
            s1 = rt.rational_eigensplit(first.actions[a])
            s2 = rt.rational_eigensplit(second.actions[a])
            if s1 is not None and s2 is not None:
                dims1 = [(key, len(rows)) for key, rows in _joint_blocks(first, [(a, s1)])]
                dims2 = [(key, len(rows)) for key, rows in _joint_blocks(second, [(a, s2)])]
                differ = differ or dims1 != dims2
        assert differ


# -- the first-fit commuting pool ------------------------------------------


def _diagonal_abelian_module(n):
    """The abelian algebra of n x n diagonal matrices on R^n: every basis
    element splits and all of them commute, so only the blocks stop the
    walk."""
    mats = [Matrix.from_sparse(n, n, {(k, k): rat(1)}) for k in range(n)]
    return Representation(LieAlgebra.from_matrices(mats), n, mats)


def _wedge_ad(p, q):
    return wedge_square_rep(standard_rep(p, q)), adjoint_rep(so_pq_algebra(p, q))


def _joint_blocks(module, members):
    """The joint eigenspaces of the members' actions on the module, refined
    from the whole space one member at a time."""
    import liepq.rep_theory as rt

    blocks = [((), [{j: 1} for j in range(module.module_dim)])]
    for idx, eigenvalues in members:
        blocks = rt._refine_blocks(blocks, module.actions[idx], eigenvalues)
    return blocks


def _replay_pool(v, w, monkeypatch):
    """Run the Hom solver's walk with rational_eigensplit spied on, and
    replay its calls: every element it eigensplits commutes with the pool
    collected so far, the basis is walked in order, and nothing is
    eigensplit once the pool is non-empty and some joint eigenspace of V is
    one vector.  Returns the pool, the walked elements and the initial
    basis."""
    import liepq.rep_theory as rt

    calls = []
    real = rt.rational_eigensplit

    def spy(a):
        calls.append((a, real(a)))
        return calls[-1][1]

    monkeypatch.setattr(rt, "rational_eigensplit", spy)
    initial = rt._initial_hom_basis(v, w)
    algebra = v.algebra
    pool, walked, members_v = [], [], []
    pending = iter(calls)
    for a, ev in pending:
        idx = next(k for k, x in enumerate(v.actions) if x is a)
        assert not walked or idx > walked[-1]
        walked.append(idx)
        assert all(not algebra.structure_entry(b, idx) for b in pool)
        if ev is None:
            continue
        ew = ev
        if w is not v and w.actions[idx] is not v.actions[idx]:
            aw, ew = next(pending)
            assert aw is w.actions[idx]
        if ew is not None:
            pool.append(idx)
            members_v.append((idx, ev))
    if walked:
        # the pool collected before the last eigensplit left every block of V wide
        before = [m for m in members_v if m[0] < walked[-1]]
        if before:
            assert all(len(rows) > 1 for _, rows in _joint_blocks(v, before))
    return pool, walked, initial


@pytest.mark.parametrize("pq", [(2, 2), (3, 3), (4, 4)])
def test_pool_never_eigensplits_a_non_commuting_element(pq, monkeypatch):
    v, w = _wedge_ad(*pq)
    pool, walked, initial = _replay_pool(v, w, monkeypatch)
    # the bracket test skipped some basis elements without an eigensplit, and
    # two commuting boosts leave a one-vector block, so the walk stops there
    assert len(pool) == 2
    assert len(walked) < v.algebra.dim
    assert len(initial) == len(hom_space(v, w))


def test_walk_stops_at_the_first_one_vector_block(monkeypatch):
    """Element 0 of the 10 diagonal units splits R^10 into the line of e_0
    and the span of the others, so nothing else is eigensplit.  Each e_j
    spans a submodule, so all ten are generators: e_0 meets one vector of
    W and each other e_j nine, 1 + 9 * 9 maps for the 10-dimensional
    End."""
    v = _diagonal_abelian_module(10)
    pool, walked, initial = _replay_pool(v, v, monkeypatch)
    assert pool == walked == [0]
    assert len(initial) == 82
    assert [h.entries for h in hom_space(v, v)] == [h.entries for h in hom_space_dense(v, v)]


def test_hom_wedge_adjoint_at_so99_starts_from_one_map(monkeypatch):
    """so(9,9) has rank 9, one more than so(8,8): two commuting boosts leave
    a one-vector block of wedge^2 V, whose vector spins all of wedge^2 V and
    meets one vector of the adjoint, so the solver starts from one map, and
    Hom(wedge^2 V, ad) is the line of T_1."""
    v, w = _wedge_ad(9, 9)
    pool, _, initial = _replay_pool(v, w, monkeypatch)
    assert len(pool) == 2
    assert len(initial) == 1
    homs = hom_space(v, w)
    assert len(homs) == 1
    assert Subspace.from_vectors(153 * 153, homs).reduce(t_c(9, 9, 1)) is not None


# -- the spun start ---------------------------------------------------------


def test_spinning_takes_one_generator_per_summand():
    """so(2,1) on R^3 (+) R^3: the boost's eigenvalues -1, 0, 1 each have a
    two-vector block, one vector in each summand, and a vector spins only
    its own summand.  So V needs two generators, each meeting a one-vector
    block of R^3: Hom(R^3 (+) R^3, R^3) starts from 2 maps, its dimension,
    and End(R^3 (+) R^3) from 4."""
    import liepq.rep_theory as rt

    std = standard_rep(2, 1)
    v = direct_sum(std, std)
    assert len(rt._initial_hom_basis(v, std)) == len(hom_space(v, std)) == 2
    assert len(rt._initial_hom_basis(v, v)) == len(hom_space(v, v)) == 4
    _assert_hom_matches_dense(v, std)
    _assert_hom_matches_dense(v, v)


def test_a_generator_whose_key_w_lacks_contributes_no_map():
    """The 2 x 2 diagonal units acting on R^2, and on a line through the
    first unit alone, by 1 or by 2.  Element 0 splits R^2 into e_0, key (1,),
    and e_1, key (0,), and each spans a submodule, so both are generators.
    The line has no vector of key (0,): e_1 contributes no map and the
    solver starts from the one map of e_0; on the line where the unit acts
    by 2 neither key occurs and the solver starts from none."""
    import liepq.rep_theory as rt

    v = _diagonal_abelian_module(2)
    for scalar, expected in ((1, 1), (2, 0)):
        w = Representation(v.algebra, 1, [Matrix.from_rows([[scalar]]), Matrix.zeros(1, 1)])
        assert len(rt._initial_hom_basis(v, w)) == expected
        _assert_hom_matches_dense(v, w)
        assert len(hom_space(v, w)) == expected


def test_complement_and_invariant_forms_start_from_one_map():
    """End of the complement of so(3,1) in so(R^5, I_{3,1}(2)), which stage
    (i) of the irreducibility test reads, and the invariant forms of R^{4,4}:
    each module is spun from one generator whose key meets one vector, so
    the one map is the whole of the Hom space."""
    import liepq.rep_theory as rt

    module = restrict(*per_c_complement(3, 1, rat(2)))
    assert len(rt._initial_hom_basis(module, module)) == 1
    assert is_irreducible(module).status == "IRREDUCIBLE"
    std = standard_rep(4, 4)
    assert len(rt._initial_hom_basis(std, dual_rep(std))) == 1
    assert len(invariant_symmetric_forms(std)) == 1


def _end_modules():
    """(module, one-map start) params: restricted complements, standard
    modules and the (4,4) half-spins start End from one map; compact R^3,
    ROADMAP item 1's conjugated W + W, a direct sum and the diagonal
    abelian algebra on R^3 start from several."""
    for p, q, c in [(2, 1, "2"), (3, 1, "2"), (2, 2, "-1/2"), (4, 1, "1/2"), (3, 2, "-2")]:
        yield pytest.param(restrict(*per_c_complement(p, q, rat(c))), True, id=f"complement-{p},{q}-c={c}")
    for p, q in [(2, 1), (3, 1), (2, 2), (3, 2), (4, 4)]:
        yield pytest.param(standard_rep(p, q), True, id=f"R^{{{p},{q}}}")
    spins = half_spin_reps(4, 4)
    yield pytest.param(spins.c_plus, True, id="half-spin-plus")
    yield pytest.param(spins.c_minus, True, id="half-spin-minus")
    yield pytest.param(standard_rep(3, 0), False, id="R^3-of-so(3)")
    algebra = so_pq_algebra(2, 1)
    cob = Matrix(6, 6, [1, 0, -1, 0, 0, 0, 1, -1, 1, 0, 1, 0, -1, 0, -1, 1, 0, -1,
                        1, 1, 0, 1, -1, 1, 1, 0, -1, -1, 0, 0, -1, 0, 1, 0, 1, 0])
    twice = [invert(cob) @ kron(Matrix.identity(2), b) @ cob for b in algebra.basis]
    yield pytest.param(Representation(algebra, 6, twice), False, id="W+W")
    yield pytest.param(direct_sum(standard_rep(2, 1), adjoint_rep(algebra)), False, id="R^{2,1}+ad")
    yield pytest.param(_diagonal_abelian_module(3), False, id="diagonal-abelian")


@pytest.mark.parametrize("v,one_map", list(_end_modules()))
def test_end_matches_dense_with_and_without_a_one_map_start(v, one_map):
    """hom_space(v, v) returns a lone start map, the identity, with no
    constraint checked; where the start has several maps the constraint
    kernels run.  Either way the basis is the dense solver's."""
    import liepq.rep_theory as rt

    start = rt._initial_hom_basis(v, v)
    assert (len(start) == 1) == one_map
    if one_map:
        assert start == [Matrix.identity(v.module_dim)]
    _assert_hom_matches_dense(v, v)


def test_end_of_the_complement_runs_no_constraint_and_no_inverse(monkeypatch):
    """Count guard: End of the (3,1), c = 2 restricted complement starts
    from one map, so it calls neither `_intertwining_defect` nor `invert`,
    and the closed-form so(R^5, I_{3,1}(2)) reads coordinates with no
    echelon insert."""
    import sys

    import liepq.exact_linalg as exact_linalg
    from liepq.exact_linalg import Echelon
    from liepq.lie_core import _Coordinatizer
    from liepq.so_pq import ipq_c

    module = restrict(*per_c_complement(3, 1, rat(2)))
    form = ipq_c(3, 1, rat(2))
    calls = dict.fromkeys(["_intertwining_defect", "invert", "insert"], 0)
    for name in ("_intertwining_defect", "invert"):
        real = getattr(exact_linalg, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "liepq" and getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counted)
    real_insert = Echelon.insert

    def counted_insert(self, vec):
        calls["insert"] += 1
        return real_insert(self, vec)

    monkeypatch.setattr(Echelon, "insert", counted_insert)
    assert hom_space(module, module) == [Matrix.identity(4)]
    assert calls["_intertwining_defect"] == calls["invert"] == 0
    calls["insert"] = 0
    target = so_of_form(form)
    coord = target.coordinatizer()
    assert coord.express(target.basis[3]) == [0, 0, 0, 1] + [0] * 6
    assert calls["insert"] == 0
    # the counters are live
    _Coordinatizer(target.basis)
    hom_space(standard_rep(3, 0), standard_rep(3, 0))
    assert calls["insert"] and calls["_intertwining_defect"] and calls["invert"]


_SUMMANDS = st.sampled_from([("std",), ("ad",), ("dual", ("std",)), ("wedge", ("std",))])


@given(
    st.sampled_from(_HOM_SIGNATURES), st.lists(_SUMMANDS, min_size=1, max_size=3),
    st.lists(_SUMMANDS, min_size=1, max_size=3), st.booleans(), st.integers(0, 2**16),
)
@settings(max_examples=25, deadline=None)
def test_spun_hom_space_matches_dense_on_conjugated_sums(pq, summands_v, summands_w, endo, seed):
    """Direct sums of up to three summands in conjugated bases, whose
    actions carry denominators: repeated or isomorphic summands need several
    generators, and the spun start must still span the Hom space."""
    p, q = pq
    n = p + q
    dim_v = sum(_module_dim(e, n) for e in summands_v)
    dim_w = dim_v if endo else sum(_module_dim(e, n) for e in summands_w)
    # the dense oracle takes seconds on conjugated pairs near 256 unknowns
    assume(dim_v * dim_w <= 144)

    def build(summands):
        out = _build_module(summands[0], p, q)
        for expr in summands[1:]:
            out = direct_sum(out, _build_module(expr, p, q))
        return out

    v = _conjugated(build(summands_v), seed)
    w = v if endo else _conjugated(build(summands_w), seed + 1)
    _assert_hom_matches_dense(v, w)


def test_unsplit_pair_is_refused_above_the_dense_cap(monkeypatch):
    """Compact so(3,0) splits nothing over Q (tr(a^2) < 0 for every basis
    element), so the spun start pairs every generator of V with all of W.
    On R^3 against itself one generator gives 3 maps.  37 copies of R^3
    need 37 generators, and 37 * 111 = 4107 maps is above the cap of 4096
    unknowns: the pair is refused before any kernel.  The cap bounds the
    constraint kernels' unknowns, not m * n: 22 copies, 66 * 66 = 4356 dense
    unknowns, spin to 22 * 66 = 1452 maps and pass it."""
    import liepq.rep_theory as rt

    algebra = so_pq_algebra(3, 0)
    std = Representation(algebra, 3, list(algebra.basis))
    assert len(rt._initial_hom_basis(std, std)) == 3
    assert [h.entries for h in hom_space(std, std)] == [h.entries for h in hom_space_dense(std, std)]
    copies = Representation(algebra, 111, [kron(Matrix.identity(37), b) for b in algebra.basis])
    kernels = []
    real = rt.kernel
    monkeypatch.setattr(rt, "kernel", lambda m: kernels.append(m) or real(m))
    with pytest.raises(ContractError, match="too large"):
        hom_space(copies, copies)
    assert kernels == []
    fewer = Representation(algebra, 66, [kron(Matrix.identity(22), b) for b in algebra.basis])
    assert len(rt._initial_hom_basis(fewer, fewer)) == 1452


def test_compact_wedge_adjoint_spins_from_one_generator():
    """wedge^2 R^12 -> so(12, 0): no basis element splits over Q, so the
    pool is empty and V is spun from unit vectors.  wedge^2 R^12 is
    irreducible, so one generator spans it and the start has 66 maps, far
    below the cap, although the pair has 66 * 66 = 4356 dense unknowns."""
    import liepq.rep_theory as rt
    from liepq.checks import check_hom_wedge_adjoint

    algebra = so_pq_algebra(12, 0)
    wedge = wedge_square_rep(Representation(algebra, 12, list(algebra.basis)))
    assert len(rt._initial_hom_basis(wedge, adjoint_rep(algebra))) == 66
    assert check_hom_wedge_adjoint(12, 0) == {"status": "pass", "dim": 1, "expected": 1}


def _scored_initial_basis(v, w):
    """The selection the Hom solver made before the first-fit pool: every
    basis element that splits on both modules, sorted by the size of the
    Hom basis its own split gives, then a greedy commuting pool of at most 8
    in that order."""
    import liepq.rep_theory as rt

    singles = []
    for a in range(v.algebra.dim):
        ev = rt.rational_eigensplit(v.actions[a])
        if ev is None:
            continue
        ew = ev if w is v or w.actions[a] is v.actions[a] else rt.rational_eigensplit(w.actions[a])
        if ew is None:
            continue
        dims_v = {key: len(rows) for key, rows in _joint_blocks(v, [(a, ev)])}
        dims_w = {key: len(rows) for key, rows in _joint_blocks(w, [(a, ew)])}
        score = sum(k * dims_w.get(key, 0) for key, k in dims_v.items())
        singles.append((a, score, ev, ew))
    if not singles:
        return None
    singles.sort(key=lambda t: t[1])
    pool = []
    for cand in singles:
        if all(not v.algebra.structure_entry(cand[0], b[0]) for b in pool):
            pool.append(cand)
        if len(pool) >= 8:
            break
    blocks_v = [((), [{j: 1} for j in range(v.module_dim)])]
    blocks_w = blocks_v if w is v else [((), [{i: 1} for i in range(w.module_dim)])]
    for a, _, xv, xw in pool:
        refined_v = rt._refine_blocks(blocks_v, v.actions[a], xv)
        if blocks_w is blocks_v and xw is xv:
            refined_w = refined_v
        else:
            refined_w = rt._refine_blocks(blocks_w, w.actions[a], xw)
        if refined_v is None or refined_w is None:
            break
        blocks_v, blocks_w = refined_v, refined_w
    return block_pairing_basis(v, w, blocks_v, blocks_w)


def _oracle_module_pairs():
    from liepq.so_pq import half_spin_reps

    # the Hom(wedge^2 V, ad) signatures of the module-certs benchmark
    for pq in [(2, 1), (4, 1), (3, 2), (5, 1), (4, 2), (3, 3), (4, 4), (3, 1), (2, 2)]:
        yield f"wedge-ad {pq}", _wedge_ad(*pq)
    spins = half_spin_reps(4, 4)
    for name, half in (("plus", spins.c_plus), ("minus", spins.c_minus)):
        yield f"half-spin forms {name}", (half, dual_rep(half))
    module = restrict(*per_c_complement(3, 1, rat(2)))
    yield "complement (3,1) c=2", (module, module)


def test_first_fit_basis_is_never_larger_than_the_scored_one():
    import liepq.rep_theory as rt

    for label, (v, w) in _oracle_module_pairs():
        first_fit = rt._initial_hom_basis(v, w)
        scored = _scored_initial_basis(v, w)
        if scored is None:
            assert len(first_fit) == v.module_dim * w.module_dim, label
        else:
            assert len(first_fit) <= len(scored), label


# -- validate against the pairwise oracle ----------------------------------


def _validation_modules():
    for p, q in [(2, 1), (3, 1), (2, 2)]:
        std = standard_rep(p, q)
        yield std
        yield adjoint_rep(so_pq_algebra(p, q))
        yield dual_rep(wedge_square_rep(std))
    for p, q, c in [(2, 1, "2"), (3, 1, "1/2"), (2, 2, "-2/3")]:
        # structure constants over a denominator, action matrices over others
        yield Representation(deformed_algebra(p, q, rat(c)).algebra, p + q + 1, embedding_iso(p, q, rat(c)).images)


_VALIDATION_MODULES = list(_validation_modules())


def test_validate_passes_on_the_unperturbed_modules():
    for rep in _VALIDATION_MODULES:
        rep.validate()


@given(st.sampled_from(range(len(_VALIDATION_MODULES))), st.data())
@settings(max_examples=60, deadline=None)
def test_validate_matches_the_pairwise_oracle(which, data):
    """validate on perturbed representations names the same first failing
    pair as the old pair-by-pair loop."""
    import re

    from conftest import pairwise_validate

    rep = _VALIDATION_MODULES[which]
    n, d = rep.module_dim, rep.algebra.dim
    actions = list(rep.actions)
    for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
        k = data.draw(st.integers(min_value=0, max_value=d - 1))
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        delta = data.draw(_SMALL_RATIONALS)
        actions[k] = actions[k] + Matrix.from_sparse(n, n, {(i, j): delta})
    broken = Representation(rep.algebra, n, actions)
    first = pairwise_validate(broken)
    if first is None:
        broken.validate()
    else:
        message = "homomorphism property fails on basis pair (%d,%d)" % first
        with pytest.raises(ContractError, match="^" + re.escape(message) + "$"):
            broken.validate()
