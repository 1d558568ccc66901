import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liepq.errors import (
    ContractError,
    NotClosedError,
    NotStableError,
    ShapeMismatchError,
    UnsupportedRealizationError,
)
from liepq import lie_core
from liepq.exact_linalg import (
    Matrix,
    Rational,
    Subspace,
    _integer_rows,
    inertia_of_diagonalizable_form,
    mat_mul,
    mat_vec,
    rat,
)
from liepq.lie_core import (
    BilinearForm,
    LieAlgebra,
    _Coordinatizer,
    bracket,
    centralizer,
    is_maximal_subalgebra,
    is_subalgebra,
    orthogonal_complement,
    subalgebra_closure,
)
from liepq.rep_theory import _map_defect, adjoint_rep, is_irreducible
from liepq.so_pq import (
    SO31_SL2C,
    SO32_SP4R,
    SO33_SL4R,
    _Family,
    deformed_algebra,
    exceptional_iso,
    so_pq_algebra,
)

from conftest import (
    algebra_from_json_dict,
    closed_form_so_entries,
    contains,
    contains_subspace,
    dense_basis_map,
    dense_express,
    dense_kernel,
    dense_rref,
    pairwise_defect,
    pairwise_trace_gram,
    per_c_deformed_entries,
    tensor_from_entries,
    to_json,
    unit_matrix,
    zero_subspace,
)

coeff3 = st.lists(st.integers(min_value=-5, max_value=5), min_size=6, max_size=6)


def test_bracket_rotation_basis(so3_rotations):
    # [L1, L2] = L3 in the classic basis
    assert bracket(so3_rotations, [1, 0, 0], [0, 1, 0]) == [rat(0), rat(0), rat(1)]


def test_bracket_antisymmetry_and_zero(so3_rotations):
    x = [rat(2), rat(-1), rat(3)]
    assert bracket(so3_rotations, x, x) == [rat(0)] * 3
    assert bracket(so3_rotations, x, [0, 0, 0]) == [rat(0)] * 3


def test_structure_tensor_abelian_diagonal():
    basis = [Matrix.diagonal([1, 0]), Matrix.diagonal([0, 1])]
    algebra = LieAlgebra.from_matrices(basis)
    assert algebra.structure == {}
    assert algebra.is_abelian()


def test_structure_tensor_so21_frozen_values(so21):
    # hand-computed commutators of the frozen basis (rotation b0, boosts b1, b2):
    # [b0,b1] = -b2, [b0,b2] = b1, [b1,b2] = b0
    tensor = so21.structure
    assert tensor == {
        (0, 1): {2: rat(-1)},
        (0, 2): {1: rat(1)},
        (1, 2): {0: rat(1)},
    }


def test_not_closed_pair_in_gl2():
    with pytest.raises(NotClosedError):
        LieAlgebra.from_matrices([unit_matrix(0, 1, 2), unit_matrix(1, 0, 2)])


nonzero_scalars = st.builds(
    lambda n, d: rat(f"{n}/{d}"), st.integers(-5, 5).filter(bool), st.integers(1, 4)
)


@st.composite
def sparse_bases(draw):
    """A sparse basis of n x n matrices, closed under commutators or not:
    gl(n), the upper or strictly upper triangular, the diagonal or so(p,q)
    matrices, or random elements on disjoint random supports, each element
    scaled by a nonzero rational, the coordinates permuted and the basis
    shuffled."""
    n = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["gl", "upper", "strict", "diagonal", "so", "random"]))
    cells = [(i, j) for i in range(n) for j in range(n)]
    if kind == "so":
        p = draw(st.integers(0, n))
        supports = [{(i, j): b[i, j] for i, j in cells if b[i, j]}
                    for b in so_pq_algebra(p, n - p).basis]
    elif kind == "random":
        chosen = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=n * n, unique=True))
        sizes = draw(st.lists(st.integers(1, 2), min_size=len(chosen), max_size=len(chosen)))
        supports, t = [], 0
        for size in sizes:
            if t < len(chosen):
                supports.append({cell: draw(nonzero_scalars) for cell in chosen[t:t + size]})
                t += size
    else:
        keep = {
            "gl": lambda i, j: True,
            "upper": lambda i, j: i <= j,
            "strict": lambda i, j: i < j,
            "diagonal": lambda i, j: i == j,
        }[kind]
        supports = [{(i, j): rat(1)} for i, j in cells if keep(i, j)]
    perm = draw(st.permutations(range(n)))
    basis = [
        Matrix.from_sparse(n, n, {(perm[i], perm[j]): v * f for (i, j), v in support.items()})
        for support, f in zip(supports, draw(
            st.lists(nonzero_scalars, min_size=len(supports), max_size=len(supports))
        ))
    ]
    return draw(st.permutations(basis))


def all_pairs_structure(basis):
    """The structure tensor by the obvious loop: every pair's commutator
    expressed by dense elimination, or the NotClosedError message of the
    first pair outside the span."""
    structure = {}
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            comm = basis[i] @ basis[j] - basis[j] @ basis[i]
            coeffs = dense_express(basis, comm)
            if coeffs is None:
                return f"[b_{i}, b_{j}] is outside the span of the basis"
            entry = {k: v for k, v in enumerate(coeffs) if v}
            if entry:
                structure[(i, j)] = entry
    return structure


@given(sparse_bases())
@settings(max_examples=60, deadline=None)
def test_from_matrices_matches_the_all_pairs_loop(basis):
    """Skipping the pairs whose products vanish by support changes neither
    the structure constants nor the first pair found outside the span."""
    try:
        alg = LieAlgebra.from_matrices(basis, validate=False)
    except NotClosedError as exc:
        found = str(exc)
    else:
        assert_tensor_is_its_view(alg)
        found = alg.structure
    assert found == all_pairs_structure(basis)


def test_from_matrices_builds_no_product_matrix(monkeypatch):
    """Each commutator is one integer pass of `_intertwining_defect`: no
    liepq binding of mat_mul is called, closed basis or not."""
    import sys

    import liepq.exact_linalg as exact_linalg

    basis = so_pq_algebra(3, 2).basis
    expected = so_pq_algebra(3, 2).structure
    calls = []
    real = exact_linalg.mat_mul

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "liepq" and getattr(module, "mat_mul", None) is real:
            monkeypatch.setattr(module, "mat_mul", counting)
    assert LieAlgebra.from_matrices(basis).structure == expected
    with pytest.raises(NotClosedError):
        LieAlgebra.from_matrices(basis[:2])
    assert calls == []
    basis[0] @ basis[1]  # the counter is live
    assert len(calls) == 1


def test_killing_abelian_is_zero():
    algebra = LieAlgebra.from_matrices([Matrix.diagonal([1, 0]), Matrix.diagonal([0, 1])])
    assert algebra.killing_form().gram.is_zero()


def test_killing_so3_negative_definite(so3_rotations):
    gram = so3_rotations.killing_form().gram
    assert inertia_of_diagonalizable_form(gram) == (0, 3, 0)


def test_killing_is_n_minus_2_times_trace_form():
    for (p, q) in [(2, 1), (3, 1), (2, 2), (5, 0)]:
        algebra = so_pq_algebra(p, q)
        n = p + q
        assert algebra.killing_form().gram == algebra.trace_form().gram.scale(n - 2)


def test_trace_form_so3(so3_rotations):
    assert so3_rotations.trace_form().gram == Matrix.identity(3).scale(-2)


def _trace_form_algebras():
    from liepq.so_pq import ipq_c, so_of_form

    for p, q in [(2, 1), (3, 1), (2, 2), (4, 0), (3, 3)]:
        yield so_pq_algebra(p, q)
    for p, q, c in [(2, 1, "2"), (3, 1, "-1/3"), (2, 2, "3/2")]:
        # closed-form bases with entries d_i/d_j over denominators
        yield so_of_form(ipq_c(p, q, rat(c)))
    yield exceptional_iso(SO31_SL2C).target


def test_trace_form_matches_the_pairwise_oracle():
    for algebra in _trace_form_algebras():
        assert algebra.trace_form().gram == pairwise_trace_gram(algebra)


@given(
    st.integers(1, 4),
    st.lists(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, "1/2", "-2/3"]), min_size=16, max_size=16),
             min_size=1, max_size=5),
)
@settings(max_examples=40, deadline=None)
def test_trace_form_matches_the_pairwise_oracle_on_any_basis(n, entries):
    """tr(b_a b_b) is bilinear in the basis alone: any n x n matrices with
    denominators, wrapped with no bracket check, against the oracle."""
    basis = [Matrix(n, n, [rat(x) for x in e[: n * n]]) for e in entries]
    algebra = LieAlgebra.from_structure(len(basis), [], validate=False, basis=basis)
    assert algebra.trace_form().gram == pairwise_trace_gram(algebra)


def test_theta_identity_on_compact(so3_rotations):
    assert so3_rotations.theta_involution() == Matrix.identity(3)


def test_theta_so21_fixes_rotation_negates_boosts(so21):
    assert so21.theta_involution() == Matrix.diagonal([1, -1, -1])


def test_theta_squares_to_identity(so31):
    theta = so31.theta_involution()
    assert mat_mul(theta, theta) == Matrix.identity(so31.dim)


def test_theta_is_automorphism(so31):
    theta = so31.theta_involution()
    assert _map_defect(so31, so31, theta) is None
    assert pairwise_defect(so31, so31, theta) is None


@pytest.mark.parametrize("p, q", [(2, 1), (3, 0), (3, 1), (2, 2), (4, 1), (3, 3)])
def test_theta_matches_the_dense_oracle(p, q):
    """The sparse reads of theta give the matrix whose column j holds the
    coordinates of -X_j^t by one dense elimination."""
    algebra = so_pq_algebra(p, q)
    expected = dense_basis_map(algebra.basis, [-b.transpose() for b in algebra.basis])
    assert algebra.theta_involution() == expected


def test_theta_not_stable():
    nil = LieAlgebra.from_matrices([unit_matrix(0, 1, 2)])
    with pytest.raises(NotStableError):
        nil.theta_involution()


def test_is_semisimple(so31):
    assert so31.is_semisimple()
    assert not so_pq_algebra(1, 1).is_semisimple()
    assert not deformed_algebra(2, 1, 0).algebra.is_semisimple()


def test_centralizer_of_whole_simple_algebra(so3_rotations):
    assert centralizer(so3_rotations, Subspace.full(3)).dim == 0


def test_centralizer_of_abelian_is_everything():
    algebra = LieAlgebra.from_matrices([Matrix.diagonal([1, 0]), Matrix.diagonal([0, 1])])
    got = centralizer(algebra, Subspace.from_vectors(2, [[1, 0]]))
    assert got == Subspace.full(2)


def test_centralizer_of_embedded_so_pq_is_trivial():
    for (p, q, c) in [(2, 1, 1), (3, 1, -1), (2, 2, 2)]:
        dalg = deformed_algebra(p, q, rat(c))
        assert centralizer(dalg.algebra, dalg.so_block_subspace()).dim == 0


def test_closure_trivial_cases(so3_rotations):
    full = Subspace.full(3)
    assert subalgebra_closure(so3_rotations, full) == full
    assert subalgebra_closure(so3_rotations, zero_subspace(3)).dim == 0


def test_closure_two_rotations_generate(so3_rotations):
    gens = Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])
    assert subalgebra_closure(so3_rotations, gens) == Subspace.full(3)


def test_closure_monotone_idempotent(so22):
    small = Subspace.from_vectors(6, [[1, 0, 0, 0, 0, 0]])
    bigger = Subspace.from_vectors(6, [[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]])
    c_small = subalgebra_closure(so22, small)
    c_big = subalgebra_closure(so22, bigger)
    assert contains_subspace(c_big, c_small)
    assert subalgebra_closure(so22, c_small) == c_small


def test_cartan_line_is_maximal_in_so3(so3_rotations):
    maximal, witness = is_maximal_subalgebra(
        so3_rotations, Subspace.from_vectors(3, [[1, 0, 0]])
    )
    assert maximal and witness is None


def test_embedded_so21_maximal_in_deformed():
    dalg = deformed_algebra(2, 1, 1)
    maximal, witness = is_maximal_subalgebra(dalg.algebra, dalg.so_block_subspace())
    assert maximal and witness is None


def test_ideal_of_so22_not_maximal(so22):
    verdict = is_irreducible(adjoint_rep(so22))
    assert verdict.status == "REDUCIBLE"
    ideal = verdict.witness
    assert ideal.dim == 3
    assert is_subalgebra(so22, ideal)
    maximal, witness = is_maximal_subalgebra(so22, ideal)
    assert not maximal
    assert witness is not None
    assert ideal.dim < witness.dim < so22.dim
    assert contains_subspace(witness, ideal)


def test_maximality_contract_errors(so21):
    not_subalgebra = Subspace.from_vectors(3, [[0, 1, 0]])  # single boost: ok, 1-dim is closed
    with pytest.raises(ContractError):
        is_maximal_subalgebra(so21, Subspace.full(3))  # not proper
    crooked = Subspace.from_vectors(6, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]])
    so31 = so_pq_algebra(3, 1)
    if not is_subalgebra(so31, crooked):
        with pytest.raises(ContractError):
            is_maximal_subalgebra(so31, crooked)


def test_maximal_implies_centralizer_inside(so21):
    for (p, q, c) in [(2, 1, 1), (2, 2, -1)]:
        dalg = deformed_algebra(p, q, rat(c))
        sub = dalg.so_block_subspace()
        maximal, _ = is_maximal_subalgebra(dalg.algebra, sub)
        assert maximal
        cent = centralizer(dalg.algebra, sub)
        assert contains_subspace(sub, cent)


def test_orthogonal_complement_trivial(so31):
    beta = so31.trace_form()
    assert orthogonal_complement(beta, Subspace.full(6)).dim == 0
    assert orthogonal_complement(beta, zero_subspace(6)) == Subspace.full(6)


def test_orthogonal_complement_checks_the_ambient_dimension():
    """A subspace of Q^3 or Q^1 against a form on Q^2 is a shape error, as
    it is for `centralizer`, not all of Q^2 or a line."""
    form = BilinearForm(2, Matrix.identity(2))
    for ambient in (3, 1):
        with pytest.raises(ShapeMismatchError):
            orthogonal_complement(form, Subspace.full(ambient))
    line = Subspace.from_vectors(2, [[1, 1]])
    assert orthogonal_complement(form, line) == Subspace.from_vectors(2, [[1, -1]])


def test_bilinear_form_evaluate_checks_both_lengths():
    form = BilinearForm(2, Matrix.identity(2))
    assert form.evaluate([1, 2], [1, 1]) == 3
    for x, y in (([1, 2, 99], [1, 1]), ([1], [1, 1]), ([1, 2], [1, 1, 1])):
        with pytest.raises(ShapeMismatchError):
            form.evaluate(x, y)


@given(st.integers(1, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_orthogonal_complement_matches_a_dense_oracle(n, data):
    """Random symmetric grams, degenerate ones included, against the dense
    kernel of the rows G.h for h the subspace's canonical basis."""
    entries = {}
    for i in range(n):
        for j in range(i, n):
            entries[(i, j)] = entries[(j, i)] = data.draw(small_matrix_entry)
    form = BilinearForm(n, Matrix.from_sparse(n, n, entries))
    vector = st.lists(small_matrix_entry, min_size=n, max_size=n)
    sub = Subspace.from_vectors(n, data.draw(st.lists(vector, max_size=n)))
    rows = [mat_vec(form.gram, h) for h in sub.basis_rows()]
    assert orthogonal_complement(form, sub).basis_rows() == dense_kernel(rows, n)


def test_beta_complement_of_so21_in_so31(so31):
    coord = so31.coordinatizer()
    # so(2,1) stabilizes the positive coordinate e_2 inside R^{3,1}, so its
    # (+,+,-) coordinates map to indices (0, 1, 3)
    place = {0: 0, 1: 1, 2: 3}
    embedded = []
    for b in so_pq_algebra(2, 1).basis:
        big = Matrix.from_sparse(
            4, 4, {(place[i], place[j]): b[i, j] for i in range(3) for j in range(3)}
        )
        embedded.append(coord.express(big))
    assert all(v is not None for v in embedded)
    sub = Subspace.from_vectors(6, embedded)
    complement = orthogonal_complement(so31.trace_form(), sub)
    assert complement.dim == 3


@given(coeff3, coeff3, coeff3)
@settings(max_examples=40, deadline=None)
def test_jacobi_on_random_vectors(x, y, z):
    algebra = so_pq_algebra(2, 2)
    xyz = bracket(algebra, bracket(algebra, x, y), z)
    yzx = bracket(algebra, bracket(algebra, y, z), x)
    zxy = bracket(algebra, bracket(algebra, z, x), y)
    assert [a + b + c for a, b, c in zip(xyz, yzx, zxy)] == [rat(0)] * 6


def test_killing_ad_invariance(so31):
    gram = so31.killing_form()
    d = so31.dim
    for i in range(d):
        ei = [rat(0)] * d
        ei[i] = rat(1)
        for j in range(d):
            ej = [rat(0)] * d
            ej[j] = rat(1)
            for k in range(d):
                ek = [rat(0)] * d
                ek[k] = rat(1)
                lhs = gram.evaluate(bracket(so31, ei, ej), ek)
                rhs = -gram.evaluate(ej, bracket(so31, ei, ek))
                assert lhs == rhs


def test_trace_form_associative(so21):
    beta = so21.trace_form()
    d = so21.dim
    units = [[rat(1) if r == i else rat(0) for r in range(d)] for i in range(d)]
    for x in units:
        for y in units:
            for z in units:
                assert beta.evaluate(bracket(so21, x, y), z) == beta.evaluate(
                    x, bracket(so21, y, z)
                )


def test_json_round_trip(so21):
    data = so21.to_json_dict()
    again = algebra_from_json_dict(data)
    assert again.structure == so21.structure
    assert to_json(again) == to_json(so21)


def test_json_abstract_round_trip():
    dalg = deformed_algebra(2, 1, rat("1/2"))
    data = dalg.algebra.to_json_dict()
    again = algebra_from_json_dict(data)
    assert again.structure == dalg.algebra.structure


def test_dim_zero_algebra():
    empty = LieAlgebra.from_structure(0, [])
    assert empty.dim == 0
    assert empty.killing_form().gram.rows == 0
    matrix_empty = LieAlgebra.from_matrices([])
    assert matrix_empty.trace_form().gram.rows == 0


def assert_tensor_is_its_view(alg):
    """The stored integer tensor is the integer rows of the rational view
    over their least common denominator: one tensor, one view of it."""
    rows, den = _integer_rows(alg.structure)
    assert alg._tensor == (den, rows)


def assert_one_entry_rows_shared(rows):
    """Equal one-entry rows of the tensor are one dict."""
    kept = {}
    assert all(kept.setdefault(tuple(row.items()), row) is row for row in rows.values() if len(row) == 1)


entry_values = st.one_of(
    st.integers(-4, 4),
    st.builds(lambda n, d: f"{n}/{d}", st.integers(-6, 6), st.integers(1, 6)),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
)


@st.composite
def structure_entries(draw):
    """(dim, entries): entries (i, j, k, value) with i != j in either order,
    int, 'p/q' and Fraction values, zeros among them, some entries repeated
    and some cancelled by (j, i, k, value) or (i, j, k, -value)."""
    dim = draw(st.integers(2, 5))
    index = st.integers(0, dim - 1)
    pairs = st.tuples(index, index).filter(lambda ij: ij[0] != ij[1])
    entries = [(i, j, draw(index), draw(entry_values))
               for i, j in draw(st.lists(pairs, max_size=12))]
    for i, j, k, value in draw(st.lists(st.sampled_from(entries), max_size=6)) if entries else []:
        how = draw(st.sampled_from(["repeat", "swap", "negate"]))
        if how == "repeat":
            entries.append((i, j, k, value))
        elif how == "swap":
            entries.append((j, i, k, value))
        else:
            entries.append((i, j, k, -rat(value)))
    return dim, draw(st.permutations(entries))


@given(structure_entries())
@settings(max_examples=150, deadline=None)
def test_from_structure_tensor_matches_the_rational_loop(drawn):
    """`from_structure` builds its integer tensor in one pass: its view is
    the rational tensor of the obvious loop, the tensor is the view's
    integer rows, and equal one-entry rows are one dict."""
    dim, entries = drawn
    alg = LieAlgebra.from_structure(dim, entries, validate=False)
    assert alg.structure == tensor_from_entries(dim, entries)
    assert_tensor_is_its_view(alg)
    assert_one_entry_rows_shared(alg._tensor[1])


@pytest.mark.parametrize(
    "entry",
    [(1, 1, 0, 1), (1, 1, 0, "2/3"), (0, 1, 0, 0.5), (0, 1, 0, True), (0, 1, False, 1),
     (2.0, 1, 0, "1/2")],
    ids=["[x, x]", "[x, x] rational", "float value", "bool value", "bool k", "float i"],
)
def test_from_structure_refuses_what_the_rational_loop_refuses(entry):
    """[x, x], values that are not rationals and bool or float indices are
    refused with the loop's message (the index messages are pinned by
    `test_from_structure_refuses_an_index_outside_the_algebra`)."""
    entries = [(0, 1, 0, 1), entry]
    with pytest.raises(ContractError) as expected:
        tensor_from_entries(2, entries)
    with pytest.raises(ContractError, match=re.escape(str(expected.value))):
        LieAlgebra.from_structure(2, entries)


SIGNATURES_3_TO_8 = [(p, n - p) for n in range(3, 9) for p in range(n + 1)]


@pytest.mark.parametrize("p, q", SIGNATURES_3_TO_8)
def test_so_pq_tensor_matches_its_closed_form(p, q):
    """so(p,q) at every signature with 3 <= n <= 8: the view is the rational
    tensor of the closed-form constants, the tensor its integer rows, and
    equal one-entry rows are one dict."""
    alg = so_pq_algebra(p, q)
    assert alg.structure == tensor_from_entries(alg.dim, closed_form_so_entries([1] * p + [-1] * q))
    assert_tensor_is_its_view(alg)
    assert_one_entry_rows_shared(alg._tensor[1])


@pytest.mark.parametrize(
    "diag",
    [[1, 1, 1], [2, 3, 3, -3], [3, 3, -3, 2], [1, -5, 2, 7], [-4, 6, 9, -1, 2]],
)
def test_diagonal_so_of_form_tensor_matches_its_closed_form(diag):
    """so_of_form of a diagonal form, ratios that are not integers among
    them: the view is the closed-form rational tensor, and the tensor its
    integer rows."""
    from liepq.so_pq import so_of_form

    alg = so_of_form(Matrix.diagonal(diag))
    assert alg.structure == tensor_from_entries(alg.dim, closed_form_so_entries(diag))
    assert_tensor_is_its_view(alg)


@pytest.mark.parametrize("p, q", [(2, 1), (3, 1), (2, 2), (0, 4), (3, 3), (4, 4)])
@pytest.mark.parametrize("c", ["0", "1", "-1", "2/3", "-2/3"])
def test_deformed_algebra_tensor_matches_the_per_c_entries(p, q, c):
    """[.,.]_c read off the record: the view is the rational tensor of the
    per-c entries and the tensor is its integer rows."""
    alg = deformed_algebra(p, q, c).algebra
    dim = alg.dim
    assert alg.structure == tensor_from_entries(dim, per_c_deformed_entries(p, q, c))
    assert_tensor_is_its_view(alg)


@pytest.mark.parametrize(
    "entry",
    [(0, 1, 7, 1), (2, 1, 0, 1), (0, 2, 1, 1), (-1, 1, 0, 1), (0, -1, 1, 1), (0, 1, -2, 0),
     (0, 1.5, 1, 1), (True, 1, 0, 1)],
    ids=["k", "i", "j", "negative i", "negative j", "negative k with zero value", "float j",
         "bool i"],
)
def test_from_structure_refuses_an_index_outside_the_algebra(entry):
    with pytest.raises(ContractError, match=re.escape(f"structure entry {entry!r}")):
        LieAlgebra.from_structure(2, [(0, 1, 0, 1), entry])


def test_from_structure_with_a_basis_is_the_matrix_realization(so3_rotations):
    entries = [(i, j, k, v) for (i, j), e in so3_rotations.structure.items() for k, v in e.items()]
    alg = LieAlgebra.from_structure(3, entries, basis=so3_rotations.basis)
    assert alg.realization == so3_rotations.realization == lie_core.MATRIX
    assert alg.basis == so3_rotations.basis and alg.structure == so3_rotations.structure
    assert alg.coordinatizer().express(so3_rotations.basis[2]) == [0, 0, 1]
    assert alg.trace_form() == so3_rotations.trace_form()


@pytest.mark.parametrize(
    "basis,match",
    [
        (lambda b: b[:2], "basis holds 2 matrices for an algebra of dim 3"),
        (lambda b: b + b[:1], "basis holds 4 matrices for an algebra of dim 3"),
        (lambda b: b[:2] + [unit_matrix(0, 1, 2)], "mixed shapes"),
        (lambda b: b[:2] + [Matrix.zeros(3, 2)], "mixed shapes"),
    ],
    ids=["too few", "too many", "smaller square", "not square"],
)
def test_from_structure_refuses_a_basis_that_does_not_fit(so3_rotations, basis, match):
    with pytest.raises(ContractError, match=match):
        LieAlgebra.from_structure(3, [(0, 1, 2, 1)], basis=basis(list(so3_rotations.basis)))


def dense_killing_entries(algebra):
    """The obvious formula K_ab = tr(ad b_a . ad b_b) on dense ad matrices."""
    d = algebra.dim
    ads = [algebra.ad_basis_matrix(i) for i in range(d)]
    return [mat_mul(ads[a], ads[b]).trace() for a in range(d) for b in range(d)]


small_height_c = st.one_of(
    st.just(0),
    st.builds(lambda n, d: rat(f"{n}/{d}"), st.integers(-3, 3), st.integers(1, 3)),
)
signatures_3_to_5 = st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(
    lambda pq: 3 <= pq[0] + pq[1] <= 5
)
killing_test_algebras = st.one_of(
    st.builds(lambda pq, c: deformed_algebra(*pq, c).algebra, signatures_3_to_5, small_height_c),
    st.builds(
        lambda pq: so_pq_algebra(*pq),
        st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda pq: 2 <= sum(pq) <= 5),
    ),
    st.builds(lambda d: LieAlgebra.from_structure(d, []), st.integers(0, 4)),
)


@given(killing_test_algebras)
@settings(max_examples=30, deadline=None)
def test_sparse_killing_matches_dense_trace(algebra):
    gram = algebra.killing_form().gram
    assert gram.entries == dense_killing_entries(algebra)
    assert all(type(x) is Rational for x in gram.entries)


# -- differential tests: the sparse bracket path against slow oracles -------


def all_keys_bracket(algebra, x, y):
    """[x, y] by the obvious formula: every (i, j) key of the structure
    tensor weighted by x_i y_j - x_j y_i."""
    out = [rat(0)] * algebra.dim
    for (i, j), entry in algebra.structure.items():
        f = x[i] * y[j] - x[j] * y[i]
        for k, v in entry.items():
            out[k] += f * v
    return out


def worklist_closure(algebra, generators):
    """Brute-force closure: bracket every new vector against the whole
    current basis, with dense membership tests, until nothing new appears."""
    span = generators
    basis = list(generators.basis_rows())
    frontier = list(basis)
    while frontier:
        new = []
        for x in frontier:
            for y in list(basis):
                z = all_keys_bracket(algebra, x, y)
                if not contains(span, z):
                    span = Subspace.from_vectors(algebra.dim, span.basis_rows() + [z])
                    basis.append(z)
                    new.append(z)
        frontier = new
    return span


def brute_force_maximality(algebra, subspace):
    """Close H + <e_idx> from scratch for every complement index."""
    for idx in subspace.complement_coordinate_indices():
        unit = [rat(0)] * algebra.dim
        unit[idx] = rat(1)
        gens = Subspace.from_vectors(algebra.dim, subspace.basis_rows() + [unit])
        closed = worklist_closure(algebra, gens)
        if closed.dim < algebra.dim:
            return False, closed
    return True, None


sparse_coeff = st.one_of(st.just(0), st.just(0), st.integers(-3, 3), st.sampled_from(["1/2", "-2/3"]))
bracket_test_algebras = st.one_of(
    st.builds(lambda pq, c: deformed_algebra(*pq, c).algebra, signatures_3_to_5, small_height_c),
    st.builds(
        lambda pq: so_pq_algebra(*pq),
        st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda pq: 2 <= sum(pq) <= 5),
    ),
)


@given(bracket_test_algebras, st.data())
@settings(max_examples=40, deadline=None)
def test_sparse_bracket_matches_all_keys_formula(algebra, data):
    vec = st.lists(sparse_coeff, min_size=algebra.dim, max_size=algebra.dim)
    x = [rat(v) for v in data.draw(vec)]
    y = [rat(v) for v in data.draw(vec)]
    got = bracket(algebra, x, y)
    assert got == all_keys_bracket(algebra, x, y)
    assert all(type(v) is Rational for v in got)


closure_test_algebras = st.one_of(
    st.sampled_from([(2, 2), (3, 1)]).map(lambda pq: so_pq_algebra(*pq)),
    st.builds(
        lambda pq, c: deformed_algebra(*pq, c).algebra,
        st.sampled_from([(2, 1), (3, 1)]),
        small_height_c,
    ),
)


def draw_generators(data, algebra):
    small = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-2, 2))
    rows = data.draw(
        st.lists(
            st.lists(small, min_size=algebra.dim, max_size=algebra.dim), min_size=1, max_size=3
        )
    )
    return Subspace.from_vectors(algebra.dim, [[rat(v) for v in row] for row in rows])


@given(closure_test_algebras, st.data())
@settings(max_examples=40, deadline=None)
def test_closure_matches_worklist_oracle(algebra, data):
    gens = draw_generators(data, algebra)
    assert subalgebra_closure(algebra, gens) == worklist_closure(algebra, gens)


@given(closure_test_algebras, st.data())
@settings(max_examples=40, deadline=None)
def test_maximality_matches_brute_force_oracle(algebra, data):
    sub = worklist_closure(algebra, draw_generators(data, algebra))
    if sub.dim == algebra.dim:
        sub = worklist_closure(algebra, zero_subspace(algebra.dim))
    assert is_subalgebra(algebra, sub)
    assert is_maximal_subalgebra(algebra, sub) == brute_force_maximality(algebra, sub)


@pytest.mark.parametrize("p, q, c", [(2, 1, 1), (3, 1, 0), (3, 1, "-1/2"), (2, 2, 2)])
def test_maximality_of_so_block_matches_brute_force(p, q, c):
    dalg = deformed_algebra(p, q, rat(c))
    sub = dalg.so_block_subspace()
    assert is_maximal_subalgebra(dalg.algebra, sub) == (True, None)
    assert brute_force_maximality(dalg.algebra, sub) == (True, None)


def test_non_maximal_witness_matches_brute_force(so22):
    # one so(2,1) factor of so(2,2) = so(2,1) x so(2,1): an ideal, not maximal
    ideal = is_irreducible(adjoint_rep(so22)).witness
    got = is_maximal_subalgebra(so22, ideal)
    assert got[0] is False
    assert got == brute_force_maximality(so22, ideal)


small_matrix_entry = st.one_of(
    st.just(0), st.just(0), st.integers(-2, 2), st.sampled_from(["1/2", "-3/2"])
)


@given(st.integers(2, 3), st.data())
@settings(max_examples=100, deadline=None)
def test_coordinatizer_matches_dense_solve(n, data):
    entries = st.lists(small_matrix_entry, min_size=n * n, max_size=n * n)
    basis = [Matrix(n, n, e) for e in data.draw(st.lists(entries, min_size=1, max_size=4))]
    rank = len(dense_rref([list(b.entries) for b in basis])[1])
    if rank < len(basis):
        with pytest.raises(ContractError):
            _Coordinatizer(basis)
        return
    coord = _Coordinatizer(basis)
    outside = Matrix(n, n, data.draw(entries))
    weights = data.draw(st.lists(small_matrix_entry, min_size=len(basis), max_size=len(basis)))
    inside = Matrix.zeros(n, n)
    for w, b in zip(weights, basis):
        inside = inside + b.scale(w)
    for m in (outside, inside):
        assert coord.express(m) == dense_express(basis, m)
    assert coord.express(inside) == [rat(w) for w in weights]


def test_coordinatizer_out_of_span_gl2_commutator():
    # the pair of test_not_closed_pair_in_gl2: [E01, E10] = E00 - E11 is outside
    basis = [unit_matrix(0, 1, 2), unit_matrix(1, 0, 2)]
    comm = mat_mul(basis[0], basis[1]) - mat_mul(basis[1], basis[0])
    assert dense_express(basis, comm) is None
    assert _Coordinatizer(basis).express(comm) is None
    assert _Coordinatizer(basis).express(basis[1].scale(3)) == [rat(0), rat(3)]
    with pytest.raises(ShapeMismatchError):
        _Coordinatizer(basis).express(unit_matrix(0, 1, 3))


def test_coordinatizer_reduces_earlier_rows_at_later_pivots():
    # the second basis matrix's pivot is a nonzero entry of the first
    basis = [Matrix(2, 2, [1, 1, 0, 0]), Matrix(2, 2, [0, 2, 1, 0])]
    target = Matrix(2, 2, [1, -1, -1, 0])  # b0 - b1
    assert _Coordinatizer(basis).express(target) == [rat(1), rat(-1)]
    assert dense_express(basis, target) == [rat(1), rat(-1)]


def test_maximality_closure_never_brackets_two_h_vectors(monkeypatch):
    """Bracket-work guard on deformed (4,4), c = 2: the membership check of H
    brackets each pair of H's 28 basis vectors once; the closures bracket no
    such pair again and stop once the span is the whole 36-dim algebra."""
    dalg = deformed_algebra(4, 4, rat(2))
    sub = dalg.so_block_subspace()
    h_rows = sub._integer_rows()  # closure and membership bracket integer rows
    calls = []  # (inside is_subalgebra, both arguments are H basis vectors)
    depth = []
    real_bracket = LieAlgebra._bracket_int
    real_is_subalgebra = lie_core.is_subalgebra

    def counting_bracket(self, x, y):
        calls.append((bool(depth), x in h_rows and y in h_rows))
        return real_bracket(self, x, y)

    def flagged_is_subalgebra(algebra, subspace):
        depth.append(1)
        try:
            return real_is_subalgebra(algebra, subspace)
        finally:
            depth.pop()

    monkeypatch.setattr(LieAlgebra, "_bracket_int", counting_bracket)
    monkeypatch.setattr(lie_core, "is_subalgebra", flagged_is_subalgebra)
    assert is_maximal_subalgebra(dalg.algebra, sub) == (True, None)
    h, d = sub.dim, dalg.algebra.dim
    assert (h, d) == (28, 36)
    assert sum(1 for membership, _ in calls if membership) == h * (h - 1) // 2
    assert not any(both_h for membership, both_h in calls if not membership)
    assert len(calls) <= h * (h - 1) // 2 + (d - h) * d


# -- the sparse Jacobi check against the all-triples oracle -----------------


def all_triples_jacobi_failure(algebra):
    """The first basis triple i < j < k, in lexicographic order, on which
    the Jacobi sum of the three cyclic double brackets is nonzero, found by
    visiting every triple; None when there is none."""
    d = algebra.dim
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                acc = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for l, v in algebra.structure_entry(a, b).items():
                        for m, w in algebra.structure_entry(l, c).items():
                            acc[m] = acc.get(m, 0) + v * w
                if any(acc.values()):
                    return (i, j, k)
    return None


def sparse_jacobi_failure(algebra):
    try:
        algebra._check_jacobi()
    except ContractError as exc:
        return str(exc)
    return None


def jacobi_message(triple):
    return None if triple is None else "Jacobi identity fails on basis triple ({},{},{})".format(*triple)


def perturbed(algebra, i, j, k, delta):
    """The abstract algebra with delta added to the coefficient of b_k in
    [b_i, b_j], i < j, unchecked."""
    entries = [(a, b, m, v) for (a, b), entry in algebra.structure.items() for m, v in entry.items()]
    entries.append((i, j, k, delta))
    return LieAlgebra.from_structure(algebra.dim, entries, validate=False)


EXCEPTIONAL = [SO31_SL2C, SO32_SP4R, SO33_SL4R]

jacobi_test_algebras = st.one_of(
    st.builds(lambda pq, c: deformed_algebra(*pq, c).algebra, signatures_3_to_5, small_height_c),
    st.builds(lambda pq: so_pq_algebra(*pq), signatures_3_to_5),
    # brackets with several terms: sl(2,C)_R, sp(4,R) and sl(4,R)
    st.sampled_from(EXCEPTIONAL).map(lambda name: exceptional_iso(name).small_algebra),
)


@given(jacobi_test_algebras, st.data())
@settings(max_examples=40, deadline=None)
def test_sparse_jacobi_matches_all_triples_oracle(algebra, data):
    assert sparse_jacobi_failure(algebra) is None
    assert all_triples_jacobi_failure(algebra) is None
    d = algebra.dim
    i = data.draw(st.integers(0, d - 2))
    j = data.draw(st.integers(i + 1, d - 1))
    k = data.draw(st.integers(0, d - 1))
    delta = rat(data.draw(st.sampled_from(["1", "-1", "2", "1/2", "-2/3"])))
    bad = perturbed(algebra, i, j, k, delta)
    assert sparse_jacobi_failure(bad) == jacobi_message(all_triples_jacobi_failure(bad))


@pytest.mark.parametrize("name", EXCEPTIONAL)
def test_sparse_jacobi_names_triples_that_only_the_outer_terms_reach(name):
    """Perturbations of [b_y, b_z] whose first failing triple is (x, y, z),
    x < y, with no b_y part in [b_x, b_y] and no b_z part in [b_x, b_z]:
    [[b_x, b_y], b_z] and [[b_z, b_x], b_y] keep their values, so only the
    [[b_y, b_z], b_x] term, read through the index of the brackets that
    hold each b_l, sees the change.  The message is the oracle's."""
    algebra = exceptional_iso(name).small_algebra
    seen = 0
    for y, z in sorted(algebra.structure):
        for k in range(algebra.dim):
            bad = perturbed(algebra, y, z, k, rat(-2))
            triple = all_triples_jacobi_failure(bad)
            if triple is None or triple[1:] != (y, z) or triple[0] >= y:
                continue
            x = triple[0]
            if y in algebra.structure_entry(x, y) or z in algebra.structure_entry(x, z):
                continue
            assert sparse_jacobi_failure(bad) == jacobi_message(triple)
            seen += 1
        if seen >= 3:
            break
    assert seen >= 3


def test_the_jacobi_pass_peaks_below_1_mb_at_8_8():
    """The pass keeps the sums of one smallest index at a time: on
    [.,.]_1 at (8,8), dim 136, its peak under tracemalloc, past the integer
    tensor's bracket index, stays below 1 MB (9.1 MB when every triple's
    sums were kept)."""
    algebra = _Family(8, 8).algebra(1)
    assert algebra._brackets  # built before the pass is traced
    tracemalloc.start()
    try:
        algebra._check_jacobi()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("c", [rat(2), rat("2/3")])
def test_sparse_jacobi_catches_a_perturbed_constant(c):
    algebra = deformed_algebra(4, 4, c).algebra
    keys = sorted(algebra.structure)
    for i, j in (keys[0], keys[len(keys) // 2], keys[-1]):
        k, v = min(algebra.structure[(i, j)].items())
        for delta in (v, -v / 2, rat(1)):
            bad = perturbed(algebra, i, j, k, delta)
            with pytest.raises(ContractError, match="Jacobi identity fails"):
                bad._check_jacobi()
            assert all_triples_jacobi_failure(bad) is not None


def _theta_case(p, q):
    algebra = so_pq_algebra(p, q)
    return algebra, algebra, algebra.theta_involution()


def _iso_case(name):
    iso = exceptional_iso(name)
    return iso.small_algebra, iso.target, iso.iso_coeffs


HOMOMORPHISM_CASES = [
    ("theta", 2, 1), ("theta", 3, 1), ("theta", 2, 2), ("theta", 3, 2), ("theta", 0, 4),
    ("iso", SO31_SL2C), ("iso", SO32_SP4R), ("iso", SO33_SL4R),
]


@given(st.sampled_from(HOMOMORPHISM_CASES), st.data())
@settings(max_examples=60, deadline=None)
def test_homomorphism_defect_matches_pairwise_oracle(case, data):
    """theta on so(p,q) and the exceptional isomorphisms are homomorphisms;
    after a few entries of phi are shifted, or one column is scaled (which
    moves the first failing pair past i = 0 when b_0 commutes with that
    basis vector), both routines name the same first failing pair (or both
    None, when the change happens to keep the brackets)."""
    src, dst, phi = _theta_case(*case[1:]) if case[0] == "theta" else _iso_case(case[1])
    assert _map_defect(src, dst, phi) is None
    values = st.fractions(-3, 3, max_denominator=4).filter(bool)
    if data.draw(st.booleans()):
        shifts = data.draw(st.dictionaries(
            st.tuples(st.integers(0, phi.rows - 1), st.integers(0, phi.cols - 1)),
            values, min_size=1, max_size=3,
        ))
        perturbed = phi + Matrix.from_sparse(phi.rows, phi.cols, shifts)
    else:
        scale = [rat(1)] * phi.cols
        scale[data.draw(st.integers(0, phi.cols - 1))] = data.draw(values)
        perturbed = phi @ Matrix.diagonal(scale)
    assert _map_defect(src, dst, perturbed) == pairwise_defect(src, dst, perturbed)


@pytest.mark.parametrize("factor", [2, -1, rat("1/3")])
def test_scaled_theta_fails_on_the_first_nonzero_bracket(so31, factor):
    """[f x, f y] = f^2 [x, y] differs from f [x, y] exactly where the
    bracket is nonzero, so the first failing pair is the first such pair."""
    first = min(so31.structure)
    theta = so31.theta_involution().scale(factor)
    assert _map_defect(so31, so31, theta) == first == pairwise_defect(so31, so31, theta)


def test_homomorphism_defect_rejects_a_misshapen_map(so21, so31):
    with pytest.raises(ShapeMismatchError):
        _map_defect(so21, so31, Matrix.identity(3))


def test_map_defect_refuses_an_abstract_target(so31):
    """An ABSTRACT target has no basis matrices to represent the source on,
    even when the map is the identity."""
    abstract = LieAlgebra.from_structure(so31.dim, [
        (i, j, k, v) for (i, j), entry in so31.structure.items() for k, v in entry.items()
    ])
    with pytest.raises(UnsupportedRealizationError):
        _map_defect(so31, abstract, Matrix.identity(so31.dim))


def test_ad_matrix_reads_its_coefficients_through_rat():
    """ad(x) takes the coefficient list as every dense intake does: 'p/q'
    strings, ints and rationals, and a float is refused with a
    ContractError."""
    alg = so_pq_algebra(2, 1)
    x = ["1/2", 0, 3]
    assert alg.ad_matrix(x) == alg.ad_matrix([Rational(1, 2), Rational(0), Rational(3)])
    with pytest.raises(ContractError):
        alg.ad_matrix([0.5, 0, 0])
