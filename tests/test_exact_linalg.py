import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liepq.errors import ContractError, ShapeMismatchError
from liepq.exact_linalg import (
    Matrix,
    NO_SOLUTION,
    Rational,
    Subspace,
    ZERO,
    congruence_diagonalize,
    dump_matrix_text,
    inertia_of_diagonalizable_form,
    kernel,
    load_matrix_text,
    mat_mul,
    rat,
    rational_sqrt,
    rref,
    solve_linear,
    wedge_square_index,
)

small_ints = st.integers(min_value=-6, max_value=6)


def square_matrix(n, entries):
    return Matrix(n, n, [rat(x) for x in entries])


def test_identity_product():
    i2 = Matrix.identity(2)
    assert mat_mul(i2, i2) == i2


def test_involution_squares_to_identity():
    swap = Matrix.from_rows([[0, 1], [1, 0]])
    assert mat_mul(swap, swap) == Matrix.identity(2)


def test_ipq_squares_to_identity():
    i11 = Matrix.diagonal([1, -1])
    assert mat_mul(i11, i11) == Matrix.identity(2)


def test_mat_mul_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        mat_mul(Matrix.zeros(2, 3), Matrix.zeros(2, 3))


def test_kernel_identity_is_zero():
    assert kernel(Matrix.identity(3)).dim == 0


def test_kernel_zero_matrix_is_full():
    assert kernel(Matrix.zeros(2, 2)) == Subspace.full(2)


def test_kernel_rank_one():
    ker = kernel(Matrix.from_rows([[1, 1]]))
    assert ker.dim == 1
    assert ker.contains([1, -1])


def test_solve_identity():
    sol, ker = solve_linear(Matrix.identity(2), Matrix.column([1, 0]))
    assert sol.column_list(0) == [rat(1), rat(0)]
    assert ker.dim == 0


def test_solve_underdetermined():
    sol, ker = solve_linear(Matrix.from_rows([[1, 1]]), Matrix.column([1]))
    assert sol is not NO_SOLUTION
    assert sol[0, 0] + sol[1, 0] == 1
    assert ker.dim == 1 and ker.contains([1, -1])


def test_solve_inconsistent_is_a_value():
    sol, ker = solve_linear(Matrix.from_rows([[1], [1]]), Matrix.column([1, 2]))
    assert sol is NO_SOLUTION
    assert ker.dim == 0


def test_inertia_diagonal_readoff():
    assert inertia_of_diagonalizable_form(Matrix.diagonal([1, 1, 1, -1])) == (3, 1, 0)


def test_inertia_ipq_c_positive():
    form = Matrix.diagonal([2, 1, 1, 1, -1])
    assert inertia_of_diagonalizable_form(form) == (4, 1, 0)


def test_inertia_ipq_c_negative():
    form = Matrix.diagonal([1, 1, 1, -1, -1])
    assert inertia_of_diagonalizable_form(form) == (3, 2, 0)


def test_inertia_requires_symmetric():
    with pytest.raises(ContractError):
        inertia_of_diagonalizable_form(Matrix.from_rows([[0, 1], [0, 0]]))


def test_inertia_zero_diagonal_block():
    hyperbolic = Matrix.from_rows([[0, 1], [1, 0]])
    assert inertia_of_diagonalizable_form(hyperbolic) == (1, 1, 0)


def test_wedge_square_index():
    assert wedge_square_index(2) == [(0, 1)]
    assert wedge_square_index(3) == [(0, 1), (0, 2), (1, 2)]
    assert len(wedge_square_index(4)) == 6
    with pytest.raises(ContractError):
        wedge_square_index(1)


@given(st.lists(small_ints, min_size=12, max_size=12))
@settings(max_examples=60)
def test_rank_nullity(entries):
    a = Matrix(3, 4, [rat(x) for x in entries])
    reduced, pivots = rref(a.to_rows())
    assert len(pivots) + kernel(a).dim == a.cols


@given(
    st.lists(small_ints, min_size=9, max_size=9),
    st.lists(small_ints, min_size=3, max_size=3),
)
@settings(max_examples=60)
def test_solve_returns_exact_solution(entries, xs):
    a = Matrix(3, 3, [rat(x) for x in entries])
    x = Matrix.column([rat(v) for v in xs])
    b = mat_mul(a, x)
    sol, _ = solve_linear(a, b)
    assert sol is not NO_SOLUTION
    assert mat_mul(a, sol) == b


@given(
    st.lists(small_ints, min_size=6, max_size=6),
    st.lists(small_ints, min_size=9, max_size=9),
)
@settings(max_examples=60)
def test_inertia_congruence_invariant(upper, p_entries):
    # symmetric B from its upper triangle
    b = Matrix.zeros(3, 3)
    idx = 0
    for i in range(3):
        for j in range(i, 3):
            b.entries[i * 3 + j] = rat(upper[idx])
            b.entries[j * 3 + i] = rat(upper[idx])
            idx += 1
    p = Matrix(3, 3, [rat(x) for x in p_entries])
    reduced, pivots = rref(p.to_rows())
    if len(pivots) < 3:
        return  # congruence needs invertible P
    conj = mat_mul(mat_mul(p.transpose(), b), p)
    assert inertia_of_diagonalizable_form(conj) == inertia_of_diagonalizable_form(b)


def test_congruence_diagonalize_transform():
    b = Matrix.from_rows([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
    p, diag = congruence_diagonalize(b)
    conj = mat_mul(mat_mul(p.transpose(), b), p)
    assert conj == Matrix.diagonal(diag)


def test_subspace_canonical_form():
    a = Subspace.from_vectors(3, [[1, 1, 0], [0, 0, 2]])
    b = Subspace.from_vectors(3, [[2, 2, 2], [-1, -1, 3]])
    assert a == b
    assert a.basis_rows() == b.basis_rows()


def test_subspace_membership_and_complement():
    s = Subspace.from_vectors(3, [[1, 0, 1]])
    assert s.contains([2, 0, 2])
    assert not s.contains([1, 0, 0])
    assert s.complement_coordinate_indices() == [1, 2]


def test_matrix_text_round_trip():
    m = Matrix(2, 3, [rat("1/2"), rat(-3), rat(0), rat("7/5"), rat(4), rat("-2/9")])
    text = dump_matrix_text(m)
    again = load_matrix_text(text)
    assert again == m
    assert dump_matrix_text(again) == text


def test_matrix_text_header():
    text = dump_matrix_text(Matrix.identity(2))
    assert text.splitlines()[0] == "2 2"


def test_rational_sqrt():
    assert rational_sqrt(rat("9/4")) == rat("3/2")
    assert rational_sqrt(0) == 0
    assert rational_sqrt(2) is None
    assert rational_sqrt(-4) is None


def test_floats_rejected():
    with pytest.raises(ContractError):
        rat(0.5)


def test_matrix_construction_still_validates_entries():
    # the rat() fast path only covers values already of the scalar type
    scalar = rat("3/4")
    assert rat(scalar) is scalar
    with pytest.raises(ContractError):
        Matrix(1, 1, [0.5])
    with pytest.raises(ContractError):
        Matrix.from_rows([["1/x"]])


sparse_rationals = st.one_of(
    st.just(0),
    st.builds(lambda n, d: rat(f"{n}/{d}"), st.integers(-5, 5), st.integers(1, 4)),
)


@st.composite
def sparse_matrix(draw, rows, cols):
    entries = draw(st.lists(sparse_rationals, min_size=rows * cols, max_size=rows * cols))
    return Matrix(rows, cols, entries)


@st.composite
def sparse_operands(draw):
    n, m, k = (draw(st.integers(1, 4)) for _ in range(3))
    return (
        draw(sparse_matrix(n, m)),
        draw(sparse_matrix(n, m)),
        draw(sparse_matrix(m, k)),
        draw(sparse_rationals),
    )


def assert_exact_entries(result, expected):
    assert result.entries == expected
    assert all(type(x) is Rational for x in result.entries)


@given(sparse_operands())
@settings(max_examples=80)
def test_zero_skipping_ops_match_dense_formulas(operands):
    a, a2, b, k = operands
    n, m, cols = a.rows, a.cols, b.cols
    dense_product = [
        sum((a[i, j] * b[j, l] for j in range(m)), ZERO)
        for i in range(n)
        for l in range(cols)
    ]
    assert_exact_entries(mat_mul(a, b), dense_product)
    assert_exact_entries(a + a2, [x + y for x, y in zip(a.entries, a2.entries)])
    assert_exact_entries(a - a2, [x - y for x, y in zip(a.entries, a2.entries)])
    assert_exact_entries(a.scale(k), [k * x for x in a.entries])


@given(sparse_operands())
@settings(max_examples=60)
def test_op_results_own_their_entries(operands):
    a, a2, b, k = operands
    operands_before = [list(m.entries) for m in (a, a2, b)]
    results = [a + a2, a - a2, -a, a.scale(k), a.transpose(), mat_mul(a, b),
               Matrix.zeros(a.rows, a.cols)]
    assert_exact_entries(results[2], [-x for x in a.entries])
    assert_exact_entries(results[4], [a[i, j] for j in range(a.cols) for i in range(a.rows)])
    for result in results:
        assert all(result.entries is not m.entries for m in (a, a2, b))
        result.entries[:] = [rat(7)] * len(result.entries)
    assert [m.entries for m in (a, a2, b)] == operands_before
    assert Matrix.zeros(a.rows, a.cols).is_zero()


def test_rat_token_grammar():
    assert rat("-3/4") == Rational(-3, 4)
    assert rat(" +6/04 ") == Rational(3, 2)
    for token in ("1/-2", "1/+2", "1/0", "-5/00", "1/", "/2", "1.5", "1e3", "1_000"):
        with pytest.raises(ContractError):
            rat(token)


def test_public_constructors_still_validate_entries():
    for bad in (0.5, "1/0", "2/-3", "x"):
        with pytest.raises(ContractError):
            Matrix(1, 1, [bad])
        with pytest.raises(ContractError):
            Matrix.from_rows([[bad]])
        with pytest.raises(ContractError):
            Matrix.column([bad])
        with pytest.raises(ContractError):
            Matrix.diagonal([bad])
    for body in ("0.5", "1/0", "2/-3", "x"):
        with pytest.raises(ContractError):
            load_matrix_text(f"1 1\n{body}\n")
    with pytest.raises(ShapeMismatchError):
        Matrix(2, 2, [1, 2, 3])
