import math
import re
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liepq.errors import ContractError, ShapeMismatchError
from liepq.exact_linalg import (
    Matrix,
    kron,
    mat_vec,
    NO_SOLUTION,
    Rational,
    Subspace,
    ZERO,
    Echelon,
    _integer_list,
    _integer_rows,
    _accumulated,
    _intertwining_defect,
    _reduced,
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

from conftest import (
    column,
    column_list,
    contains,
    dense_congruence_diagonalize,
    dense_kernel,
    dense_rref,
    dense_solve,
    frozen,
    gaussian_inertia,
    over_common_den,
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
    assert contains(ker, [1, -1])


def test_solve_identity():
    sol, ker = solve_linear(Matrix.identity(2), column([1, 0]))
    assert column_list(sol, 0) == [rat(1), rat(0)]
    assert ker.dim == 0


def test_solve_underdetermined():
    sol, ker = solve_linear(Matrix.from_rows([[1, 1]]), column([1]))
    assert sol is not NO_SOLUTION
    assert sol[0, 0] + sol[1, 0] == 1
    assert ker.dim == 1 and contains(ker, [1, -1])


def test_solve_inconsistent_is_a_value():
    sol, ker = solve_linear(Matrix.from_rows([[1], [1]]), column([1, 2]))
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
    x = column([rat(v) for v in xs])
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
    entries = {}
    idx = 0
    for i in range(3):
        for j in range(i, 3):
            entries[(i, j)] = entries[(j, i)] = rat(upper[idx])
            idx += 1
    b = Matrix.from_sparse(3, 3, entries)
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
    assert contains(s, [2, 0, 2])
    assert not contains(s, [1, 0, 0])
    assert s.complement_coordinate_indices() == [1, 2]


def test_subspace_from_matrices_flattens_row_major():
    m = Matrix.from_rows([[1, "1/2"], [0, -3]])
    square = Subspace.from_vectors(4, [m, Matrix.identity(2)])
    assert square == Subspace.from_vectors(4, [[1, rat("1/2"), 0, -3], [1, 0, 0, 1]])
    assert square.reduce(m) is not None
    assert Subspace.from_vectors(4, square.basis_matrices(2, 2)) == square


def test_subspace_from_a_matrix_of_the_wrong_size_is_refused():
    with pytest.raises(ShapeMismatchError):
        Subspace.from_vectors(4, [Matrix.identity(3)])
    with pytest.raises(ShapeMismatchError):
        Subspace.from_vectors(4, [column([1, 2, 3])])


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


def assert_integer_canonical(m):
    """m's stored form is the canonical one every kernel must build: each
    stored value a nonzero Python int, no empty row, den an int >= 1, and
    gcd(den, entries) = 1 (an mpz entry or an unreduced den would still
    compare equal to the same matrix built densely)."""
    assert type(m.den) is int and m.den >= 1
    g = m.den
    for row in m._data.values():
        assert row
        for x in row.values():
            assert type(x) is int and x
            g = math.gcd(g, x)
    assert g == 1


def assert_exact_entries(result, expected):
    assert result.entries == expected
    assert all(type(x) is Rational for x in result.entries)
    assert_integer_canonical(result)


@given(sparse_operands(), st.integers(-12, 12))
@settings(max_examples=80)
def test_zero_skipping_ops_match_dense_formulas(operands, k_int):
    a, a2, b, k = operands
    n, m, cols = a.rows, a.cols, b.cols
    dense_product = [
        sum((a[i, j] * b[j, l] for j in range(m)), ZERO)
        for i in range(n)
        for l in range(cols)
    ]
    assert_exact_entries(mat_mul(a, b), dense_product)
    zero = Matrix.zeros(n, m)
    for x, y in ((a, a2), (a, zero), (zero, a), (zero, zero)):
        for result, expected in (
            (x + y, [s + t for s, t in zip(x.entries, y.entries)]),
            (x - y, [s - t for s, t in zip(x.entries, y.entries)]),
        ):
            assert_exact_entries(result, expected)
            assert result == Matrix(n, m, expected)  # canonical: same den and rows
    for scalar in (k, k_int, "-9/4", Fraction(2, 3), 0, 1, -1):
        expected = [Fraction(scalar) * x for x in a.entries]
        assert_exact_entries(a.scale(scalar), expected)
        assert a.scale(scalar) == Matrix(n, m, expected)


@given(sparse_operands())
@settings(max_examples=60)
def test_ops_on_frozen_operands_match_dense_formulas(operands):
    """Results may be operands and share rows with them, which is safe
    because no operation writes a stored row: every operation runs on
    operands whose row maps and rows refuse writes."""
    a, a2, b = (frozen(m) for m in operands[:3])
    k = operands[3]
    n, m = a.rows, a.cols
    operands_before = [x.entries for x in (a, a2, b)]
    zero = frozen(Matrix.zeros(n, m))
    ea, ea2 = a.entries, a2.entries
    for result, expected in (
        (a + a2, [s + t for s, t in zip(ea, ea2)]),
        (a - a2, [s - t for s, t in zip(ea, ea2)]),
        (a + a, [s + s for s in ea]),
        (a - a, [ZERO] * (n * m)),
        (a + zero, ea),
        (zero + a, ea),
        (a - zero, ea),
        (zero - a, [-s for s in ea]),
        (-a, [-s for s in ea]),
        (a.scale(k), [k * s for s in ea]),
        (a.scale(1), ea),
        (a.scale(-1), [-s for s in ea]),
        (a.scale(3), [3 * s for s in ea]),
        (a.transpose(), [a[i, j] for j in range(m) for i in range(n)]),
        (mat_mul(a, b), [sum((a[i, j] * b[j, l] for j in range(m)), ZERO)
                         for i in range(n) for l in range(b.cols)]),
        (kron(a, b), [a[i, j] * b[r, l] for i in range(n) for r in range(b.rows)
                      for j in range(m) for l in range(b.cols)]),
    ):
        assert_exact_entries(result, expected)
        assert result == Matrix(result.rows, result.cols, expected)
    assert a + zero is a and a - zero is a and a.scale(1) is a
    assert zero + a is (a if a._data else zero)  # 0 + 0 is its left operand
    assert [x.entries for x in (a, a2, b)] == operands_before


def test_rat_token_grammar():
    assert rat("-3/4") == Rational(-3, 4)
    assert rat(" +6/04 ") == Rational(3, 2)
    # the last four carry Arabic-Indic, fullwidth or Devanagari digits
    for token in ("1/-2", "1/+2", "1/0", "-5/00", "1/", "/2", "1.5", "1e3", "1_000",
                  "\u0661\u0662", "\uff11", "1/\u0662", "-\u0967"):
        with pytest.raises(ContractError):
            rat(token)


def test_public_constructors_still_validate_entries():
    for bad in (0.5, "1/0", "2/-3", "x"):
        with pytest.raises(ContractError):
            Matrix(1, 1, [bad])
        with pytest.raises(ContractError):
            Matrix.from_rows([[bad]])
        with pytest.raises(ContractError):
            column([bad])
        with pytest.raises(ContractError):
            Matrix.diagonal([bad])
    for body in ("0.5", "1/0", "2/-3", "x"):
        with pytest.raises(ContractError):
            load_matrix_text(f"1 1\n{body}\n")
    with pytest.raises(ShapeMismatchError):
        Matrix(2, 2, [1, 2, 3])


@pytest.mark.parametrize("header", ["x y", "1_0 1", "\u0663 1", "-1 2", "1 +1", "1 2/1"])
def test_matrix_text_header_needs_two_ascii_digit_strings(header):
    """The header is refused as the integer flags are: int() alone raises a
    bare ValueError on "x y", reads "1_0" and Arabic-Indic digits, and takes
    "-1 2" to a body of -2 entries."""
    with pytest.raises(ContractError, match="header"):
        load_matrix_text(f"{header}\n1 2\n")
    assert load_matrix_text("01 2\n1 2\n") == Matrix(1, 2, [1, 2])


# -- the sparse echelon against the dense Fraction oracle -------------------

integer_entries = st.one_of(st.just(0), st.integers(-4, 4))
rational_entries = st.one_of(
    st.just(0),
    st.integers(-4, 4),
    st.builds(lambda n, d: rat(f"{n}/{d}"), st.integers(-5, 5), st.integers(1, 4)),
)


@st.composite
def matrices(draw, rows=None, cols=None):
    """Integer or rational matrices of 0 to 5 rows and columns, some rows and
    columns forced to zero."""
    n = draw(st.integers(0, 5)) if rows is None else rows
    m = draw(st.integers(0, 5)) if cols is None else cols
    entry = draw(st.sampled_from([integer_entries, rational_entries]))
    entries = draw(st.lists(entry, min_size=n * m, max_size=n * m))
    zero_rows = draw(st.sets(st.integers(0, 4), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, 4), max_size=2))
    return Matrix(n, m, [
        0 if i in zero_rows or j in zero_cols else entries[i * m + j]
        for i in range(n)
        for j in range(m)
    ])


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_rref_and_kernel_match_dense_oracle(a):
    rows = a.to_rows()
    before = [list(r) for r in rows]
    assert rref(rows) == dense_rref(rows)
    assert rows == before
    assert kernel(a).basis_rows() == dense_kernel(rows, a.cols)


@given(matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_solve_linear_matches_dense_oracle(a, data):
    k = data.draw(st.integers(0, 3))
    consistent = mat_mul(a, data.draw(matrices(rows=a.cols, cols=k)))
    other = data.draw(matrices(rows=a.rows, cols=k))
    for b in (consistent, other):
        sol, ker = solve_linear(a, b)
        expected = dense_solve(a.to_rows(), b.to_rows(), a.cols, k)
        if expected is None:
            assert sol is NO_SOLUTION
        else:
            assert sol.to_rows() == expected
            assert mat_mul(a, sol) == b
        assert ker.basis_rows() == dense_kernel(a.to_rows(), a.cols)
    assert solve_linear(a, consistent)[0] is not NO_SOLUTION


@given(matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_subspace_reduce_matches_dense_oracle(a, data):
    n = a.cols
    sub = Subspace.from_vectors(n, a.to_rows())
    basis, pivots = dense_rref(a.to_rows())
    assert sub.basis_rows() == basis
    assert sub.pivot_columns() == pivots
    columns = [[row[i] for row in basis] for i in range(n)]  # basis as columns
    weights = data.draw(st.lists(rational_entries, min_size=len(basis), max_size=len(basis)))
    inside = [sum((rat(w) * row[i] for w, row in zip(weights, basis)), ZERO) for i in range(n)]
    outside = data.draw(st.lists(rational_entries, min_size=n, max_size=n))
    for v in (inside, outside):
        expected = dense_solve(columns, [[x] for x in v], len(basis), 1)
        got = sub.reduce(v)
        assert got == (None if expected is None else [c[0] for c in expected])
        assert contains(sub, v) == (expected is not None)
    assert sub.reduce(inside) == [rat(w) for w in weights]


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(0, 5))
    entry = draw(st.sampled_from([integer_entries, rational_entries]))
    upper = draw(st.lists(entry, min_size=n * n, max_size=n * n))
    zero = draw(st.sets(st.integers(0, 4), max_size=2))
    return Matrix(n, n, [
        0 if i in zero or j in zero else upper[min(i, j) * n + max(i, j)]
        for i in range(n)
        for j in range(n)
    ])


@given(symmetric_matrices())
@settings(max_examples=150, deadline=None)
def test_inertia_matches_gaussian_oracle(b):
    assert inertia_of_diagonalizable_form(b) == gaussian_inertia(b.to_rows())


@st.composite
def congruence_inputs(draw):
    """Symmetric rational matrices up to 7 x 7; some with a zero diagonal,
    which takes the shear branch, and some singular, index n - 1 a copy of
    index 0."""
    n = draw(st.integers(0, 7))
    upper = draw(st.lists(rational_entries, min_size=n * n, max_size=n * n))
    rows = [[upper[min(i, j) * n + max(i, j)] for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            rows[i][i] = 0
    if n >= 2 and draw(st.booleans()):
        rows[n - 1] = list(rows[0])
        for row in rows:
            row[n - 1] = row[0]
    return Matrix.from_rows(rows)


@given(congruence_inputs())
@example(Matrix.zeros(0, 0))
@example(Matrix.from_rows([[0, 1, 0], [1, 0, 2], [0, 2, 0]]))
@example(Matrix.from_rows([[0, 0, 3], [0, 0, 0], [3, 0, 0]]))
@example(Matrix.from_rows([[1, 2, 1], [2, 4, 2], [1, 2, 1]]))
@example(Matrix.diagonal([rat(2), rat(-1), rat("1/3")]))  # nondegenerate: P = I at once
@example(Matrix.diagonal([rat(0), rat(1), rat(0), rat(-2)]))  # a zero entry: swaps
@settings(max_examples=200, deadline=None)
def test_congruence_diagonalize_matches_dense_oracle(b):
    """The congruence returns the dense routine's P and diagonal, entry for
    entry, and P^t.b.P is that diagonal."""
    p, diag = congruence_diagonalize(b)
    expected_p, expected_diag = dense_congruence_diagonalize(b)
    assert p == expected_p
    assert diag == expected_diag and all(type(d) is Rational for d in diag)
    assert mat_mul(mat_mul(p.transpose(), b), p) == Matrix.diagonal(diag)


def test_echelon_copy_leaves_the_original_unchanged():
    ech = Echelon(3)
    ech.insert({0: 1, 1: 2})
    snapshot = ech.dense_rows()
    grown = ech.copy()
    # the new pivot 1 back-reduces the stored row {0: 1, 1: 2} of the copy
    assert grown.insert({1: 1, 2: 1})
    assert grown.dense_rows() == [[1, 0, -2], [0, 1, 1]]
    assert ech.dense_rows() == snapshot and ech.dim == 1


# -- sparse-row Matrix storage against a dense list-of-lists oracle ---------


def dense(m):
    """A Matrix as a list of Fraction rows, read entry by entry."""
    return [[Fraction(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]


def dense_product(a, b, inner, cols):
    return [[sum((ra[j] * b[j][l] for j in range(inner)), Fraction(0)) for l in range(cols)]
            for ra in a]


def dense_kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def flat(rows):
    return [x for r in rows for x in r]


shape = st.integers(0, 4)
with_denominators = st.builds(
    lambda n, d: rat(f"{n}/{d}"), st.integers(-5, 5), st.integers(1, 6)
)
mostly_zero = st.one_of(st.just(0), st.just(0), st.just(0), with_denominators)


@st.composite
def sized_matrix(draw, rows, cols):
    entries = draw(st.lists(mostly_zero, min_size=rows * cols, max_size=rows * cols))
    return Matrix(rows, cols, entries)


@st.composite
def matrix_operands(draw):
    """a and a2 of one shape, b with as many rows as a has columns (or a
    itself, when square), a scalar that is zero or +-1 a quarter of the time
    each; some dimension may be 0."""
    n, m, k = draw(shape), draw(shape), draw(shape)
    a = draw(sized_matrix(n, m))
    # a2 is unrelated, -a (so a + a2 cancels), a with one entry changed, a
    # itself, zero, or free rows that meet a's nonzero rows in none or one
    kind = draw(st.sampled_from(["free", "negated", "near", "alias", "zero", "disjoint", "overlap"]))
    if kind == "free":
        a2 = draw(sized_matrix(n, m))
    elif kind == "negated":
        a2 = Matrix(n, m, [-x for x in a.entries])
    elif kind == "near":
        entries = a.entries
        if entries:
            entries[draw(st.integers(0, len(entries) - 1))] += 1
        a2 = Matrix(n, m, entries)
    elif kind == "alias":
        a2 = a
    elif kind == "zero":
        a2 = Matrix.zeros(n, m)
    else:
        free = draw(sized_matrix(n, m))
        support = [i for i in range(n) if any(a.row_list(i))]
        keep = set(range(n)) - set(support)
        if kind == "overlap" and support:
            keep.add(draw(st.sampled_from(support)))
        a2 = Matrix.from_sparse(n, m, {(i, j): x for i in keep for j, x in free.sparse_row(i).items()})
    b = a if n == m and draw(st.booleans()) else draw(sized_matrix(m, k))
    scalar = draw(st.one_of(st.just(0), st.sampled_from([1, -1]), with_denominators))
    return a, a2, b, scalar


def assert_matches(result, rows, cols, expected):
    assert (result.rows, result.cols) == (rows, cols)
    assert dense(result) == expected
    assert result.entries == flat(expected)
    assert all(type(x) is Rational for x in result.entries)
    assert result.is_zero() == (not any(flat(expected)))
    # a stored zero would break == against the same matrix built densely
    assert result == Matrix(rows, cols, flat(expected))
    assert hash(result) == hash(Matrix(rows, cols, flat(expected)))
    assert_integer_canonical(result)


@given(matrix_operands())
@settings(max_examples=200, deadline=None)
def test_matrix_ops_match_dense_oracle(operands):
    a, a2, b, k = operands
    n, m = a.rows, a.cols
    da, da2, db = dense(a), dense(a2), dense(b)
    assert_matches(mat_mul(a, b), n, b.cols, dense_product(da, db, m, b.cols))
    assert_matches(a @ b, n, b.cols, dense_product(da, db, m, b.cols))
    assert_matches(a + a2, n, m, [[x + y for x, y in zip(r, r2)] for r, r2 in zip(da, da2)])
    assert_matches(a - a2, n, m, [[x - y for x, y in zip(r, r2)] for r, r2 in zip(da, da2)])
    assert_matches(a - a, n, m, [[Fraction(0)] * m for _ in range(n)])
    assert_matches(a + a, n, m, [[2 * x for x in r] for r in da])
    zero = Matrix.zeros(n, m)
    assert_matches(a + zero, n, m, da)
    assert_matches(a - zero, n, m, da)
    assert_matches(zero + a, n, m, da)
    assert_matches(zero - a, n, m, [[-x for x in r] for r in da])
    assert_matches(a.scale(k), n, m, [[Fraction(k) * x for x in r] for r in da])
    assert_matches(a.scale(1), n, m, da)
    assert_matches(a.scale(-1), n, m, [[-x for x in r] for r in da])
    assert_matches(a.scale(0), n, m, [[Fraction(0)] * m for _ in range(n)])
    for scalar in (6, "-5/6", Fraction(3, 4)):
        assert_matches(a.scale(scalar), n, m, [[Fraction(scalar) * x for x in r] for r in da])
    assert_matches(-a, n, m, [[-x for x in r] for r in da])
    assert_matches(a.transpose(), m, n, [[da[i][j] for i in range(n)] for j in range(m)])
    assert_matches(kron(a, b), n * b.rows, m * b.cols, dense_kron(da, db))
    if n:  # from_rows reads the width off the first row
        assert_matches(Matrix.from_rows(a.to_rows()), n, m, da)
    assert_matches(Matrix.from_sparse(n, m, {(i, j): x for i, r in enumerate(da)
                                             for j, x in enumerate(r)}), n, m, da)
    # reads
    assert a.to_rows() == da
    assert [a.row_list(i) for i in range(n)] == da
    assert [a.sparse_row(i) for i in range(n)] == [{j: x for j, x in enumerate(r) if x} for r in da]
    assert {k: Fraction(x, a.den) for k, x in a._flat().items()} == {
        i * m + j: x for i, r in enumerate(da) for j, x in enumerate(r) if x
    }
    v = [Fraction(j + 1, 2) if j % 2 else Fraction(0) for j in range(m)]
    assert mat_vec(a, v) == [sum((x * y for x, y in zip(r, v)), Fraction(0)) for r in da]
    # equality and hashing follow the entries, whatever built the matrix
    assert (a == a2) == (da == da2)
    if a == a2:
        assert hash(a) == hash(a2)
    assert (a + a2 == a2 + a) and hash(a + a2) == hash(a2 + a)
    if n == m:
        assert a.trace() == sum((da[i][i] for i in range(n)), Fraction(0))
        assert a.is_symmetric() == all(da[i][j] == da[j][i] for i in range(n) for j in range(n))
        assert (a + a.transpose()).is_symmetric()
    else:
        assert not a.is_symmetric()
        with pytest.raises(ShapeMismatchError):
            a.trace()


@st.composite
def defect_operands(draw):
    """a (r x r), p (r x s) and b (s x s) with mixed denominators; p is
    non-square whenever r != s, any operand may be zero, and b may be a
    itself (the commutator [a, p])."""
    r, s = draw(shape), draw(shape)
    a = draw(st.one_of(st.just(Matrix.zeros(r, r)), sized_matrix(r, r)))
    p = draw(st.one_of(st.just(Matrix.zeros(r, s)), sized_matrix(r, s)))
    if r == s and draw(st.booleans()):
        b = a
    else:
        b = draw(st.one_of(st.just(Matrix.zeros(s, s)), sized_matrix(s, s)))
    return a, p, b


@given(defect_operands())
@settings(max_examples=200, deadline=None)
def test_intertwining_defect_matches_the_product_difference(operands):
    a, p, b = operands
    vec, den = _intertwining_defect(a, p, b)
    expected = mat_mul(a, p) - mat_mul(p, b)
    assert den == a.den * p.den * b.den
    assert all(type(x) is int and x for x in vec.values())
    assert {k: Fraction(x, den) for k, x in vec.items()} == {
        k: Fraction(x, expected.den) for k, x in expected._flat().items()
    }


def test_intertwining_defect_rejects_bad_shapes():
    sq2, sq3, p23 = Matrix.identity(2), Matrix.identity(3), Matrix.zeros(2, 3)
    assert _intertwining_defect(sq2, p23, sq3) == ({}, 1)
    for a, p, b in ((sq3, p23, sq3), (sq2, p23, sq2), (p23, p23, sq3),
                    (sq2, p23, Matrix.zeros(3, 2)), (sq2, p23.transpose(), sq3)):
        with pytest.raises(ShapeMismatchError):
            _intertwining_defect(a, p, b)


def test_matrix_named_constructors_match_dense_oracle():
    half = rat("1/2")
    assert dense(Matrix.zeros(2, 3)) == [[0, 0, 0], [0, 0, 0]]
    assert dense(Matrix.identity(3)) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert dense(Matrix.diagonal([half, 0, -3])) == [[half, 0, 0], [0, 0, 0], [0, 0, -3]]
    assert dense(column([0, half])) == [[0], [half]]
    assert Matrix.identity(0) == Matrix.zeros(0, 0) == Matrix.from_rows([])
    assert Matrix.zeros(0, 3) != Matrix.zeros(3, 0)
    assert Matrix.zeros(0, 3).entries == [] and Matrix.zeros(2, 0).to_rows() == [[], []]
    # a product whose every term cancels stores nothing
    prod = Matrix.from_rows([[1, 1], [half, half]]) @ Matrix.from_rows([[1], [-1]])
    assert prod.is_zero() and prod == Matrix.zeros(2, 1)
    assert hash(prod) == hash(Matrix.zeros(2, 1))
    assert Matrix.from_sparse(2, 2, {(0, 1): 0, (1, 0): "3/4"}) == Matrix.from_rows([[0, 0], ["3/4", 0]])


def test_matrix_rejects_negative_shapes_and_bad_indices():
    for rows, cols in ((-1, 3), (3, -1), (-1, -1)):
        with pytest.raises(ShapeMismatchError):
            Matrix.zeros(rows, cols)
        with pytest.raises(ShapeMismatchError):
            Matrix.from_sparse(rows, cols, {})
    with pytest.raises(ShapeMismatchError):
        Matrix(-1, -3, [0, 0, 0])
    with pytest.raises(ShapeMismatchError):
        Matrix(-2, 0, [])
    with pytest.raises(ShapeMismatchError):
        Matrix.identity(-1)
    with pytest.raises(ShapeMismatchError):
        Matrix.from_sparse(2, 2, {(2, 0): 1})
    m = Matrix.identity(2)
    for ij in ((2, 0), (0, 2), (-1, 0)):
        with pytest.raises(IndexError):
            m[ij]


def test_entries_is_a_fresh_read_only_copy():
    m = Matrix.from_rows([[1, 0], [0, 2]])
    m.entries[0] = rat(5)
    assert m == Matrix.from_rows([[1, 0], [0, 2]])
    with pytest.raises(AttributeError):
        m.entries = [0, 0, 0, 0]


# `.entries` is a fresh list on every access, so an in-place write to it is
# silently lost: none may appear in the library
ENTRIES_WRITE = re.compile(r"\.entries\s*\[[^\]]*\]\s*[-+]?=(?!=)")


def test_no_in_place_entries_writes_in_the_library():
    src = Path(__file__).resolve().parent.parent / "src" / "liepq"
    hits = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(src.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if ENTRIES_WRITE.search(line)
    ]
    assert hits == []
    for line in ("m.entries[i * n + j] = ONE", "acc.entries[k] += c", "x.entries[0]  -= y",
                 "m.entries[:] = []"):
        assert ENTRIES_WRITE.search(line)
    assert not ENTRIES_WRITE.search("if m.entries[0] == x:")


# -- the rational-to-integer intake -----------------------------------------


def sparse_list_oracle(values):
    """A list of values as a sparse {index: value} vector, through `rat()`:
    the sparse step the dense-list intake used to take before
    `over_common_den`."""
    out = {}
    for j, x in enumerate(values):
        x = rat(x)
        if x:
            out[j] = x
    return out


mixed_values = st.one_of(
    st.just(ZERO),
    st.just(0),
    st.just(Fraction(0)),
    st.integers(-30, 30),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
    st.builds(lambda n, d: f"{n}/{d}", st.integers(-30, 30), st.integers(1, 12)),
)


@given(st.lists(mixed_values, max_size=12))
@settings(max_examples=200, deadline=None)
def test_integer_list_matches_the_sparse_list_composition(values):
    ints, den = _integer_list(values)
    assert (ints, den) == over_common_den(sparse_list_oracle(values))
    assert type(den) is int and den == math.lcm(1, *(rat(x).denominator for x in values))
    assert all(type(x) is int and x for x in ints.values())
    assert {j: Fraction(x, den) for j, x in ints.items()} == {
        j: Fraction(rat(x)) for j, x in enumerate(values) if rat(x)
    }


def test_dense_intake_refuses_floats():
    """A float entry of a dense list is refused as rat() refuses it, also
    where the list is a coefficient vector (the same holds for
    `LieAlgebra.ad_matrix`, in test_lie_core.py)."""
    m = Matrix.identity(2)
    for values in ([0.5, 0], [1, 2.0]):
        with pytest.raises(ContractError):
            mat_vec(m, values)
        with pytest.raises(ContractError):
            _integer_list(values)
    assert mat_vec(m, ["1/2", 3]) == [Fraction(1, 2), 3]


# -- hot kernels run in one frame ---------------------------------------------

# the kernels the module docstring holds to plain loops: on Python 3.11 a
# comprehension or generator expression inside one runs in a frame of its own
HOT_KERNELS = (
    mat_mul, Matrix._combine, Matrix.scale, Matrix.transpose, _reduced, _integer_rows,
    _accumulated, _integer_list, Echelon.reduce, Echelon.insert,
)
COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def nested_code_names(code):
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield const.co_name
            yield from nested_code_names(const)


def test_hot_kernels_hold_no_comprehension():
    found = {
        fn.__qualname__: sorted(set(nested_code_names(fn.__code__)) & COMPREHENSIONS)
        for fn in HOT_KERNELS
    }
    assert {name: names for name, names in found.items() if names} == {}
    assert Matrix.__add__ is Matrix._combine
    # the walk does see a comprehension where one is
    assert set(nested_code_names(Matrix.__hash__.__code__)) & COMPREHENSIONS
