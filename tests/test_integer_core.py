"""The integer core against dense `Fraction` oracles.

`Matrix` stores integer rows over one canonical denominator and `Echelon`
primitive integer rows; `min_poly`, `rational_roots` and the Killing form
run on integers too.  Every oracle here works on plain `fractions.Fraction`
lists and dicts, written out in the obvious way and sharing no code with
the library's integer paths.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liepq.errors import ContractError
from liepq.exact_linalg import (
    Echelon,
    Matrix,
    NO_SOLUTION,
    Rational,
    Subspace,
    _accumulated,
    _combine_maps,
    invert,
    kernel,
    kron,
    mat_mul,
    mat_vec,
    proportionality,
    rat,
    rref,
    solve_linear,
)
from liepq.lie_core import LieAlgebra, _Coordinatizer
from liepq.ratpoly import (
    min_poly,
    poly_eval,
    poly_divmod,
    poly_eval_matrix,
    poly_gcd,
    poly_monic,
    poly_mul,
    poly_trim,
    rational_roots,
)
from liepq.so_pq import deformed_algebra, so_pq_algebra

from conftest import column, dense_express, dense_kernel, dense_ratio, dense_rref, dense_solve, frozen

# -- strategies ---------------------------------------------------------------

# each matrix draws its entries over one denominator, so that two operands
# usually have different ones and sums take the lcm path
denominators = st.sampled_from([1, 2, 3, 4, 6, 9, 10])


@st.composite
def over_den(draw, rows, cols, zero_weight=2):
    den = draw(denominators)
    entry = st.one_of(*[st.just(0)] * zero_weight, st.integers(-9, 9))
    nums = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
    return Matrix(rows, cols, [Fraction(x, den) for x in nums])


@st.composite
def one_entry_rows(draw, rows, cols):
    """A rows x cols matrix whose every row holds one nonzero, drawn over a
    denominator other than 1 (an empty matrix when cols is 0)."""
    if not cols:
        return Matrix.zeros(rows, cols)
    den = draw(st.sampled_from([2, 3, 4, 6, 9, 10]))
    entries = {}
    for i in range(rows):
        j = draw(st.integers(0, cols - 1))
        entries[(i, j)] = Fraction(draw(st.integers(-9, 9).filter(bool)), den)
    return Matrix.from_sparse(rows, cols, entries)


def vanishing_right_factor(a, b):
    """b with every row that a's columns reach set to zero, so that the
    product a.b has no nonzero to accumulate."""
    reached = {j for i in range(a.rows) for j in a.sparse_row(i)}
    return Matrix.from_sparse(b.rows, b.cols, {
        (i, j): x for i in range(b.rows) if i not in reached for j, x in b.sparse_row(i).items()
    })


def dense(m):
    return [[Fraction(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]


def flat(rows):
    return [x for r in rows for x in r]


def assert_canonical(m, expected_rows):
    """m holds exactly expected_rows, in the canonical integer form."""
    assert dense(m) == expected_rows
    values = [x for x in flat(expected_rows) if x]
    assert m.den == lcm(1, *(x.denominator for x in values))
    stored = [x for row in m._data.values() for x in row.values()]
    assert all(type(x) is int and x for x in stored)
    assert all(row for row in m._data.values())
    assert gcd(m.den, *stored) == 1
    assert all(type(x) is Rational for x in m.entries)
    twin = Matrix(m.rows, m.cols, flat(expected_rows))
    assert m == twin and m.den == twin.den and hash(m) == hash(twin)


# -- Matrix ------------------------------------------------------------------


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_matrix_ops_on_mixed_denominators_match_fraction_oracle(data):
    n, m, k = (data.draw(st.integers(0, 4)) for _ in range(3))
    a = data.draw(over_den(n, m))
    a2 = data.draw(st.one_of(over_den(n, m), st.just(-a), st.just(a.scale(Fraction(1, 2)))))
    b = data.draw(over_den(m, k))
    e = data.draw(one_entry_rows(n, m))
    f = data.draw(one_entry_rows(m, k))
    scalar = data.draw(st.one_of(
        st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
        st.builds(Fraction, st.integers(-7, 7), st.integers(1, 8)),
    ))
    int_scalar = data.draw(st.integers(-7, 7))
    vanishing = vanishing_right_factor(e, b)
    # results may be operands and share rows with them: that is safe
    # because no operation writes a stored row, so the operands' rows and
    # row maps refuse writes here
    a, a2, b, e, f = frozen(a), frozen(a2), frozen(b), frozen(e), frozen(f)
    da, da2, db, de, df = dense(a), dense(a2), dense(b), dense(e), dense(f)
    zero = frozen(Matrix.zeros(n, m))

    def product(x, y):
        return [[sum((rx[j] * y[j][l] for j in range(m)), Fraction(0)) for l in range(k)]
                for rx in x]

    ops = [
        (mat_mul(a, b), product(da, db)),
        (mat_mul(e, b), product(de, db)),
        (mat_mul(e, f), product(de, df)),
        (mat_mul(a, f), product(da, df)),
        (mat_mul(e, vanishing), [[Fraction(0)] * k for _ in range(n)]),
        (a + a2, [[x + y for x, y in zip(r, r2)] for r, r2 in zip(da, da2)]),
        (a - a2, [[x - y for x, y in zip(r, r2)] for r, r2 in zip(da, da2)]),
        (a - a, [[Fraction(0)] * m for _ in range(n)]),
        (a + zero, da),
        (zero - a, [[-x for x in r] for r in da]),
        (a.scale(scalar), [[scalar * x for x in r] for r in da]),
        (a.scale(int_scalar), [[int_scalar * x for x in r] for r in da]),
        (e.scale(int_scalar), [[int_scalar * x for x in r] for r in de]),
        (a.scale(True), da),
        (a.scale(Fraction(3)), [[3 * x for x in r] for r in da]),
        (a.scale(-1), [[-x for x in r] for r in da]),
        (a.scale(1), da),
        (a.scale(0), [[Fraction(0)] * m for _ in range(n)]),
        (-a, [[-x for x in r] for r in da]),
        (-e, [[-x for x in r] for r in de]),
        (a.transpose(), [[da[i][j] for i in range(n)] for j in range(m)]),
        (kron(a, b), [[x * y for x in ra for y in rb] for ra in da for rb in db]),
    ]
    for result, expected in ops:
        assert_canonical(result, expected)
    assert [dense(a), dense(a2), dense(b), dense(e), dense(f)] == [da, da2, db, de, df]
    assert a + zero is a and a - zero is a and a.scale(1) is a
    assert zero + a is (a if a._data else zero)  # 0 + 0 is its left operand
    v = [Fraction(j - 1, j + 2) for j in range(m)]
    assert mat_vec(a, v) == [sum((x * y for x, y in zip(r, v)), Fraction(0)) for r in da]
    if n == m:
        assert a.trace() == sum((da[i][i] for i in range(n)), Fraction(0))


@given(over_den(3, 3), over_den(3, 3))
@settings(max_examples=100, deadline=None)
def test_equal_matrices_share_den_and_hash_whatever_built_them(a, b):
    rows = dense(a)
    builds = [
        Matrix.from_rows(rows),
        Matrix.from_sparse(3, 3, {(i, j): x for i, r in enumerate(rows) for j, x in enumerate(r)}),
        a + Matrix.zeros(3, 3),
        (a + b) - b,
        a.scale(Fraction(3, 7)).scale(Fraction(7, 3)),
        a.transpose().transpose(),
        mat_mul(a, Matrix.identity(3)),
        -(-a),
    ]
    for m in builds:
        assert m == a and m.den == a.den and m._data == a._data and hash(m) == hash(a)


def test_cancellation_to_zero_resets_the_denominator():
    half = Matrix.from_rows([[Fraction(1, 2), Fraction(1, 3)]])
    zero = half - half
    assert zero.is_zero() and zero.den == 1 and zero == Matrix.zeros(1, 2)
    # 1/6 + 5/6 = 1: the sum comes back over den 1
    total = Matrix.from_rows([[Fraction(1, 6)]]) + Matrix.from_rows([[Fraction(5, 6)]])
    assert total.den == 1 and total._data == {0: {0: 1}}
    assert Matrix.from_rows([[2]]).scale(Fraction(1, 2)).den == 1
    # products over den 6 with nothing to accumulate, and with a sum that cancels
    left = Matrix.from_rows([[Fraction(1, 2), Fraction(1, 2)], [0, 0]])
    for right in ([[0], [0]], [[Fraction(1, 3)], [Fraction(-1, 3)]]):
        product = mat_mul(left, Matrix.from_rows(right))
        assert product == Matrix.zeros(2, 1) and product.den == 1


@given(over_den(2, 3, zero_weight=1), st.data())
@settings(max_examples=150, deadline=None)
def test_proportionality_matches_dense_ratios(b, data):
    """a = r.b, sometimes with one entry shifted, against the set of entry
    ratios: the exact r when there is one, None otherwise."""
    r = data.draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(-3, 2), Fraction(7, 4)]))
    a = b.scale(r)
    if data.draw(st.booleans()):
        i, j = data.draw(st.integers(0, 1)), data.draw(st.integers(0, 2))
        a = a + Matrix.from_sparse(2, 3, {(i, j): data.draw(st.integers(-2, 2))})
    assert proportionality(a, b) == dense_ratio(a, b)
    assert proportionality(a, Matrix.zeros(2, 4)) is None


# -- Echelon, kernels, solves, inverses --------------------------------------


@st.composite
def rational_rows(draw, rows=None, cols=None):
    n = draw(st.integers(0, 5)) if rows is None else rows
    m = draw(st.integers(1, 5)) if cols is None else cols
    return draw(over_den(n, m, zero_weight=3))


def dense_inverse(rows):
    n = len(rows)
    reduced, pivots = dense_rref([r + [Fraction(int(i == j)) for j in range(n)]
                                  for i, r in enumerate(rows)])
    if any(p >= n for p in pivots):  # [a | I] has rank n; a is singular
        return None
    return [r[n:] for r in reduced]


def scaled_to_ints(values):
    """(ints, den): the nonzeros of a rational list as an integer vector
    {index: int} over the lcm den of their denominators."""
    den = lcm(1, *(Fraction(x).denominator for x in values))
    return {j: int(x * den) for j, x in enumerate(values) if x}, den


@given(rational_rows())
@settings(max_examples=150, deadline=None)
def test_echelon_rows_are_primitive_and_match_the_oracle(a):
    rows = dense(a)
    reduced, pivots = dense_rref(rows)
    assert rref(rows) == (reduced, pivots)
    assert kernel(a).basis_rows() == dense_kernel(rows, a.cols)
    ech = Echelon(a.cols)
    for r in rows:
        ech.insert(scaled_to_ints(r)[0])
    assert ech.pivots() == pivots
    assert {p: {j: Fraction(x, row[p]) for j, x in row.items()} for p, row in ech._rows.items()} == {
        p: {j: x for j, x in enumerate(r) if x} for p, r in zip(pivots, reduced)
    }
    for p, row in ech._rows.items():
        assert all(type(x) is int and x for x in row.values())
        assert row[p] > 0 and min(row) == p and gcd(*row.values()) == 1
        assert not any(q in row for q in ech._rows if q != p)


@given(rational_rows(), st.data())
@settings(max_examples=150, deadline=None)
def test_echelon_reduce_is_exact(a, data):
    rows = dense(a)
    reduced, pivots = dense_rref(rows)
    ech = Echelon(a.cols)
    for r in rows:
        ech.insert(scaled_to_ints(r)[0])
    vec = data.draw(st.lists(st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6)),
                             min_size=a.cols, max_size=a.cols))
    expected = list(vec)
    for p, r in zip(pivots, reduced):
        f = vec[p]
        expected = [x - f * y for x, y in zip(expected, r)]
    ints, den = scaled_to_ints(vec)
    out, scale = ech.reduce(ints)
    assert type(scale) is int and scale > 0
    assert all(type(x) is int and x for x in out.values())
    assert {j: Fraction(x, scale * den) for j, x in out.items()} == {
        j: x for j, x in enumerate(expected) if x
    }
    assert ints == scaled_to_ints(vec)[0]  # the argument is left unchanged


@given(rational_rows(), st.data())
@settings(max_examples=150, deadline=None)
def test_solve_linear_on_mixed_denominators_matches_the_oracle(a, data):
    k = data.draw(st.integers(1, 3))
    x = data.draw(over_den(a.cols, k))
    consistent = mat_mul(a, x)
    other = data.draw(over_den(a.rows, k))
    for b in (consistent, other):
        sol, ker = solve_linear(a, b)
        expected = dense_solve(dense(a), dense(b), a.cols, k)
        if expected is None:
            assert sol is NO_SOLUTION
        else:
            assert dense(sol) == expected
            assert mat_mul(a, sol) == b
        assert ker.basis_rows() == dense_kernel(dense(a), a.cols)
    assert solve_linear(a, consistent)[0] is not NO_SOLUTION
    zero_row = Matrix.from_rows([[0] * a.cols])
    one = Matrix.from_rows([[1] * k])
    assert solve_linear(zero_row, one)[0] is NO_SOLUTION


@given(st.integers(1, 4).flatmap(lambda n: over_den(n, n, zero_weight=1)))
@settings(max_examples=150, deadline=None)
def test_invert_matches_the_oracle(a):
    expected = dense_inverse(dense(a))
    if expected is None:
        with pytest.raises(ContractError):
            invert(a)
        return
    inv = invert(a)
    assert dense(inv) == expected
    assert mat_mul(a, inv) == Matrix.identity(a.rows) == mat_mul(inv, a)


@given(rational_rows(), st.data())
@settings(max_examples=150, deadline=None)
def test_subspace_reduce_on_mixed_denominators(a, data):
    sub = Subspace.from_vectors(a.cols, dense(a))
    basis, pivots = dense_rref(dense(a))
    assert sub.basis_rows() == basis
    assert [dense(b) for b in sub.basis] == [[[x] for x in r] for r in basis]
    weights = data.draw(st.lists(st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5)),
                                 min_size=len(basis), max_size=len(basis)))
    inside = [sum((w * r[j] for w, r in zip(weights, basis)), Fraction(0)) for j in range(a.cols)]
    assert sub.reduce(inside) == weights
    assert sub.reduce(column(inside)) == weights
    assert Subspace.from_vectors(a.cols, [[2 * x for x in r] for r in basis] + basis) == sub
    assert hash(Subspace.from_vectors(a.cols, list(reversed(basis)))) == hash(sub)


@given(st.integers(2, 3), st.data())
@settings(max_examples=100, deadline=None)
def test_coordinatizer_tags_each_basis_matrix_with_its_own_den(n, data):
    basis = data.draw(st.lists(over_den(n, n, zero_weight=1), min_size=1, max_size=4))
    if len(dense_rref([flat(dense(b)) for b in basis])[1]) < len(basis):
        with pytest.raises(ContractError):
            _Coordinatizer(basis)
        return
    coord = _Coordinatizer(basis)
    weights = data.draw(st.lists(st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5)),
                                 min_size=len(basis), max_size=len(basis)))
    inside = Matrix.zeros(n, n)
    for w, b in zip(weights, basis):
        inside = inside + b.scale(w)
    outside = data.draw(over_den(n, n))
    assert coord.express(inside) == weights
    for m in (inside, outside):
        assert coord.express(m) == dense_express(basis, m)


@given(st.lists(over_den(2, 3), min_size=1, max_size=4), st.data())
@settings(max_examples=100, deadline=None)
def test_combine_maps_is_exact_for_rational_coefficients(maps, data):
    """Integer coefficients over one cden: the rational coefficient of map
    i is coeffs[i] / cden."""
    coeffs = data.draw(st.lists(st.integers(-4, 4), min_size=len(maps), max_size=len(maps)))
    cden = data.draw(st.integers(1, 12))
    expected = [[sum((Fraction(c, cden) * dense(phi)[i][j] for c, phi in zip(coeffs, maps)), Fraction(0))
                 for j in range(3)] for i in range(2)]
    assert_canonical(_combine_maps(maps, dict(enumerate(coeffs)), 2, 3, cden), expected)


@st.composite
def accumulated_rows(draw, rows, cols):
    """Integer rows {i: {j: int}} as an accumulation leaves them: some rows
    empty, some entries a cancelled zero, some rows all zeros."""
    acc = {}
    for i in range(rows):
        kind = draw(st.sampled_from(["absent", "empty", "zeros", "mixed", "mixed"]))
        if kind == "absent":
            continue
        row = {}
        if kind != "empty":
            for j in draw(st.lists(st.integers(0, cols - 1), unique=True, max_size=cols)):
                row[j] = 0 if kind == "zeros" else draw(st.integers(-12, 12))
        acc[i] = row
    return acc


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 10**6), st.data())
@settings(max_examples=200, deadline=None)
def test_accumulated_rows_come_out_canonical(rows, cols, den, data):
    """`_accumulated` drops the cancelled zeros and the empty rows and
    brings den and the entries to lowest terms, for any positive den."""
    acc = data.draw(accumulated_rows(rows, cols))
    expected = [[Fraction(acc.get(i, {}).get(j, 0), den) for j in range(cols)] for i in range(rows)]
    assert_canonical(_accumulated(rows, cols, acc, den), expected)


# -- min_poly and rational_roots ----------------------------------------------


def fraction_min_poly(rows):
    """The minimal polynomial by the plain Fraction algorithm: for each basis
    vector not yet annihilated, the first Krylov dependency (one dense solve
    per power), folded in by lcm = product / gcd."""
    n = len(rows)

    def apply(v):
        return [sum((x * y for x, y in zip(r, v)), Fraction(0)) for r in rows]

    def annihilated(p, v):
        acc, w = [Fraction(0)] * n, list(v)
        for c in p:
            acc = [x + c * y for x, y in zip(acc, w)]
            w = apply(w)
        return not any(acc)

    m = [Fraction(1)]
    for j in range(n):
        v = [Fraction(int(i == j)) for i in range(n)]
        if annihilated(m, v):
            continue
        krylov, w = [v], apply(v)
        while True:
            cols = [[vec[i] for vec in krylov] for i in range(n)]
            sol = dense_solve(cols, [[x] for x in w], len(krylov), 1)
            if sol is not None:
                break
            krylov.append(w)
            w = apply(w)
        annihilator = [-c[0] for c in sol] + [Fraction(1)]
        m = poly_monic(poly_divmod(poly_mul(m, annihilator), poly_gcd(m, annihilator))[0])
    return m


def jordan(blocks):
    """Block-diagonal Jordan form with the given (eigenvalue, size) blocks."""
    n = sum(size for _, size in blocks)
    rows = [[Fraction(0)] * n for _ in range(n)]
    start = 0
    for lam, size in blocks:
        for i in range(size):
            rows[start + i][start + i] = Fraction(lam)
            if i + 1 < size:
                rows[start + i][start + i + 1] = Fraction(1)
        start += size
    return rows


jordan_blocks = st.lists(
    st.tuples(st.sampled_from([0, 1, -2, Fraction(1, 2), Fraction(-3, 4)]), st.integers(1, 3)),
    min_size=1, max_size=3,
)


@st.composite
def min_poly_inputs(draw):
    kind = draw(st.sampled_from(["random", "jordan", "nilpotent"]))
    if kind == "random":
        return draw(st.integers(1, 5).flatmap(lambda n: over_den(n, n)))
    if kind == "nilpotent":
        n = draw(st.integers(1, 5))
        a = draw(over_den(n, n))
        # strictly upper triangular
        return Matrix.from_sparse(n, n, {(i, j): a[i, j] for i in range(n) for j in range(i + 1, n)})
    # a Jordan form conjugated by an invertible integer upper-triangular matrix
    rows = jordan(draw(jordan_blocks))
    n = len(rows)
    p = Matrix.from_sparse(n, n, {(i, j): draw(st.integers(-2, 2)) if i < j else 1
                                  for i in range(n) for j in range(i, n)})
    return mat_mul(mat_mul(p, Matrix.from_rows(rows)), invert(p))


@given(min_poly_inputs())
@settings(max_examples=150, deadline=None)
def test_min_poly_matches_the_fraction_algorithm(a):
    got = min_poly(a)
    assert got == fraction_min_poly(dense(a))
    assert got[-1] == 1 and all(type(c) is Rational for c in got)
    assert poly_eval_matrix(got, a).is_zero()


def test_min_poly_of_jordan_blocks_and_nilpotents():
    a = Matrix.from_rows(jordan([(Fraction(1, 2), 3), (Fraction(1, 2), 1), (-2, 2)]))
    assert min_poly(a) == poly_mul(poly_mul(poly_mul([rat("-1/2"), rat(1)], [rat("-1/2"), rat(1)]),
                                            [rat("-1/2"), rat(1)]),
                                   poly_mul([rat(2), rat(1)], [rat(2), rat(1)]))
    nil = Matrix.from_rows([[0, 3, 0], [0, 0, rat("1/5")], [0, 0, 0]])
    assert min_poly(nil) == [0, 0, 0, 1]
    assert min_poly(Matrix.zeros(3, 3)) == [0, 1]
    assert min_poly(Matrix.identity(4).scale(rat("-2/3"))) == [rat("2/3"), 1]
    assert min_poly(Matrix.zeros(0, 0)) == [1]


def fraction_rational_roots(p):
    """Every rational root of p, each once: the candidates of the rational
    root theorem, tested by Fraction evaluation."""
    den = lcm(1, *(Fraction(c).denominator for c in p))
    ints = [int(Fraction(c) * den) for c in p]
    while ints and ints[0] == 0:
        ints = ints[1:]
    roots = {Fraction(0)} if len(ints) < len(p) else set()
    if len(ints) < 2:
        return roots
    for num in divisors(ints[0]):
        for d in divisors(ints[-1]):
            for cand in (Fraction(num, d), Fraction(-num, d)):
                if sum((c * cand ** i for i, c in enumerate(ints)), Fraction(0)) == 0:
                    roots.add(cand)
    return roots


def divisors(n):
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in small]


rational_root = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@given(st.lists(rational_root, max_size=4),
       st.lists(st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3)), min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_rational_roots_match_poly_eval(roots, extra):
    p = poly_trim([rat(c) for c in extra])
    if not p:
        return
    for r in roots:
        p = poly_mul(p, [rat(-r), rat(1)])
    found = rational_roots(p)
    assert len(found) == len(set(found))
    assert all(type(r) is Rational and poly_eval(p, r) == 0 for r in found)
    assert set(found) == fraction_rational_roots(p)
    assert set(roots) <= set(found)


# -- the Killing form ---------------------------------------------------------


def fraction_killing(algebra):
    """K_ab = sum over j, k of c_{aj}^k c_{bk}^j, contracted on Fractions."""
    d = algebra.dim
    c = {}
    for (i, j), entry in algebra.structure.items():
        for k, v in entry.items():
            c[(i, j, k)] = Fraction(v)
            c[(j, i, k)] = -Fraction(v)
    return [
        [sum((c.get((a, j, k), 0) * c.get((b, k, j), 0) for j in range(d) for k in range(d)),
             Fraction(0)) for b in range(d)]
        for a in range(d)
    ]


height_c = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5))
signatures = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda pq: 3 <= sum(pq) <= 5)


@st.composite
def killing_algebras(draw):
    kind = draw(st.sampled_from(["so", "deformed", "scaled"]))
    p, q = draw(signatures)
    if kind == "so":
        return so_pq_algebra(p, q)
    alg = deformed_algebra(p, q, draw(height_c)).algebra
    if kind == "deformed":
        return alg
    # every constant over its own denominator: no Jacobi, only the contraction
    f = draw(st.lists(height_c.filter(bool), min_size=1, max_size=3))
    entries = [(i, j, k, v * f[(i + j + k) % len(f)])
               for (i, j), entry in alg.structure.items() for k, v in entry.items()]
    return LieAlgebra.from_structure(alg.dim, entries, validate=False)


@given(killing_algebras())
@settings(max_examples=60, deadline=None)
def test_killing_form_matches_the_fraction_contraction(algebra):
    gram = algebra.killing_form().gram
    assert dense(gram) == fraction_killing(algebra)
    assert all(type(x) is Rational for x in gram.entries)
    assert gram == Matrix.from_rows(fraction_killing(algebra))
