from liepq.exact_linalg import Matrix, rat
from liepq.ratpoly import (
    char_poly,
    factor_poly,
    min_poly,
    poly_eval,
    poly_eval_matrix,
    poly_gcd,
    poly_mul,
    rational_roots,
)


def p(*coeffs):
    return [rat(c) for c in coeffs]


def test_char_poly_companion():
    # companion of x^3 - 2x - 5
    a = Matrix.from_rows([[0, 0, 5], [1, 0, 2], [0, 1, 0]])
    assert char_poly(a) == p(-5, -2, 0, 1)


def test_char_poly_identity():
    assert char_poly(Matrix.identity(2)) == p(1, -2, 1)


def test_min_poly_diagonalizable():
    a = Matrix.diagonal([1, 1, -2])
    assert min_poly(a) == poly_mul(p(-1, 1), p(2, 1))
    assert poly_eval_matrix(min_poly(a), a).is_zero()


def test_min_poly_jordan_block():
    a = Matrix.from_rows([[0, 1], [0, 0]])
    assert min_poly(a) == p(0, 0, 1)


def test_rational_roots():
    f = poly_mul(poly_mul(p(-1, 1), p(2, 1)), p(1, 0, 1))  # (x-1)(x+2)(x^2+1)
    assert sorted(rational_roots(f)) == [rat(-2), rat(1)]


def test_factor_mixed():
    f = poly_mul(p(-2, 1), p(1, 0, 1))  # (x-2)(x^2+1)
    factors = factor_poly(f)
    assert sorted((len(q) - 1, m) for q, m in factors) == [(1, 1), (2, 1)]


def test_factor_repeated():
    f = poly_mul(poly_mul(p(-1, 1), p(-1, 1)), p(2, 1))  # (x-1)^2 (x+2)
    factors = dict((tuple(q), m) for q, m in factor_poly(f))
    assert factors == {(rat(-1), rat(1)): 2, (rat(2), rat(1)): 1}


def test_factor_irreducible_quartic():
    f = p(1, 0, 0, 0, 1)  # x^4 + 1, irreducible over Q
    factors = factor_poly(f)
    assert factors == [(f, 1)]


def test_factor_quartic_with_quadratic_factors():
    f = p(4, 0, 0, 0, 1)  # x^4 + 4 = (x^2-2x+2)(x^2+2x+2)
    factors = factor_poly(f)
    assert sorted(tuple(q) for q, _ in factors) == [
        (rat(2), rat(-2), rat(1)),
        (rat(2), rat(2), rat(1)),
    ]
    product = p(1)
    for q, m in factors:
        for _ in range(m):
            product = poly_mul(product, q)
    assert product == f


def test_gcd():
    f = poly_mul(p(-1, 1), p(1, 1))
    g = poly_mul(p(-1, 1), p(3, 1))
    assert poly_gcd(f, g) == p(-1, 1)


def test_poly_eval():
    assert poly_eval(p(1, 2, 3), rat(2)) == rat(17)


def test_apply_int_poly_skips_the_empty_first_horner_step(monkeypatch):
    """q(A) v for q = x^2 - 5x - 2, the characteristic polynomial of A,
    takes deg q = 2 products, none of them on the empty accumulator."""
    import liepq.ratpoly as rp

    a = Matrix.from_rows([[1, 2], [3, 4]])
    products = []
    real = rp._mat_vec_int
    monkeypatch.setattr(rp, "_mat_vec_int", lambda data, vec: products.append(vec) or real(data, vec))
    assert rp._apply_int_poly([-2, -5, 1], a._data, {0: 1}) == {}
    assert products == [{0: 1}, {0: -4, 1: 3}]
    assert rp._apply_int_poly([3], a._data, {1: 2}) == {1: 6}
    assert len(products) == 2
