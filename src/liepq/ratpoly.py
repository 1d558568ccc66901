"""Polynomials over Q: characteristic/minimal polynomials and factorization.

Polynomials are lists of Rational coefficients, lowest degree first, with a
nonzero leading coefficient (the zero polynomial is []).  Factorization is
deliberately scoped to what the irreducibility decision procedure needs:
rational-root extraction plus Kronecker interpolation for factor degrees up
to half of a degree-8 input.
"""

from __future__ import annotations

from itertools import product
from math import gcd as _gcd, lcm as _lcm

from .errors import FactorizationCapExceeded, ShapeMismatchError
from .exact_linalg import Echelon, Matrix, ONE, Rational, ZERO, _mat_vec_int, mat_mul, rat

FACTOR_DEGREE_CAP = 8
_DIVISOR_TUPLE_CAP = 200_000


def poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_add(p, q):
    n = max(len(p), len(q))
    out = [ZERO] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return poly_trim(out)


def poly_scale(p, k):
    k = rat(k)
    return poly_trim([k * c for c in p])


def poly_mul(p, q):
    if not p or not q:
        return []
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return poly_trim(out)


def poly_divmod(p, q):
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    p = list(p)
    dq = len(q) - 1
    lead = q[-1]
    quot = [ZERO] * max(0, len(p) - dq)
    while len(p) - 1 >= dq and p:
        shift = len(p) - 1 - dq
        f = p[-1] / lead
        quot[shift] = f
        for i in range(len(q)):
            p[shift + i] -= f * q[i]
        poly_trim(p)
    return poly_trim(quot), p


def poly_monic(p):
    if not p:
        return []
    lead = p[-1]
    return [c / lead for c in p]


def poly_gcd(p, q):
    p, q = list(p), list(q)
    while q:
        p, q = q, poly_divmod(p, q)[1]
    return poly_monic(p)


def poly_derivative(p):
    return poly_trim([rat(i) * c for i, c in enumerate(p)][1:])


def poly_eval(p, x):
    x = rat(x)
    acc = ZERO
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_eval_matrix(p, a: Matrix) -> Matrix:
    if a.rows != a.cols:
        raise ShapeMismatchError("polynomial evaluation needs a square matrix")
    identity = Matrix.identity(a.rows)
    acc = Matrix.zeros(a.rows, a.rows)
    for c in reversed(p):
        acc = mat_mul(acc, a)
        if c:
            acc = acc + identity.scale(c)
    return acc


def char_poly(a: Matrix):
    """Characteristic polynomial det(xI - a) by the Faddeev-LeVerrier scheme."""
    if a.rows != a.cols:
        raise ShapeMismatchError("characteristic polynomial needs a square matrix")
    n = a.rows
    coeffs = [ZERO] * (n + 1)
    coeffs[n] = ONE
    identity = Matrix.identity(n)
    m = Matrix.zeros(n, n)
    c = ONE
    for k in range(1, n + 1):
        m = mat_mul(a, m + identity.scale(c))
        c = -m.trace() / rat(k)
        coeffs[n - k] = c
    return coeffs


def min_poly(a: Matrix):
    """Minimal polynomial, grown over the basis vectors: when the current m
    does not annihilate e_j, m becomes m times the annihilator of m(a) e_j,
    which is lcm(m, annihilator of e_j).  After the last e_j, m(a) = 0; m
    divides the minimal polynomial throughout, so deg m = n stops early.

    Runs on the integer rows A of a = A / d, with m an integer polynomial
    in A: sum of m_i A^i is sum of m_i d^i a^i, so the monic rational
    polynomial in a has the coefficients m_i d^i / (m_deg d^deg), read out
    once at the end.
    """
    if a.rows != a.cols:
        raise ShapeMismatchError("minimal polynomial needs a square matrix")
    n = a.rows
    big, d = a._data, a.den
    m = [1]
    for j in range(n):
        u = _apply_int_poly(m, big, {j: 1})
        if not u:
            continue
        m = _int_poly_mul(m, _vector_annihilator(big, n, u))
        if len(m) > n:
            break
    deg = len(m) - 1
    return [Rational(c, m[-1] * d ** (deg - i)) for i, c in enumerate(m)]


def _int_poly_mul(p, q):
    """The product of two integer polynomials with nonzero leading terms."""
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        if x:
            for j, y in enumerate(q):
                out[i + j] += x * y
    return out


def _apply_int_poly(q, big, v: dict) -> dict:
    """q(A) v for an integer polynomial q, by Horner, as a sparse vector;
    A times a zero accumulator (the first step's) is skipped."""
    acc = {}
    for c in reversed(q):
        if acc:
            acc = _mat_vec_int(big, acc)
        if c:
            for j, x in v.items():
                s = acc.get(j, 0) + c * x
                if s:
                    acc[j] = s
                else:
                    del acc[j]
    return acc


def _vector_annihilator(big, n, v: dict):
    """The primitive integer polynomial q of least degree, with a positive
    leading coefficient, such that q(A) v = 0 for a nonzero integer vector
    v, via the first Krylov dependency.

    A^k v enters one integer Echelon with the tag column n + k, so that
    the first power in the span of the earlier ones reduces to (0, t) with
    scale * A^k v + sum of t_i A^i v = 0.
    """
    ech = Echelon(2 * n)
    w = v
    k = 0
    while True:
        out, scale = ech.reduce(w)
        if all(col >= n for col in out):
            q = [out.get(n + i, 0) for i in range(k)] + [scale]
            g = _gcd(*q)
            return [c // g for c in q]
        out[n + k] = scale
        ech.insert(out)
        w = _mat_vec_int(big, w)
        k += 1


def _to_integer_primitive(p):
    """Scale a rational polynomial to a primitive integer polynomial."""
    den = _lcm(1, *(int(c.denominator) for c in p))
    ints = [int(c.numerator) * (den // int(c.denominator)) for c in p]
    g = _gcd(*ints)
    if g > 1:
        ints = [c // g for c in ints]
    if ints and ints[-1] < 0:
        ints = [-c for c in ints]
    return ints


def _divisors(n):
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def rational_roots(p):
    """All rational roots (with multiplicity 1 listing) of p."""
    ints = _to_integer_primitive(p)
    if not ints:
        return []
    k = 0
    while ints[k] == 0:
        k += 1
    roots = [] if k == 0 else [ZERO]
    ints = ints[k:]
    a0, ad = ints[0], ints[-1]
    deg = len(ints) - 1
    # candidate num / den is a root exactly when sum of ints[i] num^i
    # den^(deg - i) vanishes; weights[den] holds ints[i] den^(deg - i)
    weights = {den: [c * den ** (deg - i) for i, c in enumerate(ints)] for den in _divisors(ad)}
    for num in _divisors(a0):
        for den, weighted in weights.items():
            if _gcd(num, den) != 1:
                continue  # the same value as num / g over den / g, met before
            for s in (num, -num):
                acc = 0
                for c in reversed(weighted):
                    acc = acc * s + c
                if not acc:
                    roots.append(Rational(s, den))
    return roots


def factor_poly(p):
    """Factor a rational polynomial into monic irreducibles over Q.

    Returns a list of (monic irreducible poly, multiplicity).  Raises
    FactorizationCapExceeded beyond degree 8 or when Kronecker divisor
    enumeration explodes; callers treat that as 'could not decide'.
    """
    p = poly_monic(list(p))
    if len(p) - 1 > FACTOR_DEGREE_CAP:
        raise FactorizationCapExceeded(f"degree {len(p) - 1} > {FACTOR_DEGREE_CAP}")
    factors = {}
    while len(p) > 1:
        g = poly_gcd(p, poly_derivative(p))
        squarefree = poly_divmod(p, g)[0] if len(g) > 1 else list(p)
        for irr in _factor_squarefree(poly_monic(squarefree)):
            mult = 0
            while True:
                q, r = poly_divmod(p, irr)
                if r:
                    break
                p = q
                mult += 1
            key = tuple(irr)
            factors[key] = factors.get(key, 0) + mult
    return [(list(k), m) for k, m in sorted(factors.items(), key=lambda kv: (len(kv[0]), kv[0]))]


def _factor_squarefree(p):
    out = []
    for root in sorted(rational_roots(p)):
        lin = [-root, ONE]
        q, r = poly_divmod(p, lin)
        if not r:
            out.append(lin)
            p = q
    deg = len(p) - 1
    if deg <= 0:
        return out
    if deg <= 3:
        out.append(p)
        return out
    factor = _kronecker_factor(p)
    if factor is None:
        out.append(p)
        return out
    q = poly_divmod(p, factor)[0]
    return out + _factor_squarefree(poly_monic(factor)) + _factor_squarefree(poly_monic(q))


def _kronecker_factor(p):
    """A nontrivial factor of a squarefree, root-free integer-scalable
    polynomial of degree 4..8, or None if irreducible."""
    ints = _to_integer_primitive(p)
    deg = len(ints) - 1
    pts = [0, 1, -1, 2, -2, 3, -3, 4, -4]
    ip = [rat(c) for c in ints]
    for t in range(2, deg // 2 + 1):
        xs = pts[: t + 1]
        vals = [int(poly_eval(ip, x)) for x in xs]
        divisor_lists = []
        total = 1
        for v in vals:
            ds = _divisors(v)
            signed = [d for d in ds] + [-d for d in ds]
            divisor_lists.append(signed)
            total *= len(signed)
            if total > _DIVISOR_TUPLE_CAP:
                raise FactorizationCapExceeded("Kronecker divisor cap exceeded")
        for combo in product(*divisor_lists):
            cand = _interpolate(xs, combo)
            if cand is None or len(cand) - 1 != t:
                continue
            if cand[-1] < 0:
                cand = [-c for c in cand]
            q, r = poly_divmod(ip, cand)
            if not r:
                return cand
    return None


def _interpolate(xs, ys):
    """Lagrange interpolation; None when coefficients are not integers."""
    n = len(xs)
    poly = []
    for i in range(n):
        term = [rat(ys[i])]
        for j in range(n):
            if i == j:
                continue
            term = poly_mul(term, [rat(-xs[j]), ONE])
            term = poly_scale(term, Rational(1, xs[i] - xs[j]))
        poly = poly_add(poly, term)
    for c in poly:
        if c.denominator != 1:
            return None
    return poly
