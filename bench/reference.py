"""Independent reference checks for the benchmark's verdicts.

Everything here uses its own list-of-lists `fractions.Fraction` arithmetic
and closed forms; nothing is imported from liepq.  liepq results enter only
as plain values (matrices as row lists, structure constants as dicts), so a
check cannot pass because it shares a bug with the code it checks.

Every `check_*` function returns a list of problems; an empty list means the
verdict is correct.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction


def frac(x) -> Fraction:
    """Any exact rational (Fraction, gmpy2.mpq, int) as a Fraction."""
    return Fraction(int(x.numerator), int(x.denominator))


def rows_of(m):
    """A liepq Matrix as a list of Fraction rows."""
    return [[frac(x) for x in m.row_list(i)] for i in range(m.rows)]


def is_square(x: Fraction) -> bool:
    return x >= 0 and all(math.isqrt(v) ** 2 == v for v in (x.numerator, x.denominator))


# -- own matrix arithmetic -----------------------------------------------


def zeros(r, c):
    return [[Fraction(0)] * c for _ in range(r)]


def mul(a, b):
    out = zeros(len(a), len(b[0]))
    for i, row in enumerate(a):
        acc = out[i]
        for k, x in enumerate(row):
            if x:
                for j, y in enumerate(b[k]):
                    if y:
                        acc[j] += x * y
    return out


def sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def add_scaled(acc, m, k):
    for ra, rm in zip(acc, m):
        for j, y in enumerate(rm):
            if y:
                ra[j] += k * y
    return acc


def transpose(a):
    return [list(col) for col in zip(*a)]


def commutator(a, b):
    return sub(mul(a, b), mul(b, a))


def is_zero(a):
    return all(x == 0 for row in a for x in row)


def trace_of_product(a, b):
    return sum(
        (x * b[j][i] for i, row in enumerate(a) for j, x in enumerate(row) if x),
        Fraction(0),
    )


# -- so(p,q) in the frozen generator basis --------------------------------


def pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def eta(p, q):
    return [Fraction(1)] * p + [Fraction(-1)] * q


def so_generators(p, q):
    """E_ij - E_ji on same-sign coordinate pairs, E_ij + E_ji on mixed ones,
    for i < j in lexicographic order."""
    n = p + q
    out = []
    for i, j in pairs(n):
        g = zeros(n, n)
        g[i][j] = Fraction(1)
        g[j][i] = Fraction(-1) if (i < p) == (j < p) else Fraction(1)
        out.append(g)
    return out


def so_coords(x, n):
    """Coordinates of x in so(p,q) in the frozen basis: every generator has a
    single upper-triangular entry 1 at its own (i, j)."""
    return [x[i][j] for i, j in pairs(n)]


def embedding_images(p, q, c: Fraction):
    """(X, u) -> [[X, c.u], [-u^t.I_{p,q}, 0]] in so(R^{n+1}, I_{p,q}(c)); the
    extra coordinate sits first for c > 0 and last for c < 0."""
    n = p + q
    shift, extra = (1, 0) if c > 0 else (0, n)
    images = []
    for g in so_generators(p, q):
        out = zeros(n + 1, n + 1)
        for i in range(n):
            for j in range(n):
                out[i + shift][j + shift] = g[i][j]
        images.append(out)
    for i, e in enumerate(eta(p, q)):
        out = zeros(n + 1, n + 1)
        out[i + shift][extra] = c
        out[extra][i + shift] = -e
        images.append(out)
    return images


def deformed_killing(p, q, c: Fraction):
    """Killing gram of so(p,q) (+) R^{p,q} with [.,.]_c for c != 0: zero mixed
    block, (n-1) tr(X_a X_b) on the so block and -2(n-1)c.eta on the vector
    block (it is so(n+1) in its defining module, where K = (N-2) tr)."""
    n = p + q
    gens = so_generators(p, q)
    m = len(gens)
    gram = zeros(m + n, m + n)
    for a in range(m):
        for b in range(m):
            gram[a][b] = (n - 1) * trace_of_product(gens[a], gens[b])
    for i, e in enumerate(eta(p, q)):
        gram[m + i][m + i] = -2 * (n - 1) * c * e
    return gram


def wedge_action(x):
    """Induced action of x on wedge^2 in the lexicographic pair basis."""
    n = len(x)
    prs = pairs(n)
    index = {pr: r for r, pr in enumerate(prs)}
    m = len(prs)
    out = zeros(m, m)

    def put(col, a, b, v):
        if a == b or not v:
            return
        row, sign = (index[(a, b)], 1) if a < b else (index[(b, a)], -1)
        out[row][col] += sign * v

    for col, (i, j) in enumerate(prs):
        for k in range(n):
            put(col, k, j, x[k][i])
            put(col, i, k, x[k][j])
    return out


def ad_action(x, gens):
    """Matrix of [x, .] on so(p,q) in the frozen basis."""
    n = len(x)
    cols = [so_coords(commutator(x, g), n) for g in gens]
    return transpose(cols)


# -- deform-grid --------------------------------------------------------


def check_deform(p, q, c, result, bracket_sample):
    """result: dim, semisimple, structure ({(i, j): {k: v}} for i < j) and,
    for c != 0, images, certified, injective, inertia and killing."""
    n = p + q
    c = Fraction(c)
    problems = []
    if result["dim"] != n * (n + 1) // 2:
        problems.append(f"dim {result['dim']} != n(n+1)/2")
    if result["semisimple"] != (c != 0):
        problems.append(f"semisimple={result['semisimple']} at c={c}")
    if c == 0:
        return problems
    if not (result["certified"] and result["injective"]):
        problems.append("embedding certificate not issued")
    want = (p + 1, q, 0) if c > 0 else (p, q + 1, 0)
    if tuple(result["inertia"]) != want:
        problems.append(f"inertia {result['inertia']} != {want}")
    images = embedding_images(p, q, c)
    if result["images"] != images:
        problems.append("embedding images differ from the block-matrix formula")
    structure = result["structure"]
    for i, j in bracket_sample:
        rhs = zeros(n + 1, n + 1)
        for k, v in structure.get((i, j), {}).items():
            add_scaled(rhs, images[k], v)
        if commutator(images[i], images[j]) != rhs:
            problems.append(f"bracket ({i},{j}) disagrees with the matrix commutator")
            break
    if result["killing"] != deformed_killing(p, q, c):
        problems.append("Killing gram differs from the closed block form")
    return problems


# -- module-certs -------------------------------------------------------


def hom_dim_expected(p, q):
    return 2 if p + q == 4 else 1


def check_hom(p, q, maps, gen_sample):
    """maps: Hom(wedge^2 V, ad) basis as row lists; each must intertwine."""
    problems = []
    want = hom_dim_expected(p, q)
    if len(maps) != want:
        problems.append(f"Hom dim {len(maps)} != {want}")
    gens = so_generators(p, q)
    for a in gen_sample:
        w, ad = wedge_action(gens[a]), ad_action(gens[a], gens)
        for phi in maps:
            if is_zero(phi) or mul(phi, w) != mul(ad, phi):
                problems.append(f"Hom map fails to intertwine generator {a}")
                return problems
    return problems


def check_standard_forms(p, q, forms):
    if len(forms) != 1:
        return [f"{len(forms)} invariant symmetric forms, expected 1"]
    f = forms[0]
    lead = f[0][0]
    n = p + q
    want = [[lead * e if i == j else Fraction(0) for j in range(n)] for i, e in enumerate(eta(p, q))]
    if not lead or f != want:
        return ["standard-module form is not a nonzero multiple of I_{p,q}"]
    return []


def check_half_spin(halves):
    """halves: per half, status, sym (row lists), skew count, actions."""
    problems = []
    for h in halves:
        if h["status"] != "IRREDUCIBLE":
            problems.append(f"half-spin verdict {h['status']}")
        if len(h["sym"]) != 1 or h["skew"] != 0:
            problems.append(f"{len(h['sym'])} symmetric / {h['skew']} skew forms, expected 1 / 0")
            continue
        f = h["sym"][0]
        if is_zero(f) or f != transpose(f):
            problems.append("half-spin form is zero or not symmetric")
        elif any(not is_zero(add_scaled(mul(transpose(a), f), mul(f, a), 1)) for a in h["actions"]):
            problems.append("half-spin form is not invariant")
    return problems


def check_complement(n, dim, status):
    problems = []
    if dim != n:
        problems.append(f"complement dim {dim} != {n}")
    if status != "IRREDUCIBLE":
        problems.append(f"complement verdict {status}")
    return problems


# -- verify-cli ---------------------------------------------------------

PASS, SKIP = "pass", "skipped"


def params_key(name, params):
    return name + json.dumps(params, sort_keys=True, separators=(",", ":"))


def expected_verify(p, q, c_list, mu_list):
    """{check key: (status, {field: value})} for `verify --suite all`, from the
    documented hypotheses of each check and closed forms."""
    n = p + q
    m = n * (n - 1) // 2
    out = {}

    def put(name, params, status, **fields):
        out[params_key(name, params)] = (status, fields)

    sig = {"p": p, "q": q}
    put("defining_property", sig, PASS, dim=m)
    put("theta_automorphism", sig, PASS)
    put("killing_vs_trace", sig, PASS, constant=str(n - 2))
    put("standard_form_unique", sig, PASS)
    put("hom_wedge_adjoint", sig, PASS, dim=hom_dim_expected(p, q))
    put("smallest_module_enum", sig, SKIP if n <= 4 else PASS)
    for c_text in c_list:
        c = Fraction(c_text)
        params = {"p": p, "q": q, "c": c_text}
        put("deformed_jacobi", params, PASS, dim=n * (n + 1) // 2)
        put("deformed_radical", params, PASS, semisimple=c != 0)
        put("tc_equivariance", params, PASS)
        put("tc_iso_rank", params, PASS, rank=m if c else 0)
        put("maximality", params, PASS)
        put("centralizer_trivial", params, PASS)
        if not c:
            for name in ("embedding_iso", "target_inertia", "sqrt_conjugation",
                         "killing_blocks", "complement_irreducible"):
                put(name, params, SKIP)
            continue
        put("embedding_iso", params, PASS, dim=n * (n + 1) // 2)
        put("target_inertia", params, PASS,
            inertia=[p + 1, q, 0] if c > 0 else [p, q + 1, 0])
        put("sqrt_conjugation", params, PASS if is_square(abs(c)) else SKIP)
        put("killing_blocks", params, PASS,
            a1=str(Fraction(n - 1, n - 2)), a2=str(-2 * (n - 1) * c))
        put("complement_irreducible", params, PASS, dim=n)
    for mu in mu_list:
        put("character_identity", {"p": p, "q": q, "mu": mu},
            PASS if (p, q) == (3, 1) else SKIP)
    put("half_spin", sig, PASS if (p, q) == (4, 4) else SKIP)
    put("exceptional_iso", sig, PASS if (p, q) in ((3, 1), (3, 2), (3, 3)) else SKIP)
    put("su2_perp_collapse", sig, PASS if (p, q) == (3, 1) else SKIP)
    small = 3 if (p, q) == (2, 2) else n
    put("dimension_bound", sig, PASS, dim_group=m, m=small, total=m + small)
    put("simple_dim_scan", sig, PASS)
    return out


def check_verify_entry(expected, entry):
    """Problems with one report entry against its expected (status, fields)."""
    status, fields = expected
    problems = []
    if entry.get("status") != status:
        problems.append(f"status {entry.get('status')} != {status}")
    for field, want in fields.items():
        if entry.get(field) != want:
            problems.append(f"{field} {entry.get(field)!r} != {want!r}")
    return problems
