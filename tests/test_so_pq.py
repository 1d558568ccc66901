import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liepq import so_pq
from liepq.errors import ContractError, ShapeMismatchError, UnknownSmallestModuleError, UnsupportedRealizationError
from liepq.exact_linalg import (
    Matrix,
    Subspace,
    dump_matrix_text,
    inertia_of_diagonalizable_form,
    rat,
    rref,
    wedge_square_index,
)
from liepq.lie_core import LieAlgebra, _Coordinatizer
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
    clifford_gammas_44,
    deformed_algebra,
    dimension_bound,
    embedding_iso,
    exceptional_iso,
    half_spin_reps,
    ipq,
    ipq_c,
    so_of_form,
    so_pq_algebra,
    sqrt_conjugation,
    standard_rep,
    t_c,
)

from conftest import (
    closed_form_embedding, fresh_so_pq, pairwise_defect, per_c_deformed_algebra,
    per_image_sqrt_conjugation, three_run_family,
)

C_GRID = [rat(x) for x in ("-2", "-1", "-1/2", "0", "1/2", "1", "2")]


def test_ipq_values():
    assert ipq(1, 1) == Matrix.diagonal([1, -1])
    assert ipq_c(2, 1, 3) == Matrix.diagonal([3, 1, 1, -1])
    assert ipq_c(2, 1, -3) == Matrix.diagonal([1, 1, -1, -3])
    with pytest.raises(ContractError):
        ipq_c(2, 1, 0)


def test_ipq_c_below_n_3_is_the_form_alone():
    """The form half of the embedding builds no so(p,q), so n = 1 and 2
    still get their I_{p,q}(c)."""
    assert ipq_c(1, 0, 2) == Matrix.diagonal([2, 1])
    assert ipq_c(0, 2, rat("-1/3")) == Matrix.diagonal([-1, -1, rat("-1/3")])


FLOATS = "floats are not accepted; use 'p/q' strings or ints"

# (arguments, message of the ContractError of ipq_c, of embedding_iso): c is
# read first, then c = 0 refused, then the signature, then n < 3
ORDERED_ERRORS = [
    ((2, 1, 0), "ipq_c requires c != 0", "embedding_iso requires c != 0"),
    ((2.0, 1, 0), "ipq_c requires c != 0", "embedding_iso requires c != 0"),
    ((0, 0, 0), "ipq_c requires c != 0", "embedding_iso requires c != 0"),
    ((2, 1, 0.5), FLOATS, FLOATS),
    ((True, 1, 0.5), FLOATS, FLOATS),
    ((True, 2, 1), "signature entries must be ints, got True", None),
    ((2.0, 1, 1), "signature entries must be ints, got 2.0", None),
    ((0, 0, 1), "signature needs p, q >= 0 and p + q >= 1", None),
    ((1, 1, 1), None, "embedding_iso needs p + q >= 3"),
    ((0, 2, rat("-1/3")), None, "embedding_iso needs p + q >= 3"),
]


@pytest.mark.parametrize("args, ipq_message, embedding_message", ORDERED_ERRORS, ids=str)
def test_ipq_c_and_embedding_iso_refuse_in_the_same_order(args, ipq_message, embedding_message):
    """A None message: ipq_c returns a form, or embedding_iso refuses as ipq_c does."""
    if ipq_message is None:
        ipq_c(*args)
    else:
        with pytest.raises(ContractError, match=re.escape(ipq_message)):
            ipq_c(*args)
    with pytest.raises(ContractError, match=re.escape(embedding_message or ipq_message)):
        embedding_iso(*args)


NON_INT_SIGNATURES = {
    "ipq": lambda: ipq(2.5, 1),
    "ipq_c": lambda: ipq_c(2, 1.0, 1),
    "t_c": lambda: t_c(2, "1", 1),
    "deformed_algebra": lambda: deformed_algebra(2.0, 1, 1),
    "embedding_iso": lambda: embedding_iso(2.0, 1, 1),
    "standard_rep": lambda: standard_rep(2.0, 1),
    "so_pq_algebra": lambda: so_pq_algebra("2", 1),
    "so_pq_algebra_bool": lambda: so_pq_algebra(True, 2),
    "sqrt_conjugation": lambda: sqrt_conjugation(2, 1.0, 4),
    "signature_bool": lambda: so_pq.Signature(3, False),
}


@pytest.mark.parametrize("call", NON_INT_SIGNATURES.values(), ids=NON_INT_SIGNATURES.keys())
def test_non_integer_signature_is_a_contract_error(call):
    with pytest.raises(ContractError, match="signature entries must be ints"):
        call()


C_WIDE = [rat(x) for x in ("1", "-1", "4", "-4", "2/3", "-2/3", "3/4", "-3/4", "7/5", "-7/5")]


def _canonical(m):
    """No stored zero or empty row, and den coprime to the entries."""
    values = [x for row in m._data.values() for x in row.values()]
    return all(m._data.values()) and all(values) and math.gcd(m.den, *values) == 1


@pytest.mark.parametrize("c", C_WIDE, ids=str)
def test_integer_built_form_and_images_match_from_sparse(c):
    for n in range(1, 9):
        for p in range(n + 1):
            form, images = closed_form_embedding(p, n - p, c)
            built = ipq_c(p, n - p, c)
            assert built == form and _canonical(built)
            if n >= 3:
                emb = embedding_iso(p, n - p, c)
                assert emb.target_form == form
                assert emb.images == images
                assert all(_canonical(m) for m in emb.images)


def test_so_pq_dimensions():
    assert so_pq_algebra(3, 1).dim == 6
    assert so_pq_algebra(4, 4).dim == 28
    with pytest.raises(ContractError):
        so_pq_algebra(1, 0)


SO_PQ_SIGNATURES = [(p, n - p) for n in range(2, 9) for p in range(1, n)] + [(3, 0), (0, 3)]


@pytest.mark.parametrize("p,q", SO_PQ_SIGNATURES)
def test_memoized_so_pq_algebra_matches_fresh_build(p, q):
    fresh = fresh_so_pq(p, q)
    algebra = so_pq_algebra(p, q)
    assert so_pq_algebra(p, q) is algebra
    assert algebra.realization == fresh.realization
    assert algebra.structure == fresh.structure
    assert algebra.basis == fresh.basis
    # consumers built on the shared instance must leave it untouched
    std = standard_rep(p, q)
    hom_space(std, std)
    min_poly(algebra.basis[0])
    if p + q >= 3:
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


@pytest.mark.parametrize("c", ["0", "1", "-1", "1/2", "-1/2", "4/3"])
def test_t_c_integer_rows_equal_the_diagonal_oracle(c):
    """t_c, written as integer rows with one entry per column, is the
    canonical matrix `Matrix.diagonal` gives for -c at every pair of
    positive coordinates and c elsewhere, at every signature up to n = 8;
    at n = 1, where wedge^2 R^1 has no basis, both refuse."""
    c = rat(c)
    for p in (0, 1):
        with pytest.raises(ContractError, match="requires n >= 2"):
            t_c(p, 1 - p, c)
    for n in range(2, 9):
        for p in range(n + 1):
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            oracle = Matrix.diagonal([-c if (i < p and j < p) else c for i, j in pairs])
            assert t_c(p, n - p, c) == oracle, (p, n - p)


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


@pytest.mark.parametrize("part", ["so", "vec", "action"])
def test_family_certification_catches_one_wrong_constant(monkeypatch, fresh_family_memos, part):
    """Doubling one so(p,q) constant [X, Y], one action constant [X, e_i]
    or the coefficient of one [e_i, e_j] (c -> 2c) breaks the family's
    certificate for every c, in the degree of c where the broken terms
    sit: J(base) for the first two, the cross term for the last."""
    p, q = 3, 1
    dim, base, vec = so_pq._deformation_constants(p, q)
    so_dim = dim - (p + q)
    degree = 1 if part == "vec" else 0
    if part == "vec":
        vec = _doubled(vec, 0)
    else:
        acts = part == "action"
        base = _doubled(base, next(t for t, e in enumerate(base) if (e[1] >= so_dim) == acts))
    monkeypatch.setattr(so_pq, "_deformation_constants", lambda p, q: (dim, base, vec))
    with pytest.raises(ContractError, match=f"Jacobi identity fails .* in degree {degree}"):
        deformed_algebra(p, q, rat("1/2"))


@pytest.mark.parametrize(
    "p, q, bend",
    [(2, 1, "flip 0"), (2, 1, "flip 2"), (3, 1, "flip 5"), (2, 2, "flip 1"), (4, 4, "flip 13"),
     (2, 1, "entry (0,1)")],
)
def test_a_bent_t1_fails_equivariance_and_the_family(monkeypatch, fresh_family_memos, p, q, bend):
    """The vector brackets are read off T_1, so a T_1 with one sign flipped,
    or with an entry added off its diagonal (read by column: [e_0, e_2]
    gains an X_01 part), fails `tc_equivariance` and makes the family
    refuse Jacobi in degree 1, the cross term of so and the vectors."""
    import liepq.checks as checks

    t1 = t_c(p, q, 1)
    kind, at = bend.split(" ")
    if kind == "flip":
        idx = int(at)
        bent = t1 - Matrix.from_sparse(t1.rows, t1.cols, {(idx, idx): 2 * t1[idx, idx]})
    else:
        bent = t1 + Matrix.from_sparse(t1.rows, t1.cols, {(0, 1): 1})
    for module in (checks, fresh_family_memos):
        monkeypatch.setattr(module, "t_c", lambda p, q, c: bent.scale(c))
    assert checks.check_tc_equivariance(p, q, rat(2))["status"] == "fail"
    with pytest.raises(ContractError, match="Jacobi identity fails .* in degree 1"):
        so_pq._family(p, q).jacobi


@pytest.mark.parametrize(
    "p, q", [(p, n - p) for n in range(3, 9) for p in range(n + 1)]
)
def test_graded_family_matches_three_run_oracle(p, q):
    """The record's graded passes certify the three validated algebras'
    base and vec tensors, and give their Killing grams K0, K1 and K2, entry
    for entry."""
    record = so_pq._family(p, q)
    dim, base, vec, k0, k1, k2 = three_run_family(p, q)
    assert record.dim == dim
    assert record.constants == (base, vec)
    assert record.jacobi
    assert record.grams == (k0, k1, k2)


def test_deformed_algebra_shares_one_integer_tensor_and_keeps_none(monkeypatch, fresh_family_memos):
    """The Jacobi pass and the Killing grams that `deformed_algebra` reads
    run on one integer tensor of base + vec, and the record keeps neither
    it nor an algebra of the family: only the constants, the grams and the
    Jacobi verdict."""
    built = []
    integer_tensor = LieAlgebra._integer_tensor

    def counted(alg):
        if alg._int_tensor is None:
            built.append(alg.dim)
        return integer_tensor(alg)

    monkeypatch.setattr(LieAlgebra, "_integer_tensor", counted)
    for c in ("2", "0", "-1/3"):
        assert deformed_algebra(3, 1, c).algebra.is_semisimple() == (c != "0")
    record = so_pq._family(3, 1)
    assert built == [10]
    assert record._graded_pair is None and record._branches == {}
    kept = {"p", "q", "m", "dim", "_branches", "_graded_pair", "constants", "jacobi", "grams"}
    assert set(vars(record)) == kept


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
    """S.J.S = I_{p,q}(c), and S conjugates every image into so(J)."""
    for (p, q, c) in [(2, 1, rat(1)), (2, 1, rat(4)), (3, 1, rat("-9/4"))]:
        s = sqrt_conjugation(p, q, c)
        target = ipq(p + 1, q) if c > 0 else ipq(p, q + 1)
        assert s @ target @ s == ipq_c(p, q, c)
        assert per_image_sqrt_conjugation(p, q, c) == {"status": "pass"}
    assert sqrt_conjugation(2, 1, 2) is None


def test_so_of_form_dimension():
    target = so_of_form(ipq_c(2, 1, rat(1)))
    assert target.dim == 6


def assert_same_algebra(alg, ref):
    assert (alg.realization, alg.dim) == (ref.realization, ref.dim)
    assert alg.basis == ref.basis
    assert alg.structure == ref.structure


@pytest.mark.parametrize("c", C_WIDE, ids=str)
def test_closed_form_so_of_form_matches_the_kernel_path(c):
    for n in range(3, 9):
        for p in range(1, n):
            form = ipq_c(p, n - p, c)
            assert_same_algebra(so_of_form(form), so_pq._form_preserving_algebra(form))


nonzero_rationals = st.builds(
    lambda num, den: rat(num) / den,
    st.integers(-9, 9).filter(bool),
    st.integers(1, 6),
)


@given(st.lists(nonzero_rationals, max_size=7))
@settings(max_examples=40, deadline=None)
def test_closed_form_so_of_a_rational_diagonal_matches_the_kernel_path(diag):
    form = Matrix.diagonal(diag)
    alg = so_of_form(form)
    assert_same_algebra(alg, so_pq._form_preserving_algebra(form))
    alg._check_jacobi()


@given(st.lists(st.integers(-6, 6).filter(bool), min_size=2, max_size=6), st.data())
@settings(max_examples=60, deadline=None)
def test_closed_form_coordinates_match_the_echelon_coordinatizer(diag, data):
    """The reader `_diagonal_so` attaches, against the echelon
    `_Coordinatizer` of the same basis: an in-span combination with
    rational coefficients, a one-entry perturbation of it, a diagonal
    entry, a pair with one entry missing, and a matrix of the wrong shape."""
    alg = so_pq._diagonal_so(diag)
    reader = alg.coordinatizer()
    assert isinstance(reader, so_pq._DiagonalCoordinates)
    oracle = _Coordinatizer(alg.basis)
    n = len(diag)
    coeffs = data.draw(st.lists(st.sampled_from([0, 0, 1, -2, "1/2", "-5/3"]), min_size=alg.dim, max_size=alg.dim))
    inside = Matrix.zeros(n, n)
    for c, b in zip(coeffs, alg.basis):
        inside = inside + b.scale(rat(c))
    bump = data.draw(nonzero_rationals)
    i, j = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
    k = data.draw(st.integers(0, n - 1))
    x, y = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
    partnered = inside + alg.basis[wedge_square_index(n).index((x, y))].scale(bump)
    entries = {(r, s): partnered[r, s] for r in range(n) for s in range(n)}
    del entries[data.draw(st.sampled_from([(x, y), (y, x)]))]
    cases = [
        inside,
        inside + Matrix.from_sparse(n, n, {(i, j): bump}),
        inside + Matrix.from_sparse(n, n, {(k, k): bump}),
        Matrix.from_sparse(n, n, entries),
    ]
    for m in cases:
        assert reader.express_sparse(m) == oracle.express_sparse(m)
        assert reader.express(m) == oracle.express(m)
    assert reader.express(inside) == [rat(c) for c in coeffs]
    for shape in ((n + 1, n + 1), (n, n + 1)):
        wrong = Matrix.zeros(*shape)
        for coord in (reader, oracle):
            with pytest.raises(ShapeMismatchError):
                coord.express(wrong)


@pytest.mark.parametrize(
    "form,dim",
    [
        (Matrix.zeros(0, 0), 0),
        (Matrix.diagonal([rat("-5/3")]), 0),
        (Matrix.diagonal([1, 0, -1]), 4),
        (Matrix.from_rows([[0, 1], [1, 0]]), 1),
    ],
    ids=["0x0", "1x1", "degenerate", "off-diagonal"],
)
def test_so_of_small_degenerate_and_non_diagonal_forms_is_the_kernel_result(form, dim):
    alg = so_of_form(form)
    assert alg.dim == dim
    assert_same_algebra(alg, so_pq._form_preserving_algebra(form))


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


def test_sl2c_carrier_actions_are_pinned():
    """The six 4x4 actions of sl(2,C) on 2x2 Hermitian matrices, X.A =
    X A + A conj(X)^t in the basis (I, sigma_1, sigma_2, sigma_3), equal the
    fixture dumped from the complex (re, im) arithmetic they replaced."""
    carrier = exceptional_iso(SO31_SL2C).carrier
    fixture = Path(__file__).resolve().parent / "golden" / "sl2c_carrier_actions.txt"
    assert "".join(dump_matrix_text(a) for a in carrier.actions) == fixture.read_text()
    carrier.validate()


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


def test_half_spin_actions_read_off_the_nonzeros_match_the_entry_reads():
    """`half_spin_reps` reads each generator's spinor coefficients from the
    nonzeros of gen . eta; the reference reads all 28 entries (a, b), a < b,
    through `Matrix.__getitem__`, each coefficient entry / 2 passed as an
    integer over 4 * ai.den.  The actions and both halves agree."""
    from liepq.exact_linalg import _combine_maps, mat_mul

    hs = half_spin_reps(4, 4)
    algebra = so_pq_algebra(4, 4)
    eta = ipq(4, 4)
    gammas = clifford_gammas_44()
    pairs = [(a, b) for a in range(8) for b in range(a + 1, 8)]
    products = [mat_mul(gammas[a], gammas[b]) for a, b in pairs]
    actions = []
    for gen in algebra.basis:
        ai = mat_mul(gen, eta)
        coeffs = {k: int(v * 2 * ai.den) for k, v in enumerate(ai[a, b] for a, b in pairs) if v}
        actions.append(_combine_maps(products, coeffs, 16, 16, 4 * ai.den))
    assert [a.entries for a in hs.spinor_rep.actions] == [a.entries for a in actions]
    reference = Representation(algebra, 16, actions)
    for half, space in ((hs.c_plus, hs.plus_space), (hs.c_minus, hs.minus_space)):
        assert [a.entries for a in half.actions] == [
            a.entries for a in restrict(reference, space).actions
        ]


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
