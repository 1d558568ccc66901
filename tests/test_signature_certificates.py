"""The appendix facts `verify` certifies once per signature or once per sign
of c, read off the deformation family in `so_pq`, against the per-c
computations they replace: the centralizer and the maximality closures of
the so(p,q) block, the embedding into so(R^{n+1}, I_{p,q}(c)), the Killing
blocks, the irreducible complement and rank T_c; and the graded
homomorphism pass they share with `Representation.validate`, against the
pairwise oracle at three values of c."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liepq import so_pq
from liepq.errors import ContractError
from liepq.exact_linalg import ONE, Echelon, Matrix, Subspace, proportionality, rational_sqrt
from liepq.lie_core import centralizer, is_maximal_subalgebra
from liepq.rep_theory import Representation, _bracket_defect
from liepq.so_pq import (
    _Family,
    _family,
    _graded_embedding_defect,
    embedding_iso,
    ipq,
    ipq_c,
    so_pq_algebra,
    sqrt_conjugation,
)

from conftest import (
    closed_form_embedding, pairwise_validate, partners_trace_defect, per_c_complement_verdict,
    per_c_deformed_algebra, per_image_sqrt_conjugation,
)

SIGNATURES = [(p, n - p) for n in range(3, 7) for p in range(n + 1)]


def _so_block(p, q):
    n = p + q
    m = n * (n - 1) // 2
    ech = Echelon(m + n)
    for i in range(m):
        ech.insert({i: 1})
    return Subspace(ech)


def _per_c_embedding_reason(alg, emb):
    """The per-c embedding check: every image in so(target form), the
    brackets intertwined (`Representation.validate`), the images
    independent; None when all three hold."""
    form = emb.target_form
    if any(not (im.transpose() @ form + form @ im).is_zero() for im in emb.images):
        return "form"
    try:
        Representation(alg, form.rows, emb.images).validate()
    except ContractError:
        return "bracket"
    if Subspace.from_vectors(form.rows * form.rows, emb.images).dim != len(emb.images):
        return "injective"
    return None


def _per_c_killing_constants(alg, p, q):
    """(a1, a2) of the Killing gram of one c, block by block, or None."""
    gram = alg.killing_form().gram
    so = so_pq_algebra(p, q)
    m, n = so.dim, p + q
    s = Matrix.from_sparse(m + n, m, {(i, i): 1 for i in range(m)})
    v = Matrix.from_sparse(m + n, n, {(m + i, i): 1 for i in range(n)})
    if not (s.transpose() @ gram @ v).is_zero():
        return None
    a1 = proportionality(s.transpose() @ gram @ s, so.killing_form().gram)
    a2 = proportionality(v.transpose() @ gram @ v, ipq(p, q))
    return a1, a2


nonzero_c = st.builds(
    Fraction, st.integers(-40, 40).filter(bool), st.integers(1, 12)
)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SIGNATURES), nonzero_c)
def test_signature_certificates_equal_the_per_c_oracles(signature, c):
    """At a random rational c of either sign, on the algebra built and
    Jacobi-validated for that c alone: the centralizer, the maximality
    verdict and witness, the embedding verdict and the Killing constants
    equal the certificates of the signature (or of the sign of c), and
    `embedding_iso` and `ipq_c`, the branch polynomials at c, are the
    closed-form matrices of the formulas."""
    p, q = signature
    alg = per_c_deformed_algebra(p, q, c)
    block = _so_block(p, q)
    record = _family(p, q)
    assert record.centralizer == centralizer(alg, block)
    assert record.maximality(True) == is_maximal_subalgebra(alg, block)
    emb = embedding_iso(p, q, c)
    form, images = closed_form_embedding(p, q, c)
    assert emb.target_form == ipq_c(p, q, c) == form
    assert emb.images == images
    assert record.embedding_defect(c > 0) == _per_c_embedding_reason(alg, emb)
    reason, a1, r1 = record.killing_blocks
    assert reason is None
    assert (a1, c * r1) == _per_c_killing_constants(alg, p, q)


@pytest.mark.parametrize("p, q", SIGNATURES)
def test_c_zero_certificates_equal_the_per_c_oracles(p, q):
    """At c = 0 the centralizer is the same subspace, and maximality is
    certified on base alone."""
    alg = per_c_deformed_algebra(p, q, 0)
    block = _so_block(p, q)
    assert _family(p, q).centralizer == centralizer(alg, block)
    assert _family(p, q).maximality(False) == is_maximal_subalgebra(alg, block)


def test_suite_certifies_once_per_signature_and_sign(monkeypatch, record_builds):
    """Five values of c: one record, so one reading of the Killing blocks,
    one centralizer, two maximality closure sets (c = 0 and c != 0) and one
    embedding certificate per sign of c (its form's extra coordinate first
    for c > 0 and last for c < 0)."""
    from liepq.cli import run_suite

    calls = {"centralizer": [], "maximality": [], "embedding": []}

    def counted(key, real, record=lambda *args: args):
        return lambda *args: calls[key].append(record(*args)) or real(*args)

    monkeypatch.setattr(so_pq, "centralizer", counted("centralizer", centralizer))
    monkeypatch.setattr(
        so_pq, "is_maximal_subalgebra",
        counted("maximality", is_maximal_subalgebra, lambda alg, sub: len(alg.structure)),
    )
    monkeypatch.setattr(
        so_pq, "_graded_embedding_defect",
        counted("embedding", _graded_embedding_defect, lambda alg, deg, form, images: min(form[1]._data)),
    )
    report = run_suite("appendix", 3, 1, ["2", "-1", "0", "1/3", "-5/2"], [])
    assert report["overall"] == "pass"
    assert len(calls["centralizer"]) == 1
    base, vec = _family(3, 1).constants
    assert sorted(calls["maximality"]) == [len(base), len(base) + len(vec)]
    assert sorted(calls["embedding"]) == [0, 4]
    assert record_builds == [(3, 1)]
    assert [c["status"] for c in report["checks"] if c["name"] == "embedding_iso"] == [
        "pass", "pass", "skipped", "pass", "pass"
    ]


@pytest.mark.parametrize("part", ["vec", "base"])
def test_guard_refuses_a_family_graded_otherwise(monkeypatch, fresh_family_memos, part):
    """A c-dependent bracket with an so index, or a c-free bracket of two
    vectors, breaks the homogeneity every per-signature certificate rests
    on: the family refuses it, and each check fails on it."""
    from liepq.cli import run_check

    dim, base, vec = so_pq._deformation_constants(3, 1)
    m = dim - 4
    if part == "vec":
        vec = vec + [(0, m, m + 1, ONE)]
        message = "c-dependent bracket of the family has an so"
    else:
        base, vec = base + vec[:1], vec[1:]
        message = "c-free bracket of the family brackets two vectors"
    monkeypatch.setattr(so_pq, "_deformation_constants", lambda p, q: (dim, base, vec))
    with pytest.raises(ContractError, match=message):
        _family(3, 1).constants
    for name in ("centralizer_trivial", "maximality", "embedding_iso", "killing_blocks"):
        _, _, result = run_check(name, {"p": 3, "q": 1, "c": "2"})
        assert result["status"] == "fail"
        assert message in result["reason"]


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([(2, 1), (3, 1), (2, 2), (1, 3)]),
    st.booleans(),
    st.data(),
)
def test_perturbing_a_degree_1_image_entry_fails_the_embedding(signature, positive, data):
    """Adding 1 to any entry of the degree-1 part of any image (a vector's
    Q, or an so generator's zero part) is refused."""
    p, q = signature
    n = p + q
    form, images = _family(p, q).branch(positive)
    a = data.draw(st.integers(0, len(images) - 1), label="image")
    r = data.draw(st.integers(0, n), label="row")
    s = data.draw(st.integers(0, n), label="column")
    bent = list(images)
    bent[a] = (images[a][0], images[a][1] + Matrix.from_sparse(n + 1, n + 1, {(r, s): 1}))
    joint, degree = _family(p, q).algebra(True), dict.fromkeys(_family(p, q).constants[1], 1)
    assert _graded_embedding_defect(joint, degree, form, bent) is not None
    assert _graded_embedding_defect(joint, degree, form, images) is None


@pytest.mark.parametrize("positive", [True, False])
def test_a_degree_1_bend_inside_the_form_fails_the_brackets(positive):
    """Q_i + X for an so generator X keeps every image in so(I_{p,q}(c))
    (X preserves F0 and misses the extra coordinate), so only the bracket
    certificate can refuse it, in a degree above 0."""
    p, q = 3, 1
    form, images = _family(p, q).branch(positive)
    m = 6
    bent = list(images)
    bent[m] = (images[m][0], images[m][1] + images[0][0])
    degree = dict.fromkeys(_family(p, q).constants[1], 1)
    reason = _graded_embedding_defect(_family(p, q).algebra(True), degree, form, bent)
    assert reason.startswith("bracket not intertwined in degree ")
    assert not reason.startswith("bracket not intertwined in degree 0")


def test_injectivity_is_read_off_the_entries_no_degree_1_part_touches():
    """rho_a = E_01 and rho_b = E_02 + c.(E_01 - E_02) commute (row 0
    only) and stay in so of the zero form for every c, and their degree-0
    parts are independent, yet at c = 1 they are equal: only the entries
    where every degree-1 part vanishes may decide injectivity, and there
    both degree-0 parts are 0.  With the degree-1 part E_03 instead, they
    decide it."""
    from liepq.lie_core import LieAlgebra

    def row0(*cells):
        return Matrix.from_sparse(4, 4, {(0, j): f for j, f in cells})

    zero = Matrix.zeros(4, 4)
    abelian = LieAlgebra.from_structure(2, [])
    images = [(row0((1, 1)), zero), (row0((2, 1)), row0((1, 1), (2, -1)))]
    assert _graded_embedding_defect(abelian, {}, (zero,), images) == "embedding is not injective"
    images[1] = (images[1][0], row0((3, 1)))
    assert _graded_embedding_defect(abelian, {}, (zero,), images) is None


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(2, 1), (3, 1), (2, 2)]),
    st.booleans(),
    st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 99), st.integers(0, 4), st.integers(0, 4),
                  st.integers(-2, 2)),
        max_size=3,
    ),
)
def test_graded_pass_matches_the_pairwise_oracle_at_three_values_of_c(signature, positive, bends):
    """`_bracket_defect` on the branch's parts, some entries of their degree-0
    and degree-1 parts bent, against `pairwise_validate` on the images
    P + c.Q of the algebra built at c = 1, 2 and -1/3.  Every defect is a
    polynomial of degree <= 2 in c, zero exactly when it vanishes at three
    points, so the first failing pair of the graded pass is the first pair
    that fails at one of them."""
    p, q = signature
    n = p + q
    joint, degree = _family(p, q).algebra(True), dict.fromkeys(_family(p, q).constants[1], 1)
    _, images = _family(p, q).branch(positive)
    images = [list(parts) for parts in images]
    for d, a, r, s, v in bends:
        parts = images[a % len(images)]
        parts[d] = parts[d] + Matrix.from_sparse(n + 1, n + 1, {(r % (n + 1), s % (n + 1)): v})
    defect = _bracket_defect(joint, images, degree)
    failing = []
    for c in (Fraction(1), Fraction(2), Fraction(-1, 3)):
        rep = Representation(per_c_deformed_algebra(p, q, c), n + 1, [x + y.scale(c) for x, y in images])
        failing.append(pairwise_validate(rep))
    failing = [pair for pair in failing if pair is not None]
    if defect is None:
        assert failing == []
    else:
        assert defect[:2] == min(failing)


rational_c = st.builds(
    Fraction, st.integers(1, 40), st.integers(1, 12)
).flatmap(lambda c: st.sampled_from([c, -c]))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SIGNATURES), rational_c)
def test_complement_certificate_agrees_with_the_per_c_pipeline(signature, c):
    """At a random rational c of either sign, `complement_irreducible`,
    read off the per-sign certificate, has the verdict and the dimension of
    the per-c matrix pipeline: the complement in so(R^{n+1}, I_{p,q}(c)),
    the ad matrices, `restrict` and `is_irreducible`."""
    from liepq.cli import run_check

    p, q = signature
    _, _, result = run_check("complement_irreducible", {"p": p, "q": q, "c": str(c)})
    del result["elapsed_ms"]
    assert result == per_c_complement_verdict(p, q, c) == {"status": "pass", "dim": p + q}


def _complement_status(c):
    from liepq.cli import run_check

    return run_check("complement_irreducible", {"p": 3, "q": 1, "c": c})[2]["status"]


@pytest.mark.parametrize("positive", [True, False])
def test_a_vector_component_on_an_so_image_fails_the_complement(monkeypatch, fresh_family_memos, positive):
    """E_{x,r} added to the image of X_0, x the extra coordinate and r the
    place of coordinate 1: the complement check fails, and so does the
    per-c pipeline.  With the embedding certificate forced to pass, the
    orthogonality pass alone still refuses it: tr(rho(X_0).rho(e_1)) is
    not zero."""
    real = _Family.branch

    def bent(record, sign):
        form, images = real(record, sign)
        n = record.p + record.q
        extra, r = (0, 2) if sign else (n, 1)
        images = list(images)
        images[0] = (images[0][0] + Matrix.from_sparse(n + 1, n + 1, {(extra, r): 1}), images[0][1])
        return form, images

    monkeypatch.setattr(_Family, "branch", bent)
    c = "2" if positive else "-1/3"
    assert _complement_status(c) == "fail"
    assert per_c_complement_verdict(3, 1, Fraction(c))["status"] == "fail"
    so_pq._family.cache_clear()
    monkeypatch.setattr(_Family, "embedding_defect", lambda record, sign: None)
    assert _family(3, 1).complement_defect(positive) == "tr(rho(X_0).rho(e_1)) is not zero in degree 1"


@pytest.mark.parametrize("positive", [True, False])
def test_the_trace_pass_sums_the_parts_over_their_common_denominator(monkeypatch, fresh_family_memos, positive):
    """The image of X_0 bent by 1/2 at (x, r) in degree 0 and by 1/2 at
    (r, x) and 1/3 at (r, r) in degree 1, x the extra coordinate and r the
    place of coordinate 1: tr(rho(X_0).rho(e_1)) is 1/2 - 1/2 = 0 in degree
    1, which a sum of the integer rows over their own denominators (2 and 6)
    would read as 1 - 3; with the embedding certificate forced to pass, the
    pass accepts the bend, and a bend of 1 at (x, r) alone it refuses."""
    real = _Family.branch
    n = 4
    x, r = (0, 2) if positive else (n, 1)

    def bent(record, sign, entries):
        form, images = real(record, sign)
        parts = tuple(part + Matrix.from_sparse(n + 1, n + 1, entries[d]) for d, part in enumerate(images[0]))
        return form, (parts,) + images[1:]

    monkeypatch.setattr(_Family, "embedding_defect", lambda record, sign: None)
    halves = [{(x, r): Fraction(1, 2)}, {(r, x): Fraction(1, 2), (r, r): Fraction(1, 3)}]
    monkeypatch.setattr(_Family, "branch", lambda record, sign: bent(record, sign, halves))
    assert _family(3, 1).complement_defect(positive) is None
    so_pq._family.cache_clear()
    ones = [{(x, r): 1}, {}]
    monkeypatch.setattr(_Family, "branch", lambda record, sign: bent(record, sign, ones))
    assert _family(3, 1).complement_defect(positive) == "tr(rho(X_0).rho(e_1)) is not zero in degree 1"


def _trace_pass(p, q, positive, images):
    """The trace pass of `complement_defect` alone, on the given branch
    images: a fresh record with (E) and the c-free facts read as passing."""
    record = _Family(p, q)
    record.__dict__["standard_complement_defect"] = None
    record._branches[("embedding_defect", positive)] = None
    record._branches[("branch", positive)] = (None, images)
    return record.complement_defect(positive)


@pytest.mark.parametrize("p, q", SIGNATURES)
def test_the_trace_contraction_matches_the_partners_loop(p, q):
    """The one `_trace_contraction` of the trace pass gives the verdict and
    the reason of the partners loop it replaced, on both branches and on
    one-entry bends of an so image onto the extra row or column, of 1 in
    degree 0 and of 1/2 in degree 1, at every place r."""
    n = p + q
    m = n * (n - 1) // 2
    for positive in (True, False):
        _, images = _Family(p, q).branch(positive)
        assert _trace_pass(p, q, positive, images) is None
        assert partners_trace_defect(images, m) is None
        extra = 0 if positive else n
        for a in sorted({0, m // 2, m - 1}):
            for r in range(n + 1):
                for entry in ((extra, r), (r, extra)):
                    for d, value in ((0, ONE), (1, Fraction(1, 2))):
                        parts = list(images[a])
                        parts[d] = parts[d] + Matrix.from_sparse(n + 1, n + 1, {entry: value})
                        bent = images[:a] + (tuple(parts),) + images[a + 1:]
                        reason = partners_trace_defect(bent, m)
                        assert _trace_pass(p, q, positive, bent) == reason
                        if r != extra:
                            assert reason is not None and reason.startswith(f"tr(rho(X_{a}).")


def test_a_base_value_leaving_v_fails_the_complement(monkeypatch, fresh_family_memos):
    """[X_0, e_0] with an so component X_1 added: the check fails, and
    both (E) and (G) refuse it on their own, neither running the Jacobi
    pass, which refuses it too."""
    dim, base, vec = so_pq._deformation_constants(3, 1)
    m = dim - 4
    monkeypatch.setattr(so_pq, "_deformation_constants", lambda p, q: (dim, base + [(0, m, 1, ONE)], vec))
    assert _complement_status("2") == "fail"
    record = _family(3, 1)
    assert record.embedding_defect(True).startswith("bracket not intertwined in degree 0")
    assert record.standard_complement_defect == "[X_0, e_0] is not column 0 of X_0 on the vectors"
    assert "jacobi" not in vars(record)
    with pytest.raises(ContractError, match="Jacobi identity fails"):
        record.jacobi


def test_a_changed_entry_of_the_standard_action_fails_the_complement(monkeypatch, fresh_family_memos):
    """One entry of X_0 in `standard_rep` changed: the family's brackets
    are no longer the standard action, and (G) refuses it."""
    real = so_pq.standard_rep

    def bent(p, q):
        rep = real(p, q)
        actions = list(rep.actions)
        actions[0] = actions[0] + Matrix.from_sparse(p + q, p + q, {(2, 3): 1})
        return Representation(rep.algebra, rep.module_dim, actions)

    monkeypatch.setattr(so_pq, "standard_rep", bent)
    assert _complement_status("2") == "fail"
    assert _family(3, 1).standard_complement_defect == "[X_0, e_3] is not column 3 of X_0 on the vectors"


def _form_defect_by_products(form, images):
    """The form certificate by matrix products: the lowest degree in which
    sum over d + e = g of A_d^t.F_e + F_e.A_d is not zero, for the first
    image where one is, or None."""
    for parts in images:
        sums = {}
        for d, x in enumerate(parts):
            for e, f in enumerate(form):
                term = x.transpose() @ f + f @ x
                sums[d + e] = sums[d + e] + term if d + e in sums else term
        bad = [g for g, s in sums.items() if not s.is_zero()]
        if bad:
            return f"image leaves so(R^{{n+1}}, I_{{p,q}}(c)) in degree {min(bad)}"
    return None


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(2, 1), (3, 1), (2, 2)]),
    st.booleans(),
    st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 99), st.integers(0, 4), st.integers(0, 4),
                  st.integers(-2, 2), st.integers(1, 3)),
        max_size=3,
    ),
)
def test_form_certificate_matches_the_products(signature, positive, bends):
    """The form certificate, one `_intertwining_defect` vector per term
    summed over the terms' common denominator, against the products
    A_d^t.F_e + F_e.A_d, on the branch with entries of either degree bent
    by v/k, so that the terms of one degree have different denominators."""
    p, q = signature
    n = p + q
    form, images = _family(p, q).branch(positive)
    images = [list(parts) for parts in images]
    for d, a, r, s, v, k in bends:
        parts = images[a % len(images)]
        parts[d] = parts[d] + Matrix.from_sparse(n + 1, n + 1, {(r % (n + 1), s % (n + 1)): Fraction(v, k)})
    expected = _form_defect_by_products(form, images)
    reason = _graded_embedding_defect(_family(p, q).algebra(True), {}, form, images)
    if expected is None:
        assert reason is None or not reason.startswith("image leaves")
    else:
        assert reason == expected


def test_tc_iso_rank_reads_rank_t1_once_and_compares_t_c_at_each_c(monkeypatch, fresh_family_memos):
    """rank T_1 is one kernel per (p, q); every c still compares T_c with
    c.T_1, so a bent T_c fails at its own c and nowhere else."""
    import liepq.checks as checks
    from liepq.cli import run_check

    kernels = []
    real_kernel = so_pq.kernel
    monkeypatch.setattr(so_pq, "kernel", lambda a: kernels.append(a.cols) or real_kernel(a))
    ranks = {}
    for c in ("2", "-1", "0", "1/3"):
        _, _, result = run_check("tc_iso_rank", {"p": 3, "q": 1, "c": c})
        ranks[c] = (result["status"], result["rank"])
    assert ranks == {"2": ("pass", 6), "-1": ("pass", 6), "0": ("pass", 0), "1/3": ("pass", 6)}
    assert kernels == [6]
    real_t_c = checks.t_c

    def bent(p, q, c):
        t = real_t_c(p, q, c)
        return t + Matrix.from_sparse(t.rows, t.cols, {(0, 1): 1}) if c == Fraction(1, 3) else t

    monkeypatch.setattr(checks, "t_c", bent)
    statuses = [run_check("tc_iso_rank", {"p": 3, "q": 1, "c": c})[2] for c in ("2", "1/3")]
    assert statuses[0]["status"] == "pass"
    assert statuses[1] == {"status": "fail", "reason": "T_c is not c.T_1", "elapsed_ms": statuses[1]["elapsed_ms"]}


def test_an_inconclusive_standard_module_fails_the_complement(monkeypatch, fresh_family_memos):
    """(R) decides the complement: an R^{p,q} verdict other than
    IRREDUCIBLE fails the check with that verdict."""
    from liepq.rep_theory import IrreducibilityVerdict

    monkeypatch.setattr(so_pq, "is_irreducible", lambda rep: IrreducibilityVerdict("INCONCLUSIVE", endo_dim=2))
    assert _complement_status("2") == "fail"
    assert _family(3, 1).standard_complement_defect == "R^{p,q} verdict INCONCLUSIVE, endo_dim 2"


# -- the sign branch: one memoized object behind every reader -------------

SQUARE_C = ["1/4", "1", "9/4", "4", "-1/4", "-1", "-9/4", "-4"]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SIGNATURES), st.sampled_from(SQUARE_C))
def test_sqrt_conjugation_certificate_agrees_with_the_per_image_oracle(signature, c):
    """At a perfect-square c of either sign, S.J.S = I_{p,q}(c) and the
    embedding certificate of the sign give the verdict of conjugating every
    image by S and testing it against J."""
    from liepq.cli import run_check

    p, q = signature
    _, _, result = run_check("sqrt_conjugation", {"p": p, "q": q, "c": c})
    del result["elapsed_ms"]
    assert result == per_image_sqrt_conjugation(p, q, c) == {"status": "pass"}


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(SIGNATURES),
    st.sampled_from(SQUARE_C),
    st.data(),
)
def test_a_vector_image_bent_by_one_entry_fails_the_check_and_the_oracle(signature, c, data):
    """One entry added to one part of one vector image: the diagonal form
    I_{p,q}(c) has no zero on its diagonal, so the conjugate leaves so(J)
    (the oracle), and the check refuses it through the embedding
    certificate, which S.J.S = I_{p,q}(c) alone would not."""
    import liepq.checks as checks

    p, q = signature
    n = p + q
    real = _Family.branch
    i = data.draw(st.integers(0, n - 1), label="vector")
    d = data.draw(st.integers(0, 1), label="part")
    r = data.draw(st.integers(0, n), label="row")
    s = data.draw(st.integers(0, n), label="column")

    def bent(record, positive):
        form, images = real(record, positive)
        a = len(images) - n + i
        parts = list(images[a])
        parts[d] = parts[d] + Matrix.from_sparse(n + 1, n + 1, {(r, s): 1})
        return form, images[:a] + (tuple(parts),) + images[a + 1:]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Family, "branch", bent)
        so_pq._family.cache_clear()
        try:
            assert per_image_sqrt_conjugation(p, q, c)["status"] == "fail"
            result = checks.check_sqrt_conjugation(p, q, Fraction(c))
        finally:
            so_pq._family.cache_clear()
    assert result["status"] == "fail"
    assert result["reason"].startswith("image leaves so(R^{n+1}, I_{p,q}(c)) in degree")


@pytest.mark.parametrize("c", ["4", "9/4", "-1/4", "-4"])
def test_a_sqrt_at_the_wrong_coordinate_fails_the_identity(monkeypatch, c):
    """S with sqrt|c| on a coordinate other than the extra one: S.J.S is
    not I_{p,q}(c), and the conjugated images leave so(J)."""
    import liepq.checks as checks

    p, q = 3, 1
    n = p + q

    def misplaced(p, q, c):
        root = rational_sqrt(abs(c))
        diagonal = [1] * (n + 1)
        diagonal[2] = root  # the extra coordinate is 0 (c > 0) or n (c < 0)
        return Matrix.diagonal(diagonal)

    monkeypatch.setattr(checks, "sqrt_conjugation", misplaced)
    monkeypatch.setattr(so_pq, "sqrt_conjugation", misplaced)
    assert checks.check_sqrt_conjugation(p, q, Fraction(c)) == {
        "status": "fail", "reason": "S.J.S is not I_{p,q}(c)"
    }
    assert per_image_sqrt_conjugation(p, q, c)["status"] == "fail"


def test_every_reader_of_a_sign_shares_one_branch(monkeypatch, record_builds):
    """`embedding_iso` at several c, `ipq_c`, `sqrt_conjugation` and the
    certificates of one sign build the branch once, as tuples; the so
    images at two c of one sign are the same objects."""
    from liepq.cli import run_check

    raw, built = _Family.branch.__wrapped__, []

    def branch(record, positive):
        built.append(positive)
        return raw(record, positive)

    monkeypatch.setattr(_Family, "branch", so_pq._per_branch(branch))
    p, q = 3, 1
    m = 6
    first, second = embedding_iso(p, q, 2), embedding_iso(p, q, Fraction(1, 3))
    ipq_c(p, q, 5)
    sqrt_conjugation(p, q, 4)
    assert _family(p, q).embedding_defect(True) is None
    assert _family(p, q).complement_defect(True) is None
    assert run_check("sqrt_conjugation", {"p": p, "q": q, "c": "9/4"})[2]["status"] == "pass"
    assert built == [True]
    assert all(a is b for a, b in zip(first.images[:m], second.images[:m]))
    negative = embedding_iso(p, q, -1)
    ipq_c(p, q, Fraction(-1, 2))
    assert _family(p, q).embedding_defect(False) is None
    assert built == [True, False]
    assert all(a is b for a, b in zip(negative.images[:m], embedding_iso(p, q, -3).images[:m]))
    form, images = _family(p, q).branch(True)
    assert type(form) is tuple and type(images) is tuple
    assert all(type(parts) is tuple for parts in images)
    assert built == [True, False]
    assert record_builds == [(3, 1)]


def test_sqrt_conjugation_makes_at_most_two_products_once_the_memos_are_warm(monkeypatch):
    """S.J.S is the only product at c; the conjugation of every image, four
    products each, is gone."""
    import sys

    from liepq import exact_linalg
    from liepq.cli import run_check

    params = {"p": 4, "q": 4, "c": "4"}
    assert run_check("sqrt_conjugation", params)[2]["status"] == "pass"
    real, calls = exact_linalg.mat_mul, []

    def counted(a, b):
        calls.append((a.rows, b.cols))
        return real(a, b)

    for name, module in list(sys.modules.items()):
        if name.startswith("liepq") and getattr(module, "mat_mul", None) is real:
            monkeypatch.setattr(module, "mat_mul", counted)
    assert run_check("sqrt_conjugation", params)[2]["status"] == "pass"
    assert 0 < len(calls) <= 2


def test_a_signature_sweep_builds_each_record_once(monkeypatch, record_builds):
    """`embedding_iso` and (E) at c = 1 and c = -1 over the 39 signatures
    with 3 <= n <= 8, twice: 78 (p, q, sign) keys, but one record per
    signature, so the first sweep builds 39 records and 78 certificates and
    the second builds none."""
    certified = []
    monkeypatch.setattr(
        so_pq, "_graded_embedding_defect",
        lambda *args: certified.append(args[2][1]) or _graded_embedding_defect(*args),
    )
    signatures = [(p, n - p) for n in range(3, 9) for p in range(n + 1)]
    for sweep in range(2):
        for p, q in signatures:
            for c in (1, -1):
                embedding_iso(p, q, c)
                assert _family(p, q).embedding_defect(c > 0) is None
        assert len(record_builds) == 39
        assert len(certified) == 78
    assert sorted(record_builds) == sorted(signatures)


def test_a_lone_sqrt_check_runs_no_jacobi_pass(fresh_family_memos, jacobi_passes):
    """(E) reads the constants and the sign branch, not the Jacobi pass: a
    first sqrt_conjugation check at (8,8), c = 4, runs none, and
    deformed_jacobi then runs the one pass of the record."""
    from liepq.cli import run_check

    params = {"p": 8, "q": 8, "c": "4"}
    assert run_check("sqrt_conjugation", params)[2]["status"] == "pass"
    assert jacobi_passes == []
    assert run_check("deformed_jacobi", params)[2]["status"] == "pass"
    assert jacobi_passes == [136]
