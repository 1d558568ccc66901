"""The appendix facts `verify` certifies once per signature or once per sign
of c, read off the deformation family in `so_pq`, against the per-c
computations they replace: the centralizer and the maximality closures of
the so(p,q) block, the embedding into so(R^{n+1}, I_{p,q}(c)), the Killing
blocks, the irreducible complement and rank T_c; the grading those
certificates rest on, checked on the constants and on the supports of the
branch; and the homomorphism pass they share with `Representation.validate`,
read at c = 1 or -1, against the pairwise oracle at three values of c."""

import re
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
    _embedding_defect,
    _family,
    embedding_iso,
    ipq,
    ipq_c,
    so_pq_algebra,
    sqrt_conjugation,
)

from conftest import (
    closed_form_embedding, pairwise_validate, partners_trace_defect, per_c_complement_verdict,
    per_c_deformed_algebra, per_image_sqrt_conjugation, with_constant,
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
    closed-form matrices of the formulas; the whole Killing gram of
    `deformed_algebra`, K0 + c.K1, is that of the algebra."""
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
    assert so_pq.deformed_algebra(p, q, c).algebra.killing_form().gram == alg.killing_form().gram


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
    embedding certificate per sign of c, read at c = 1 and c = -1 (the
    negative index of the form at c is q, then q + 1)."""
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
        so_pq, "_embedding_defect",
        counted("embedding", _embedding_defect, lambda alg, form, images: sum(form[i, i] < 0 for i in range(5))),
    )
    report = run_suite("appendix", 3, 1, ["2", "-1", "0", "1/3", "-5/2"], [])
    assert report["overall"] == "pass"
    assert len(calls["centralizer"]) == 1
    base, vec = _family(3, 1).constants
    assert sorted(calls["maximality"]) == [len(base), len(base) + len(vec)]
    assert sorted(calls["embedding"]) == [1, 2]
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

    base, vec = so_pq._deformation_constants(3, 1)
    m = so_pq.so_pq_algebra(3, 1).dim
    if part == "vec":
        vec = with_constant(vec, 0, m, m + 1, ONE)
        message = "c-dependent bracket of the family has an so"
    else:
        first = next(iter(vec))
        base, vec = {**base, first: vec[first]}, {key: e for key, e in vec.items() if key != first}
        message = "c-free bracket of the family brackets two vectors"
    monkeypatch.setattr(so_pq, "_deformation_constants", lambda p, q: (base, vec))
    with pytest.raises(ContractError, match=message):
        _family(3, 1).constants
    for name in ("centralizer_trivial", "maximality", "embedding_iso", "killing_blocks"):
        _, _, result = run_check(name, {"p": 3, "q": 1, "c": "2"})
        assert result["status"] == "fail"
        assert message in result["reason"]


@pytest.mark.parametrize(
    "rule, message",
    [
        ("vec", "a c-dependent bracket of two vectors leaves so(p,q)"),
        ("so x so", "a c-free bracket of two so(p,q) indices leaves so(p,q)"),
        ("so x V", "a c-free bracket of so(p,q) and a vector leaves the vectors"),
    ],
)
def test_each_value_rule_of_the_grading_refuses_its_own_mutation(monkeypatch, fresh_family_memos, rule, message):
    """A key of the right kind with a value of the wrong weight: [e_0, e_1]
    with an e_2 part, [X_0, X_1] with an e_0 part, [X_0, e_0] with an X_1
    part.  The keys pass, the values do not, and each check that reads the
    record fails with the rule's own reason."""
    from liepq.cli import run_check

    base, vec = so_pq._deformation_constants(3, 1)
    m = so_pq.so_pq_algebra(3, 1).dim
    if rule == "vec":
        vec = with_constant(vec, m, m + 1, m + 2, ONE)
    else:
        base = with_constant(base, 0, 1, m, ONE) if rule == "so x so" else with_constant(base, 0, m, 1, ONE)
    monkeypatch.setattr(so_pq, "_deformation_constants", lambda p, q: (base, vec))
    with pytest.raises(ContractError, match=re.escape(message)):
        _family(3, 1).constants
    for name in ("deformed_jacobi", "embedding_iso", "killing_blocks", "complement_irreducible"):
        _, _, result = run_check(name, {"p": 3, "q": 1, "c": "2"})
        assert result["status"] == "fail"
        assert message in result["reason"]


def _certificate(p, q, positive, branch):
    """(E) of a fresh record of (p, q) whose branch of the sign is the
    given (form, images)."""
    record = _Family(p, q)
    record._branches[("branch", positive)] = branch
    return record.embedding_defect(positive)


def _at_sign(branch, sign):
    """(form, images) of a branch at c = sign: F0 + sign.F1 and P + sign.Q."""
    (f0, f1), images = branch
    return f0 + f1.scale(sign), [y + z.scale(sign) for y, z in images]


def _bent_branch(p, q, positive, rule):
    """The branch of the sign with one part moved off its support, for
    each support rule: F1 doubled, or F0 given an entry at (x, x); X_0's
    image given a c part, or an entry at (x, r); P of e_0 given an entry
    off row x; Q of e_0 given one off column x, or at (x, x)."""
    n = p + q
    (f0, f1), images = _family(p, q).branch(positive)
    x, r = (0, 1) if positive else (n, 0)
    m = n * (n - 1) // 2
    images = list(images)

    def unit(i, j):
        return Matrix.from_sparse(n + 1, n + 1, {(i, j): 1})

    if rule == "form":
        f1 = f1.scale(2)
    elif rule == "form at x":
        f0 = f0 + unit(x, x)
    elif rule == "so c part":
        images[0] = (images[0][0], unit(r, r + 1))
    elif rule == "so at x":
        images[0] = (images[0][0] + unit(x, r), images[0][1])
    elif rule == "P":
        images[m] = (images[m][0] + unit(r, r + 1), images[m][1])
    elif rule == "Q":
        images[m] = (images[m][0], images[m][1] + unit(r + 1, r))
    else:  # Q at (x, x)
        images[m] = (images[m][0], images[m][1] + unit(x, x))
    return (f0, f1), tuple(images)


SUPPORT_REASONS = {
    "form": "the form is not F0 + c.E_{x,x} with F0 off row and column x",
    "form at x": "the form is not F0 + c.E_{x,x} with F0 off row and column x",
    "so c part": "the image of X_0 depends on c or meets the extra coordinate",
    "so at x": "the image of X_0 depends on c or meets the extra coordinate",
    "P": "the c-free part of the image of e_0 leaves row x",
    "Q": "the c part of the image of e_0 leaves column x",
    "Q at x": "the c part of the image of e_0 leaves column x",
}


@pytest.mark.parametrize("positive", [True, False])
@pytest.mark.parametrize("rule", list(SUPPORT_REASONS))
def test_each_support_rule_of_the_branch_refuses_its_own_mutation(positive, rule):
    """One part of the branch moved off the support the grading lemma needs
    is refused by (E) with the reason of its rule, before any certificate
    at the representative runs."""
    for p, q in ((3, 1), (2, 2), (1, 2)):
        assert _certificate(p, q, positive, _bent_branch(p, q, positive, rule)) == SUPPORT_REASONS[rule]


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([(2, 1), (3, 1), (2, 2), (1, 3)]),
    st.booleans(),
    st.data(),
)
def test_perturbing_a_degree_1_image_entry_fails_the_embedding(signature, positive, data):
    """Adding 1 to any entry of the degree-1 part of any image (a vector's
    Q, or an so generator's zero part) is refused: on an so image or off
    column x by the supports, in column x by the form at the
    representative."""
    p, q = signature
    n = p + q
    branch = _family(p, q).branch(positive)
    form, images = branch
    a = data.draw(st.integers(0, len(images) - 1), label="image")
    r = data.draw(st.integers(0, n), label="row")
    s = data.draw(st.integers(0, n), label="column")
    bent = list(images)
    bent[a] = (images[a][0], images[a][1] + Matrix.from_sparse(n + 1, n + 1, {(r, s): 1}))
    assert _certificate(p, q, positive, (form, tuple(bent))) is not None
    assert _certificate(p, q, positive, branch) is None


@pytest.mark.parametrize("positive", [True, False])
def test_a_degree_1_bend_inside_the_form_fails_the_brackets(positive):
    """Q_i + X for an so generator X keeps every image in so(I_{p,q}(c))
    (X preserves F0 and misses the extra coordinate) but takes Q off
    column x, so the supports refuse it; at the representative c = s, where
    the grading no longer speaks for every c, only the bracket certificate
    can refuse it, and it does."""
    p, q = 3, 1
    form, images = _family(p, q).branch(positive)
    m = 6
    bent = list(images)
    bent[m] = (images[m][0], images[m][1] + images[0][0])
    assert _certificate(p, q, positive, (form, tuple(bent))) == "the c part of the image of e_0 leaves column x"
    sign = 1 if positive else -1
    reason = _embedding_defect(_family(p, q).algebra(sign), *_at_sign((form, bent), sign))
    assert reason.startswith("bracket not intertwined: ")


def test_injectivity_is_read_off_the_images():
    """Two images that commute and stay in so of the zero form: equal, they
    are refused as not injective; independent, they pass."""
    from liepq.lie_core import LieAlgebra

    def row0(*cells):
        return Matrix.from_sparse(4, 4, {(0, j): f for j, f in cells})

    zero = Matrix.zeros(4, 4)
    abelian = LieAlgebra.from_structure(2, [])
    assert _embedding_defect(abelian, zero, [row0((1, 1)), row0((1, 1))]) == "embedding is not injective"
    assert _embedding_defect(abelian, zero, [row0((1, 1)), row0((3, 1))]) is None


def _support_bend(images, n, x, m, bend):
    """images with v added where the supports allow it: at (r, s) off row
    and column x of an so image, at (x, s) of a vector's P (d = 0) or at
    (r, x) of its Q (d = 1)."""
    d, a, r, s, v = bend
    others = [i for i in range(n + 1) if i != x]
    a, r, s = a % len(images), others[r % n], others[s % n]
    if a < m:
        cell, d = (r, s), 0
    else:
        cell = (x, s) if d == 0 else (r, x)
    parts = list(images[a])
    parts[d] = parts[d] + Matrix.from_sparse(n + 1, n + 1, {cell: v})
    return images[:a] + [tuple(parts)] + images[a + 1:]


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
    """`_bracket_defect` at the representative c = s = +-1, on the branch
    with entries bent where the supports allow, against `pairwise_validate`
    on the images P + c.Q of the algebra built at c = s, 2s and s/3: by the
    grading the pairs that fail at one c of the branch fail at every c of
    it, so each c has the first failing pair of the representative."""
    p, q = signature
    n = p + q
    m = n * (n - 1) // 2
    x = 0 if positive else n
    sign = 1 if positive else -1
    _, images = _family(p, q).branch(positive)
    images = list(images)
    for bend in bends:
        images = _support_bend(images, n, x, m, bend)
    defect = _bracket_defect(_family(p, q).algebra(sign), [y + z.scale(sign) for y, z in images])
    for c in (Fraction(sign), Fraction(2 * sign), Fraction(sign, 3)):
        rep = Representation(per_c_deformed_algebra(p, q, c), n + 1, [y + z.scale(c) for y, z in images])
        assert pairwise_validate(rep) == defect


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


SO_IMAGE_OFF_X = "the image of X_{a} depends on c or meets the extra coordinate"


@pytest.mark.parametrize("positive", [True, False])
def test_a_vector_component_on_an_so_image_fails_the_complement(monkeypatch, fresh_family_memos, positive):
    """E_{x,r} added to the image of X_0, x the extra coordinate and r the
    place of coordinate 1: the complement check fails, and so does the
    per-c pipeline.  tr(rho(X_0).rho(e_1)) is no longer zero, and the
    support rule of (E) that makes every such trace vanish refuses it."""
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
    assert _family(3, 1).complement_defect(positive) == SO_IMAGE_OFF_X.format(a=0)


def _complement_certificate(p, q, positive, images):
    """`complement_defect` of a fresh record whose branch of the sign has
    the given images, with the c-free facts read as passing."""
    record = _Family(p, q)
    record.__dict__["standard_complement_defect"] = None
    form, _ = record.branch(positive)
    record._branches[("branch", positive)] = (form, images)
    return record.complement_defect(positive)


@pytest.mark.parametrize("p, q", SIGNATURES)
def test_the_trace_contraction_matches_the_partners_loop(p, q):
    """The partners loop, the trace pass `complement_defect` used to run
    over the branch parts, and the certificate that replaced it with the
    supports of (E): both accept the unbent branches, and on one-entry bends
    of an so image onto the extra row or column, of 1 in degree 0 and of
    1/2 in degree 1, at every place r, the certificate refuses every bend
    the loop refuses (and the bends at (x, x) as well), naming the same so
    image."""
    n = p + q
    m = n * (n - 1) // 2
    for positive in (True, False):
        _, images = _Family(p, q).branch(positive)
        assert _complement_certificate(p, q, positive, images) is None
        assert partners_trace_defect(images, m) is None
        extra = 0 if positive else n
        for a in sorted({0, m // 2, m - 1}):
            for r in range(n + 1):
                for entry in ((extra, r), (r, extra)):
                    for d, value in ((0, ONE), (1, Fraction(1, 2))):
                        parts = list(images[a])
                        parts[d] = parts[d] + Matrix.from_sparse(n + 1, n + 1, {entry: value})
                        bent = images[:a] + (tuple(parts),) + images[a + 1:]
                        assert _complement_certificate(p, q, positive, bent) == SO_IMAGE_OFF_X.format(a=a)
                        reason = partners_trace_defect(bent, m)
                        if r != extra:
                            assert reason is not None and reason.startswith(f"tr(rho(X_{a}).")


def test_a_base_value_leaving_v_fails_the_complement(monkeypatch, fresh_family_memos):
    """[X_0, e_0] with an so component X_1 added: the check fails, and the
    grading (G) of the constants refuses it, so every fact of the record
    does: (E), the c-free facts of the complement and the Jacobi pass."""
    base, vec = so_pq._deformation_constants(3, 1)
    m = so_pq.so_pq_algebra(3, 1).dim
    monkeypatch.setattr(so_pq, "_deformation_constants", lambda p, q: (with_constant(base, 0, m, 1, ONE), vec))
    assert _complement_status("2") == "fail"
    record = _family(3, 1)
    message = r"a c-free bracket of so\(p,q\) and a vector leaves the vectors"
    readers = [lambda: record.embedding_defect(True), lambda: record.standard_complement_defect,
               lambda: record.jacobi]
    for read in readers:
        with pytest.raises(ContractError, match=message):
            read()


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
    """The form certificate by matrix products: the reason for the first
    image A with A^t.F + F.A not zero, or None."""
    for x in images:
        if not (x.transpose() @ form + form @ x).is_zero():
            return "image leaves so(R^{n+1}, I_{p,q}(c))"
    return None


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(2, 1), (3, 1), (2, 2)]),
    st.booleans(),
    st.lists(
        st.tuples(st.integers(0, 99), st.integers(0, 4), st.integers(0, 4), st.integers(-2, 2), st.integers(1, 3)),
        max_size=3,
    ),
)
def test_form_certificate_matches_the_products(signature, positive, bends):
    """The form certificate, one `_intertwining_defect` vector per image,
    against the products A^t.F + F.A, on the branch at its representative
    c = s with entries bent by v/k, so that the images have different
    denominators."""
    p, q = signature
    n = p + q
    sign = 1 if positive else -1
    form, images = _at_sign(_family(p, q).branch(positive), sign)
    for a, r, s, v, k in bends:
        a = a % len(images)
        images[a] = images[a] + Matrix.from_sparse(n + 1, n + 1, {(r % (n + 1), s % (n + 1)): Fraction(v, k)})
    expected = _form_defect_by_products(form, images)
    reason = _embedding_defect(_family(p, q).algebra(sign), form, images)
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
    assert result["reason"] in {
        f"the c-free part of the image of e_{i} leaves row x",
        f"the c part of the image of e_{i} leaves column x",
        "image leaves so(R^{n+1}, I_{p,q}(c))",
    }


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
        so_pq, "_embedding_defect",
        lambda *args: certified.append(args[1]) or _embedding_defect(*args),
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
