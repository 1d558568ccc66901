"""The appendix facts `verify` certifies once per signature or once per sign
of c, read off the deformation family in `so_pq`, against the per-c
computations they replace: the centralizer and the maximality closures of
the so(p,q) block, the embedding into so(R^{n+1}, I_{p,q}(c)) and the
Killing blocks; and the graded homomorphism pass they share with
`Representation.validate`, against the pairwise oracle at three values of c."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liepq import so_pq
from liepq.errors import ContractError
from liepq.exact_linalg import ONE, Echelon, Matrix, Subspace, proportionality
from liepq.lie_core import centralizer, is_maximal_subalgebra
from liepq.rep_theory import Representation, _bracket_defect
from liepq.so_pq import (
    _deformation_family,
    _embedding_branch,
    _graded_embedding_defect,
    embedding_iso,
    ipq,
    ipq_c,
    so_pq_algebra,
)

from conftest import pairwise_validate, per_c_deformed_algebra

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
    `embedding_iso` and `ipq_c` are the branch polynomials at c."""
    p, q = signature
    alg = per_c_deformed_algebra(p, q, c)
    block = _so_block(p, q)
    assert so_pq._so_centralizer(p, q) == centralizer(alg, block)
    assert so_pq._so_maximality(p, q, True) == is_maximal_subalgebra(alg, block)
    emb = embedding_iso(p, q, c)
    (f0, f1), images = _embedding_branch(p, q, c > 0)
    assert emb.target_form == ipq_c(p, q, c) == f0 + f1.scale(c)
    assert emb.images == [pc + qc.scale(c) for pc, qc in images]
    assert so_pq._embedding_defect(p, q, c > 0) == _per_c_embedding_reason(alg, emb)
    reason, a1, r1 = so_pq._killing_block_constants(p, q)
    assert reason is None
    assert (a1, c * r1) == _per_c_killing_constants(alg, p, q)


@pytest.mark.parametrize("p, q", SIGNATURES)
def test_c_zero_certificates_equal_the_per_c_oracles(p, q):
    """At c = 0 the centralizer is the same subspace, and maximality is
    certified on base alone."""
    alg = per_c_deformed_algebra(p, q, 0)
    block = _so_block(p, q)
    assert so_pq._so_centralizer(p, q) == centralizer(alg, block)
    assert so_pq._so_maximality(p, q, False) == is_maximal_subalgebra(alg, block)


def test_suite_certifies_once_per_signature_and_sign(monkeypatch, fresh_family_memos):
    """Five values of c: one centralizer, two maximality closure sets (c = 0
    and c != 0), one embedding certificate per sign of c and one reading of
    the Killing blocks."""
    from liepq.cli import run_suite

    monkeypatch.setenv("LIEPQ_THREADS", "1")
    calls = {"centralizer": [], "maximality": [], "embedding": []}

    def counted(key, real, record=lambda *args: args):
        return lambda *args: calls[key].append(record(*args)) or real(*args)

    monkeypatch.setattr(so_pq, "centralizer", counted("centralizer", centralizer))
    monkeypatch.setattr(
        so_pq, "is_maximal_subalgebra",
        counted("maximality", is_maximal_subalgebra, lambda alg, sub: len(alg.structure)),
    )
    monkeypatch.setattr(
        so_pq, "_embedding_branch", counted("embedding", _embedding_branch)
    )
    report = run_suite("appendix", 3, 1, ["2", "-1", "0", "1/3", "-5/2"], [])
    assert report["overall"] == "pass"
    assert len(calls["centralizer"]) == 1
    family = _deformation_family(3, 1)
    assert sorted(calls["maximality"]) == [len(family.base), len(family.base) + len(family.vec)]
    assert sorted(calls["embedding"]) == [(3, 1, False), (3, 1, True)]
    assert so_pq._killing_block_constants.cache_info().misses == 1
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
        _deformation_family(3, 1)
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
    form, images = _embedding_branch(p, q, positive)
    a = data.draw(st.integers(0, len(images) - 1), label="image")
    r = data.draw(st.integers(0, n), label="row")
    s = data.draw(st.integers(0, n), label="column")
    bent = list(images)
    bent[a] = (images[a][0], images[a][1] + Matrix.from_sparse(n + 1, n + 1, {(r, s): 1}))
    family = _deformation_family(p, q)
    degree = dict.fromkeys(family.vec, 1)
    assert _graded_embedding_defect(family.joint, degree, form, bent) is not None
    assert _graded_embedding_defect(family.joint, degree, form, images) is None


@pytest.mark.parametrize("positive", [True, False])
def test_a_degree_1_bend_inside_the_form_fails_the_brackets(positive):
    """Q_i + X for an so generator X keeps every image in so(I_{p,q}(c))
    (X preserves F0 and misses the extra coordinate), so only the bracket
    certificate can refuse it, in a degree above 0."""
    p, q = 3, 1
    form, images = _embedding_branch(p, q, positive)
    m = 6
    bent = list(images)
    bent[m] = (images[m][0], images[m][1] + images[0][0])
    family = _deformation_family(p, q)
    reason = _graded_embedding_defect(family.joint, dict.fromkeys(family.vec, 1), form, bent)
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
    family = _deformation_family(p, q)
    _, images = _embedding_branch(p, q, positive)
    images = [list(parts) for parts in images]
    for d, a, r, s, v in bends:
        parts = images[a % len(images)]
        parts[d] = parts[d] + Matrix.from_sparse(n + 1, n + 1, {(r % (n + 1), s % (n + 1)): v})
    defect = _bracket_defect(family.joint, images, dict.fromkeys(family.vec, 1))
    failing = []
    for c in (Fraction(1), Fraction(2), Fraction(-1, 3)):
        rep = Representation(per_c_deformed_algebra(p, q, c), n + 1, [x + y.scale(c) for x, y in images])
        failing.append(pairwise_validate(rep))
    failing = [pair for pair in failing if pair is not None]
    if defect is None:
        assert failing == []
    else:
        assert defect[:2] == min(failing)
