import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liepq.errors import ContractError
from liepq.exact_linalg import rat
from liepq.weyl_enum import (
    WeightVector,
    enumerate_up_to_dim,
    no_simple_complex_algebra_of_dim,
    root_system,
    weyl_dim,
)

from conftest import (
    brute_force_weights, fundamental_combination, positive_roots, root_product_weyl_dim, root_sum_rho,
)


def test_positive_root_counts_and_rho():
    b3 = root_system("B", 3)
    assert len(positive_roots(b3)) == 9
    assert b3.rho.coords == (rat("5/2"), rat("3/2"), rat("1/2"))
    d4 = root_system("D", 4)
    assert len(positive_roots(d4)) == 12
    assert d4.rho.coords == (rat(3), rat(2), rat(1), rat(0))


@pytest.mark.parametrize("kind", ["B", "D"])
def test_closed_form_rho_is_half_the_sum_of_the_positive_roots(kind):
    for rank in range(2, 21):
        rs = root_system(kind, rank)
        assert list(rs.rho.coords) == root_sum_rho(rs)


@st.composite
def dominant_weights(draw):
    """(root system, weight) for B or D of rank 2 to 8, the weight a sum of
    fundamental weights with coefficients 0 to 4."""
    rs = root_system(draw(st.sampled_from("BD")), draw(st.integers(2, 8)))
    coefficients = draw(st.lists(st.integers(0, 4), min_size=rs.rank, max_size=rs.rank))
    return rs, fundamental_combination(rs, coefficients)


@given(dominant_weights())
@settings(max_examples=150, deadline=None)
def test_closed_form_weyl_dim_equals_the_root_by_root_product(case):
    rs, lam = case
    assert weyl_dim(rs, lam) == root_product_weyl_dim(rs, lam)


@pytest.mark.parametrize(
    "kind, rank, bound",
    [("B", 2, 200), ("D", 2, 60), ("B", 3, 37), ("D", 3, 200), ("B", 3, 200), ("D", 4, 200),
     ("B", 4, 200), ("D", 5, 16), ("D", 5, 200), ("B", 5, 200)],
)
def test_enumeration_equals_the_brute_force_oracle(kind, rank, bound):
    rs = root_system(kind, rank)
    assert enumerate_up_to_dim(rs, bound) == brute_force_weights(rs, bound)


def test_weyl_dim_trivial_weight():
    for rs in (root_system("B", 2), root_system("D", 4)):
        assert weyl_dim(rs, WeightVector([0] * rs.rank)) == 1


def test_weyl_dim_d4_vector_and_spins():
    d4 = root_system("D", 4)
    assert weyl_dim(d4, WeightVector([1, 0, 0, 0])) == 8
    assert weyl_dim(d4, WeightVector(["1/2", "1/2", "1/2", "1/2"])) == 8
    assert weyl_dim(d4, WeightVector(["1/2", "1/2", "1/2", "-1/2"])) == 8


def test_weyl_dim_adjoint_b2():
    # highest root of B2 is e1 + e2; its module is the 10-dim adjoint
    assert weyl_dim(root_system("B", 2), WeightVector([1, 1])) == 10


def test_weyl_dim_rejects_non_dominant():
    with pytest.raises(ContractError):
        weyl_dim(root_system("B", 2), WeightVector([0, 1]))
    with pytest.raises(ContractError):
        weyl_dim(root_system("D", 3), WeightVector([1, 1, 2]))


def test_weyl_dim_rejects_mixed_integrality():
    with pytest.raises(ContractError):
        weyl_dim(root_system("B", 2), WeightVector([1, "1/2"]))


@pytest.mark.parametrize(
    "kind,rank,bound,dims",
    [
        ("B", 2, 5, [4, 5]),
        ("D", 3, 6, [4, 4, 6]),
        ("D", 4, 8, [8, 8, 8]),
        ("B", 3, 7, [7]),
        ("B", 4, 9, [9]),
        ("D", 5, 10, [10]),
    ],
)
def test_enumeration_tables(kind, rank, bound, dims):
    table = enumerate_up_to_dim(root_system(kind, rank), bound)
    assert sorted(d for _, d in table) == dims


def test_enumeration_closed_under_chirality_flip():
    for rank in (4, 5):
        rs = root_system("D", rank)
        table = enumerate_up_to_dim(rs, 2 ** (rank - 1))
        weights = {w.coords for w, _ in table}
        flipped = {tuple(list(c[:-1]) + [-c[-1]]) for c in weights}
        assert weights == flipped


def test_b_r_minimum_dimension_once_spin_exceeds():
    for r in (3, 4, 5):
        rs = root_system("B", r)
        table = enumerate_up_to_dim(rs, 2 * r + 1)
        assert min(d for _, d in table) == 2 * r + 1
        assert 2 ** r > 2 * r + 1


def test_vector_weights_cross_check():
    for r in range(2, 9):
        lam = WeightVector([1] + [0] * (r - 1))
        assert weyl_dim(root_system("D", r), lam) == 2 * r
        assert weyl_dim(root_system("B", r), lam) == 2 * r + 1


def test_small_rank_flags():
    assert root_system("D", 2).flag is not None
    assert root_system("D", 3).flag is not None
    assert root_system("D", 4).flag is None
    assert root_system("B", 2).flag is None
    with pytest.raises(ContractError):
        root_system("B", 1)
    with pytest.raises(ContractError):
        root_system("A", 3)


def test_simple_dimension_scan():
    assert no_simple_complex_algebra_of_dim(18) == (True, [])
    assert no_simple_complex_algebra_of_dim(5) == (True, [])
    absent, cands = no_simple_complex_algebra_of_dim(36)
    assert not absent
    assert {(t, r) for t, r, _ in cands} == {("B", 4), ("C", 4)}
    absent, cands = no_simple_complex_algebra_of_dim(10)
    assert not absent
    assert {(t, r) for t, r, _ in cands} == {("B", 2), ("C", 2)}
    absent, cands = no_simple_complex_algebra_of_dim(14)
    assert not absent
    assert ("G2", None) in {(t, r) for t, r, _ in cands}
    assert no_simple_complex_algebra_of_dim(3)[1][0][:2] == ("A", 1)


@pytest.mark.parametrize(
    "d, expected",
    [(323, {("A", 17)}), (595, {("B", 17), ("C", 17)}), (120, {("A", 10), ("D", 8)})],
)
def test_simple_dimension_scan_reaches_every_rank(d, expected):
    absent, cands = no_simple_complex_algebra_of_dim(d)
    assert not absent
    assert {(t, r) for t, r, _ in cands} == expected
