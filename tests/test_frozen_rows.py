"""No code in liepq writes a stored matrix row.

`Matrix` results may be operands and may share rows with them, which is
safe only while no stored row is written after construction.  The fixture
here makes every matrix the library builds store FrozenRow rows in a
FrozenRow row map: it replaces the `Matrix._data` slot by a property whose
setter stores the frozen rows, so that every construction path is caught
(the constructors, `_trusted` and the kernels that write their result's
slots themselves), and empties the memo caches so that no matrix built
before the patch is reused.  An in-place write into a row anywhere in
src/liepq then raises TypeError in the runs below.
"""

import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from liepq import so_pq
from liepq.cli import main
from liepq.exact_linalg import Matrix
from liepq.so_pq import deformed_algebra, embedding_iso

from conftest import FrozenRow, freeze_rows

GOLDEN = Path(__file__).resolve().parent / "golden"
ELAPSED = re.compile(r'"elapsed_ms":[-+0-9.eE]+,')
MEMOS = (so_pq.so_pq_algebra, so_pq.exceptional_iso, so_pq._family)


def _liepq_modules():
    return [m for name, m in list(sys.modules.items()) if name == "liepq" or name.startswith("liepq.")]


def _clear_memo_caches():
    """Empty the three memos of liepq: the so(p,q) algebras, the exceptional
    isomorphisms and the per-signature records, which hold every matrix a
    memo keeps (`test_the_memos_are_the_three_so_pq_ones` pins the list)."""
    for memo in MEMOS:
        memo.cache_clear()


@pytest.fixture
def frozen_rows(monkeypatch):
    slot = Matrix.__dict__["_data"]

    def store(m, data):
        slot.__set__(m, freeze_rows(data))

    monkeypatch.setattr(Matrix, "_data", property(slot.__get__, store))
    _clear_memo_caches()
    yield
    _clear_memo_caches()


def test_the_memos_are_the_three_so_pq_ones():
    """No module of liepq holds a memo that `_clear_memo_caches` misses."""
    found = {
        value
        for module in _liepq_modules()
        for value in vars(module).values()
        if callable(getattr(value, "cache_clear", None))
    }
    assert found == set(MEMOS)


def _assert_frozen(m):
    assert type(m._data) is FrozenRow
    assert all(type(row) is FrozenRow for row in m._data.values())


def test_the_patch_freezes_every_construction_path(frozen_rows):
    a = Matrix.from_rows([[1, 2], [0, Fraction(1, 3)]])
    b = Matrix.from_sparse(2, 2, {(1, 0): 5})
    c = Matrix.from_sparse(2, 2, {(0, 1): Fraction(1, 2)})  # c @ c is empty, over den 4
    for m in (a, b, Matrix.identity(2), a @ b, c @ c, a + b, a - b, -a, a.scale(3),
              a.scale(-1), a.transpose()):
        _assert_frozen(m)
    with pytest.raises(TypeError):
        a._data[0][1] = 7
    with pytest.raises(TypeError):
        (a + b)._data[1].pop(0)


@pytest.mark.parametrize("p, q", [(2, 1), (3, 1)])
def test_verify_all_writes_no_stored_row(frozen_rows, capsys, p, q):
    argv = ["verify", "--suite", "all", "--p", str(p), "--q", str(q), "--format", "json"]
    assert main(argv) == 0
    out = ELAPSED.sub("", capsys.readouterr().out)
    assert out == (GOLDEN / f"verify_all_p{p}_q{q}.json").read_text()


def _dense(m):
    return [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]


def _dense_commutator(x, y):
    n = len(x)
    prod = [[sum((x[i][t] * y[t][j] for t in range(n)), Fraction(0)) for j in range(n)]
            for i in range(n)]
    back = [[sum((y[i][t] * x[t][j] for t in range(n)), Fraction(0)) for j in range(n)]
            for i in range(n)]
    return [[s - t for s, t in zip(r, r2)] for r, r2 in zip(prod, back)]


def test_pairwise_embedding_check_writes_no_stored_row(frozen_rows):
    """The deform-grid check at (3,2), c = -3/4: every bracket pair through
    products, differences, scaled sums and equality, against a dense
    commutator of the images."""
    p, q, c = 3, 2, Fraction(-3, 4)
    alg = deformed_algebra(p, q, c).algebra
    images = embedding_iso(p, q, c).images
    n = p + q
    dense = [_dense(im) for im in images]
    for im in images:
        _assert_frozen(im)
    zero = Matrix.zeros(n + 1, n + 1)
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            lhs = images[i] @ images[j] - images[j] @ images[i]
            rhs = zero
            for k, v in alg.structure_entry(i, j).items():
                rhs = rhs + images[k].scale(v)
            assert lhs == rhs
            assert _dense(lhs) == _dense_commutator(dense[i], dense[j])
    assert [_dense(im) for im in images] == dense
