"""Root systems of types B_r and D_r, the Weyl dimension formula, and
bounded enumeration of dominant weights.

Everything is a statement about complex simple Lie algebras; real-form
questions (which modules carry invariant forms) are handled on explicitly
constructed modules elsewhere, never inferred from weight data.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ContractError
from .exact_linalg import Rational, rat


class _WeightFields(NamedTuple):
    coords: tuple


class WeightVector(_WeightFields):
    """Rational coordinates of a weight in the epsilon-basis."""

    __slots__ = ()

    def __new__(cls, coords):
        return super().__new__(cls, tuple(rat(c) for c in coords))

    @classmethod
    def _make(cls, iterable):  # so _replace coerces too
        return cls(*iterable)

    @property
    def rank(self) -> int:
        return len(self.coords)

    def __repr__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


class RootSystem(NamedTuple):
    kind: str  # "B" or "D"
    rank: int
    rho: WeightVector
    flag: str | None  # set on the degenerate/coincident small-rank cases

    @classmethod
    def create(cls, kind: str, rank: int) -> "RootSystem":
        if kind not in ("B", "D"):
            raise ContractError("only types B and D are supported")
        if rank < 2:
            raise ContractError("rank must be at least 2")
        # half the sum of the positive roots e_i -+ e_j (i < j), and e_i for
        # B: rank - i - 1, plus 1/2 for B
        rho = WeightVector([Rational(2 * (rank - i - 1) + (kind == "B"), 2) for i in range(rank)])
        flag = None
        if kind == "D" and rank == 2:
            flag = "D2 is not simple: so(4,C) = sl(2,C) x sl(2,C)"
        elif kind == "D" and rank == 3:
            flag = "D3 coincides with A3: so(6,C) = sl(4,C)"
        return cls(kind, rank, rho, flag)

    def is_dominant(self, lam: WeightVector) -> bool:
        c = lam.coords
        if len(c) != self.rank:
            return False
        for i in range(self.rank - 1):
            if c[i] < c[i + 1]:
                return False
        if self.kind == "B":
            return c[-1] >= 0
        return c[-2] >= abs(c[-1])

    def is_weight_integral(self, lam: WeightVector) -> bool:
        kinds = set()
        for c in lam.coords:
            twice = 2 * c
            if twice.denominator != 1:
                return False
            kinds.add(int(twice) % 2)
        return len(kinds) <= 1


def root_system(kind: str, rank: int) -> RootSystem:
    return RootSystem.create(kind, rank)


def _doubled(coords) -> list:
    """Twice the (half-)integral coordinates, as ints."""
    return [int(2 * c) for c in coords]


def _weyl_product(kind: str, l) -> int:
    """prod_{i<j} (l_i^2 - l_j^2), times prod_i l_i for type B: at l = 2(lambda+rho)
    the Weyl product over the positive roots e_i -+ e_j (and e_i) in closed form
    (Humphreys, Introduction to Lie Algebras and Representation Theory, 24.3),
    times a power of 2 that only the rank fixes and so cancels against 2.rho's."""
    squares = [x * x for x in l]
    out = math.prod(l) if kind == "B" else 1
    for i, a in enumerate(squares):
        for b in squares[i + 1:]:
            out *= a - b
    return out


def _doubled_dim(kind: str, l, den: int) -> int:
    """dim V_lambda from l = 2(lambda+rho) and den = _weyl_product at 2.rho."""
    dim, rem = divmod(_weyl_product(kind, l), den)
    if rem:
        raise AssertionError("Weyl dimension did not come out integral")
    return dim


def weyl_dim(rs: RootSystem, lam: WeightVector) -> int:
    """dim V_lambda = prod <lambda+rho, alpha> / <rho, alpha> over positive roots."""
    if not rs.is_dominant(lam):
        raise ContractError("weight is not dominant")
    if not rs.is_weight_integral(lam):
        raise ContractError("weight coordinates must be uniformly (half-)integral")
    rho = _doubled(rs.rho.coords)
    shifted = [a + b for a, b in zip(_doubled(lam.coords), rho)]
    return _doubled_dim(rs.kind, shifted, _weyl_product(rs.kind, rho))


def enumerate_up_to_dim(rs: RootSystem, bound: int):
    """All dominant nonzero (half-)integral weights with dimension <= bound.

    Search over fundamental-weight coefficients on doubled coordinates,
    pruned by the strict monotonicity of the dimension in every
    coefficient; output sorted by (dimension, coordinates).
    """
    if bound < 1:
        raise ContractError("bound must be at least 1")
    rho = _doubled(rs.rho.coords)
    den = _weyl_product(rs.kind, rho)
    r = rs.rank
    # twice the fundamental weights: 2(e_1 + ... + e_k), then the spin
    # weights, (1, ..., 1) for B and (1, ..., 1, -1), (1, ..., 1) for D
    spins = [[1] * r] if rs.kind == "B" else [[1] * (r - 1) + [-1], [1] * r]
    steps = [[2] * k + [0] * (r - k) for k in range(1, r + 1 - len(spins))] + spins
    found = []

    def descend(idx, l, dim):
        if idx == len(steps):
            lam = tuple(a - b for a, b in zip(l, rho))
            if any(lam):
                found.append((dim, lam))
            return
        # dimension is strictly increasing in every fundamental coefficient, so the
        # first coefficient that overshoots ends the scan; each leaf records this dim
        while dim <= bound:
            descend(idx + 1, l, dim)
            l = [a + b for a, b in zip(l, steps[idx])]
            dim = _doubled_dim(rs.kind, l, den)

    descend(0, rho, 1)
    return [(WeightVector([Rational(x, 2) for x in lam]), dim) for dim, lam in sorted(found)]


_EXCEPTIONAL_DIMS = {14: "G2", 52: "F4", 78: "E6", 133: "E7", 248: "E8"}


def no_simple_complex_algebra_of_dim(d: int):
    """Scan the classical and exceptional tables for simple complex Lie
    algebras of a given dimension.

    Returns (absent, candidates): absent is True when no simple complex Lie
    algebra of dimension d exists; candidates lists (type, rank, note).
    """
    if d < 1:
        raise ContractError("dimension must be positive")
    candidates = []
    # every simple algebra of rank r has dimension >= r(r+2) > r^2
    for r in range(1, math.isqrt(d) + 1):
        if r * (r + 2) == d:
            candidates.append(("A", r, None))
        if r >= 2 and r * (2 * r + 1) == d:
            candidates.append(("B", r, None))
            note = "C2 = B2 (so(5,C) = sp(4,C))" if r == 2 else None
            candidates.append(("C", r, note))
        if r >= 3 and r * (2 * r - 1) == d:
            note = "D3 = A3 (so(6,C) = sl(4,C))" if r == 3 else None
            candidates.append(("D", r, note))
    if d in _EXCEPTIONAL_DIMS:
        candidates.append((_EXCEPTIONAL_DIMS[d], None, None))
    return (len(candidates) == 0), candidates
