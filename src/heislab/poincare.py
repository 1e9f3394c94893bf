"""Functional (Poincare-type) sides, coarea decomposition, localization.

A finitely supported map phi on the rank-k lattice is kept as a
FiniteSet S (its support) plus values aligned with S.rows, shape (n,)
or (n, vdim); vector differences are measured in l1.  The two sides are

    lhs(phi)^2 = sum_{t >= 1} ( sum_h |phi(h c^t) - phi(h)| )^2 / t^2
    rhs(phi)   = sum_h sum_{generators s} |phi(h s) - phi(h)|.

Beyond the largest column span T0 of the support, the inner vertical
sum is the constant 2 sum_h |phi(h)|, so the series closes with
perimeter.l2_with_tail, the vertical perimeter's tail and error bound.
For an indicator, lhs equals the vertical perimeter of the set and rhs
twice its horizontal boundary.

The coarea path decomposes an integer-valued phi over its sublevel sets
{phi < u}: the rhs decomposition is an exact integer identity, the lhs
obeys the triangle inequality.  Both sublevel families are evaluated on
whichever side (set or complement) is finite; boundary counts agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum

import numpy as np

from .errors import ValidationError
from .perimeter import (
    ColumnRuns,
    FiniteSet,
    generator_step,
    horizontal_perimeter,
    l2_with_tail,
    vertical_perimeter,
)
from .rng import Rng


class LatticeFunction:
    """Finitely supported function on the lattice, zero off-support.

    The support is the FiniteSet S; vals holds the nonzero values aligned
    with S.rows, shape (n,) for scalars or (n, vdim) for vectors.
    """

    def __init__(self, k: int, values: dict):
        """values maps coordinate tuples to scalars; zero values are dropped."""
        keys = list(values)
        S = FiniteSet(k, keys)  # refuses an empty support and wrong tuple lengths
        try:
            given = np.array(list(values.values()), dtype=float).reshape(len(keys))
        except ValueError:
            raise ValidationError("values must be scalars") from None
        vals = np.zeros(S.size)
        vals[S.locate(np.array(keys, dtype=np.int64))] = given
        self._adopt(S, vals)

    @classmethod
    def _on_rows(cls, S: FiniteSet, vals: np.ndarray) -> "LatticeFunction":
        """The function with values vals aligned with S.rows; zeros dropped."""
        phi = cls.__new__(cls)
        phi._adopt(S, vals)
        return phi

    def _adopt(self, S: FiniteSet, vals: np.ndarray) -> None:
        nonzero = vals != 0 if vals.ndim == 1 else np.any(vals != 0, axis=1)
        if not nonzero.any():
            raise ValidationError("function has empty support")
        if not nonzero.all():
            S, vals = FiniteSet(S.k, S.rows[nonzero]), vals[nonzero]
        self.k, self.S, self.vals = S.k, S, vals

    def at(self, rows: np.ndarray) -> np.ndarray:
        """Values at a block of coordinate rows, zero off the support."""
        pos = self.S.locate(rows)
        out = self.vals[pos]
        out[pos < 0] = 0.0
        return out

    def is_integer_valued(self) -> bool:
        return self.vals.ndim == 1 and all(v.is_integer() for v in self.vals.tolist())

    @staticmethod
    def indicator(S: FiniteSet) -> "LatticeFunction":
        return LatticeFunction._on_rows(S, np.ones(S.size))

    @staticmethod
    def stacked(*funcs: "LatticeFunction") -> "LatticeFunction":
        """Vector-valued function whose coordinates are the given scalars."""
        k = funcs[0].k
        if any(f.k != k or f.vals.ndim != 1 for f in funcs):
            raise ValidationError("stacked expects scalar functions of equal rank")
        S = FiniteSet(k, np.concatenate([f.S.rows for f in funcs]))
        vals = np.zeros((S.size, len(funcs)))
        for j, f in enumerate(funcs):
            vals[S.locate(f.S.rows), j] = f.vals
        return LatticeFunction._on_rows(S, vals)

    @staticmethod
    def random_integer(S: FiniteSet, lo: int, hi: int, seed: int) -> "LatticeFunction":
        """Integer values uniform on [lo, hi], drawn per member in sorted order."""
        if hi < lo:
            raise ValidationError("empty value range")
        if lo == hi == 0:
            raise ValidationError("value range admits only the zero function")
        if hi - lo + 1 > 1 << 50:
            raise ValidationError(f"value range has at most 2^50 integers, got {hi - lo + 1}")
        vals = (Rng(seed).integers(S.size, hi - lo + 1) + lo).astype(float)
        if not vals.any():
            # all-zero draw degenerates; pin one member so the support is nonempty
            vals[0] = hi if hi != 0 else lo
        return LatticeFunction._on_rows(S, vals)


@dataclass
class PoincareSides:
    lhs: float
    rhs: float
    lhs_err: float


def _pair_sum(phi: LatticeFunction, moved: np.ndarray) -> float:
    """sum |phi(h s) - phi(h)| over the pairs (h, h s) with h or h s in the
    support, given moved = the support rows right-multiplied by s.

    The pairs with h in S are read off one lookup of moved; the members g
    with g s^-1 outside S are those no moved row lands on, so the pairs
    with only h s in S add sum |phi| - sum_{h in S} |phi(h s)|.
    """
    above = phi.at(moved)
    return float(np.abs(above - phi.vals).sum() + np.abs(phi.vals).sum() - np.abs(above).sum())


def _vertical_sums(phi: LatticeFunction):
    """(A, mass): A[t - 1] = _pair_sum for s = c^t, t = 1..T0, the largest
    column span of the support, and mass = 2 sum |phi|, the value of A(t)
    for every t > T0."""
    T0 = ColumnRuns(phi.S).T0
    A = np.zeros(T0)
    up = phi.S.rows.copy()
    for t in range(1, T0 + 1):
        up[:, 2 * phi.k] += 1
        A[t - 1] = _pair_sum(phi, up)
    return A, 2.0 * float(np.abs(phi.vals).sum())


def poincare_sides(phi: LatticeFunction) -> PoincareSides:
    lhs, err = l2_with_tail(*_vertical_sums(phi))
    return PoincareSides(lhs, poincare_rhs(phi), err)


def poincare_rhs(phi: LatticeFunction) -> float:
    """sum_h sum_s |phi(h s) - phi(h)|, as one _pair_sum per generator s."""
    return sum(_pair_sum(phi, generator_step(phi.k, phi.S.rows, j)) for j in range(4 * phi.k))


@dataclass
class CoareaLevel:
    u: int
    rhs: int
    lhs: float


@dataclass
class CoareaReport:
    sides: PoincareSides
    rhs_levels: int
    lhs_levels: float
    levels: list

    @property
    def rhs_total(self) -> int:
        return round(self.sides.rhs)

    @property
    def lhs_total(self) -> float:
        return self.sides.lhs

    @property
    def rhs_exact(self) -> bool:
        return self.rhs_total == self.rhs_levels


def _level_rows(phi: LatticeFunction, u: int) -> np.ndarray:
    # finite representative of {phi < u}: against the zero background the
    # set is co-finite for u > 0, so the complement {phi >= u} stands in
    return phi.S.rows[phi.vals < u if u <= 0 else phi.vals >= u]


def coarea(phi: LatticeFunction) -> CoareaReport:
    """Sublevel decomposition of both sides for integer-valued phi."""
    if not phi.is_integer_valued():
        raise ValidationError("coarea identity requires integer-valued phi")
    lo = min(0, int(phi.vals.min()))
    hi = max(0, int(phi.vals.max()))
    levels = []
    rhs_sum = 0
    lhs_sum = 0.0
    for u in range(lo + 1, hi + 1):
        rows = _level_rows(phi, u)
        if len(rows) == 0:
            continue
        F = FiniteSet(phi.k, rows)
        rhs_u = 2 * horizontal_perimeter(F)
        lhs_u, _ = vertical_perimeter(F)
        levels.append(CoareaLevel(u, rhs_u, lhs_u))
        rhs_sum += rhs_u
        lhs_sum += lhs_u
    return CoareaReport(poincare_sides(phi), rhs_sum, lhs_sum, levels)


@dataclass
class LocalSides:
    lhs: float
    rhs: float
    n: int
    alpha: float


# largest R at which _rhs_window settles its open rows by one block search
# from the identity; beyond it, by one meet-in-the-middle search per row
_BLOCK_SEARCH_MAX = 8


def _rhs_window(phi: LatticeFunction, R: int, mem_cap_mib: float = 4096.0) -> np.ndarray:
    """The rows of the support and its generator neighbours that lie in
    B_R, in lexicographic order.

    A row is in B_R when its word-length upper bound is at most R; the
    rows that bound leaves open are settled by exact distance: up to
    radius _BLOCK_SEARCH_MAX all at once, by one breadth-first search
    from the identity that stops when the farthest of them is reached,
    beyond it by one word_distance search per row.
    """
    from .cayley import _ball_distances, word_distance, word_upper_bound

    k, S = phi.k, phi.S
    window = FiniteSet(
        k, np.concatenate([S.rows] + [generator_step(k, S.rows, j) for j in range(4 * k)])
    )
    near = window.rows[np.abs(window.rows[:, : 2 * k]).sum(axis=1) <= R]
    inside = word_upper_bound(k, near) <= R
    open_rows = near[~inside]
    if R <= _BLOCK_SEARCH_MAX:
        inside[~inside] = _ball_distances(k, open_rows, R, mem_cap_mib) >= 0
    else:
        inside[~inside] = [
            word_distance(k, h, R, mem_cap_mib) is not None for h in open_rows
        ]
    return near[inside]


def local_poincare(
    phi: LatticeFunction, n: int, alpha: float = 21.0, mem_cap_mib: float = 4096.0
) -> LocalSides:
    """Both sides localized: lhs over h in B_n with jumps t <= n^2, rhs
    over h in the inflated ball B_ceil(alpha n), taken over the window
    of _rhs_window (off it every rhs term is zero).
    """
    from .cayley import ball

    if n < 1:
        raise ValidationError("localization radius must be >= 1")
    k = phi.k
    Bn = ball(k, n, mem_cap_mib).points.rows
    vB = phi.at(Bn)
    A = [0.0] * (n * n + 1)
    up = Bn.copy()
    for t in range(1, n * n + 1):
        up[:, 2 * k] += 1
        A[t] = float(np.abs(phi.at(up) - vB).sum())
    lhs = math.sqrt(fsum((A[t] / t) ** 2 for t in range(1, n * n + 1)))

    rows = _rhs_window(phi, math.ceil(alpha * n), mem_cap_mib)
    vh = phi.at(rows)
    rhs = 0.0
    for j in range(4 * k):
        rhs += float(np.abs(phi.at(generator_step(k, rows, j)) - vh).sum())
    return LocalSides(lhs, rhs, n, alpha)
