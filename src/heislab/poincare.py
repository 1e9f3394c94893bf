"""Functional (Poincare-type) sides, coarea decomposition, localization.

For a finitely supported map phi on the rank-k lattice (scalar- or
vector-valued; vector differences are measured in l1) the two sides are

    lhs(phi)^2 = sum_{t >= 1} ( sum_h |phi(h c^t) - phi(h)| )^2 / t^2
    rhs(phi)   = sum_h sum_{generators s} |phi(h s) - phi(h)|.

Beyond the w-span T0 of the support, the inner vertical sum is the
constant 2 sum_h |phi(h)|, so the series closes with the same analytic
tail used for the vertical perimeter.  For an indicator, lhs equals the
vertical perimeter of the set and rhs twice its horizontal boundary.

The coarea path decomposes an integer-valued phi over its sublevel sets
{phi < u}: the rhs decomposition is an exact integer identity, the lhs
obeys the triangle inequality.  Both sublevel families are evaluated on
whichever side (set or complement) is finite; boundary counts agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from math import fsum

import numpy as np

from .errors import ValidationError
from .perimeter import (
    FiniteSet,
    _psi1_exact,
    _EPS,
    element_from_row,
    generator_step,
    horizontal_perimeter,
    vertical_perimeter,
)
from .rng import Rng


def _l1(v) -> float:
    if isinstance(v, np.ndarray):
        return float(np.abs(v).sum())
    return abs(v)


class LatticeFunction:
    """Finitely supported function on the lattice, zero off-support."""

    def __init__(self, k: int, values: dict, vdim: int | None = None):
        self.k = k
        self.vdim = vdim
        vals = {}
        for key, v in values.items():
            t = key.coords() if hasattr(key, "coords") else tuple(int(a) for a in key)
            if len(t) != 2 * k + 1:
                raise ValidationError("coordinate tuple length mismatch")
            if vdim is not None:
                v = np.asarray(v, dtype=float)
                if v.shape != (vdim,):
                    raise ValidationError("vector value dimension mismatch")
                if not np.any(v):
                    continue
            elif v == 0:
                continue
            vals[t] = v
        if not vals:
            raise ValidationError("function has empty support")
        self.values = vals

    @property
    def zero(self):
        return np.zeros(self.vdim) if self.vdim is not None else 0

    def value(self, t: tuple):
        return self.values.get(t, self.zero)

    def support(self):
        return self.values.keys()

    @cached_property
    def support_set(self):
        """(the support as a FiniteSet, the values aligned with its rows)."""
        S = FiniteSet(self.k, list(self.values))
        return S, np.array([self.values[t] for t in S], dtype=float)

    def at(self, rows: np.ndarray) -> np.ndarray:
        """Values at a block of coordinate rows, zero off the support."""
        S, vals = self.support_set
        pos = S.locate(rows)
        out = vals[pos]
        out[pos < 0] = 0.0
        return out

    def is_integer_valued(self) -> bool:
        if self.vdim is not None:
            return False
        return all(float(v).is_integer() for v in self.values.values())

    @staticmethod
    def indicator(S: FiniteSet) -> "LatticeFunction":
        return LatticeFunction(S.k, {t: 1 for t in S})

    @staticmethod
    def stacked(*funcs: "LatticeFunction") -> "LatticeFunction":
        """Vector-valued function whose coordinates are the given scalars."""
        k = funcs[0].k
        if any(f.k != k or f.vdim is not None for f in funcs):
            raise ValidationError("stacked expects scalar functions of equal rank")
        keys = set()
        for f in funcs:
            keys |= set(f.support())
        vals = {t: np.array([float(f.value(t)) for f in funcs]) for t in keys}
        return LatticeFunction(k, vals, vdim=len(funcs))

    @staticmethod
    def random_integer(S: FiniteSet, lo: int, hi: int, seed: int) -> "LatticeFunction":
        """Integer values uniform on [lo, hi], drawn per member in sorted order."""
        if hi < lo:
            raise ValidationError("empty value range")
        if lo == hi == 0:
            raise ValidationError("value range admits only the zero function")
        rng = Rng(seed)
        members = list(S)
        draws = rng.integers(len(members), hi - lo + 1) + lo
        vals = {t: int(d) for t, d in zip(members, draws) if d != 0}
        if not vals:
            # all-zero draw degenerates; pin one member so the support is nonempty
            vals = {members[0]: hi if hi != 0 else lo}
        return LatticeFunction(S.k, vals)


@dataclass
class PoincareSides:
    lhs: float
    rhs: float
    lhs_err: float


def _support_columns(phi: LatticeFunction) -> dict:
    cols: dict = {}
    k = phi.k
    for t, v in phi.values.items():
        cols.setdefault(t[: 2 * k], {})[t[2 * k]] = v
    return cols


def _vertical_sums(phi: LatticeFunction):
    """A(t) for t = 1..T0 plus the beyond-span constant M = 2 sum |phi|."""
    cols = _support_columns(phi)
    T0 = max(max(ws) - min(ws) for ws in cols.values())
    A = [0.0] * (T0 + 1)  # index by t, A[0] unused
    for ws in cols.values():
        keys = set(ws)
        lo, hi = min(keys), max(keys)
        for t in range(1, min(T0, hi - lo) + 1):
            s = 0.0
            for w in keys:
                s += _l1(ws.get(w + t, phi.zero) - ws[w])
                if w - t not in keys:
                    s += _l1(ws[w])
            A[t] += s
        col_mass = 2.0 * fsum(_l1(v) for v in ws.values())
        for t in range(hi - lo + 1, T0 + 1):
            A[t] += col_mass
    M = 2.0 * fsum(_l1(v) for v in phi.values.values())
    return A, M, T0


def poincare_sides(phi: LatticeFunction) -> PoincareSides:
    A, M, T0 = _vertical_sums(phi)
    head_sq = fsum((A[t] / t) ** 2 for t in range(1, T0 + 1))
    psi = _psi1_exact(T0 + 1)
    total = head_sq + M * M * psi
    lhs = math.sqrt(total)
    err = (M * M * _EPS * (T0 + 2) * 2.0 + 4.0 * _EPS * total) / (2.0 * lhs) if lhs else 0.0
    return PoincareSides(lhs, poincare_rhs(phi), err)


def poincare_rhs(phi: LatticeFunction, indices=None) -> float:
    """sum_h sum_s |phi(h s) - phi(h)|, optionally over the generator
    subfamily {a_i, b_i : i in indices} (1-based).

    Both families are closed under inverses, so a pair (h, h s) with only
    h s in the support counts as (h s, s^-1) does, and the sum runs over
    the support alone: each h and s add |phi(h s) - phi(h)| when h s is in
    the support and 2 |phi(h)| when it is not.
    """
    k = phi.k
    S, vals = phi.support_set
    keep = None if indices is None else {int(i) - 1 for i in indices}
    total = 0.0
    for j in range(4 * k):
        if keep is not None and (j % (2 * k)) // 2 not in keep:
            continue
        pos = S.locate(generator_step(k, S.rows, j))
        out = pos < 0
        total += float(np.abs(vals[pos[~out]] - vals[~out]).sum())
        total += 2.0 * float(np.abs(vals[out]).sum())
    return total


@dataclass
class CoareaLevel:
    u: int
    rhs: int
    lhs: float


@dataclass
class CoareaReport:
    rhs_total: int
    rhs_levels: int
    lhs_total: float
    lhs_levels: float
    levels: list

    @property
    def rhs_exact(self) -> bool:
        return self.rhs_total == self.rhs_levels


def _level_rows(phi: LatticeFunction, u: int) -> np.ndarray:
    # finite representative of {phi < u}: against the zero background the
    # set is co-finite for u > 0, so the complement {phi >= u} stands in
    S, vals = phi.support_set
    return S.rows[vals < u] if u <= 0 else S.rows[vals >= u]


def sublevel_set(phi: LatticeFunction, u: int) -> FiniteSet:
    """Finite representative of the sublevel set {phi < u}.

    For u <= 0 this is literally {phi < u}; for u > 0 that set is
    co-finite, so the finite complement {phi >= u} is returned instead.
    Both have the same boundary pairs, which is what level
    decompositions consume.
    """
    if not phi.is_integer_valued():
        raise ValidationError("sublevel sets require integer-valued phi")
    rows = _level_rows(phi, u)
    if len(rows) == 0:
        raise ValidationError("level set is empty")
    return FiniteSet(phi.k, rows)


def coarea(phi: LatticeFunction) -> CoareaReport:
    """Sublevel decomposition of both sides for integer-valued phi."""
    if not phi.is_integer_valued():
        raise ValidationError("coarea identity requires integer-valued phi")
    _, vals = phi.support_set
    lo = min(0, int(vals.min()))
    hi = max(0, int(vals.max()))
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
    sides = poincare_sides(phi)
    rhs_total = round(sides.rhs)
    return CoareaReport(rhs_total, rhs_sum, sides.lhs, lhs_sum, levels)


@dataclass
class LocalSides:
    lhs: float
    rhs: float
    n: int
    alpha: float


def _rhs_window(phi: LatticeFunction, R: int, mem_cap_mib: float = 4096.0) -> np.ndarray:
    """The rows of the support and its generator neighbours that lie in
    B_R, in lexicographic order.

    A row is in B_R when its word-length upper bound is at most R; the
    rows that bound leaves open are settled by exact distance: up to
    radius cayley.ONE_SIDED_MAX all at once, by one breadth-first search
    from the identity that stops when the farthest of them is reached,
    beyond it by one bidirectional search per row.
    """
    from .cayley import ONE_SIDED_MAX, _ball_distances, word_distance, word_upper_bound

    k = phi.k
    S, _ = phi.support_set
    window = FiniteSet(
        k, np.concatenate([S.rows] + [generator_step(k, S.rows, j) for j in range(4 * k)])
    )
    near = window.rows[np.abs(window.rows[:, : 2 * k]).sum(axis=1) <= R]
    inside = np.array(
        [word_upper_bound(element_from_row(k, h)) <= R for h in near.tolist()], dtype=bool
    )
    open_rows = near[~inside]
    if R <= ONE_SIDED_MAX:
        inside[~inside] = _ball_distances(k, open_rows, R, mem_cap_mib) >= 0
    else:
        inside[~inside] = [
            word_distance(element_from_row(k, h), R, mem_cap_mib) is not None
            for h in open_rows.tolist()
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


def coset_partition(A, S: FiniteSet) -> dict:
    """Partition S by cosets of the subgroup generated by the generator
    pairs {a_i, b_i : i in A} (1-based indices).

    Two elements share a piece iff their coordinates agree outside A;
    the central direction always lies in the subgroup, so w never enters
    the invariant.  Keys are ((x_j)_{j not in A}, (y_j)_{j not in A}).
    """
    k = S.k
    idx = sorted({int(i) for i in A})
    if not idx or idx[0] < 1 or idx[-1] > k:
        raise ValidationError("A must be a nonempty subset of 1..k")
    outside = [j for j in range(k) if (j + 1) not in idx]
    m = len(outside)
    labels = S.rows[:, outside + [k + j for j in outside]].tolist()
    pieces: dict = {}
    for i, lab in enumerate(labels):
        pieces.setdefault(tuple(lab), []).append(i)
    return {
        (lab[:m], lab[m:]): FiniteSet(k, S.rows[mem]) for lab, mem in pieces.items()
    }
