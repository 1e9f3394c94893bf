"""Cayley-graph computations: balls, word distances, growth tables.

The graph has the 4k standard generators as edge moves, acting by right
multiplication.  Every element is an int64 coordinate row (x_1..x_k,
y_1..y_k, w), the identity the zero row.  Frontier expansion is
vectorized: a level is a block of rows, neighbors come from
perimeter.generator_step, and dedup/visited tests run on packed int64
keys over the search window.  A finished ball is a perimeter.FiniteSet
with a distance per row, so members are reported in lexicographic
coordinate order; its ``points.locate`` looks up a block of rows.

Word distances up to radius ONE_SIDED_MAX come from one BFS from the
identity over the window of ball(); _ball_distances answers a whole
block of rows from that one search.  Beyond that radius word_distance
meets in the middle, one row at a time.  word_upper_bound bounds a whole
block of rows from explicit spellings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceCapError, ValidationError
from .perimeter import FiniteSet, _pack, check_key_window, generator_step


# largest radius answered by the one-sided BFS from the identity
ONE_SIDED_MAX = 8


class _Side:
    """One direction of a (possibly bidirectional) BFS."""

    def __init__(self, k: int, start, lows, spans):
        self.k = k
        self.lows = np.asarray(lows, dtype=np.int64)
        self.spans = np.asarray(spans, dtype=np.int64)
        check_key_window(self.spans)
        self.frontier = np.array([start], dtype=np.int64)
        self.levels = [self.frontier]
        self.radius = 0
        keys = _pack(self.frontier, self.lows, self.spans)
        self.visited_keys = keys
        self.visited_dist = np.zeros(1, dtype=np.int64)

    def expand(self) -> np.ndarray:
        """Advance one level; returns the packed keys of the new frontier."""
        if len(self.frontier) == 0:
            return np.empty(0, dtype=np.int64)
        nbrs = np.concatenate(
            [generator_step(self.k, self.frontier, j) for j in range(4 * self.k)]
        )
        keys = _pack(nbrs, self.lows, self.spans)
        keys, first = np.unique(keys, return_index=True)
        nbrs = nbrs[first]
        pos = np.searchsorted(self.visited_keys, keys)
        pos = np.clip(pos, 0, len(self.visited_keys) - 1)
        fresh = self.visited_keys[pos] != keys
        keys, nbrs = keys[fresh], nbrs[fresh]
        self.radius += 1
        self.frontier = nbrs
        self.levels.append(nbrs)
        order = np.argsort(
            np.concatenate([self.visited_keys, keys]), kind="stable"
        )
        allk = np.concatenate([self.visited_keys, keys])[order]
        alld = np.concatenate(
            [self.visited_dist, np.full(len(keys), self.radius, dtype=np.int64)]
        )[order]
        self.visited_keys, self.visited_dist = allk, alld
        return keys

    def dist_of(self, keys: np.ndarray) -> np.ndarray:
        """Distance from the start of each packed key, -1 where not visited."""
        pos = np.clip(np.searchsorted(self.visited_keys, keys), 0, len(self.visited_keys) - 1)
        return np.where(self.visited_keys[pos] == keys, self.visited_dist[pos], -1)

    def bytes_estimate(self) -> int:
        return (len(self.visited_keys) + 4 * self.k * len(self.frontier)) * 8 * (
            2 * self.k + 3
        )


@dataclass
class Ball:
    """Word-metric ball: its points as a FiniteSet, with the distance of each row."""

    k: int
    radius: int
    points: FiniteSet
    dists: np.ndarray

    @property
    def size(self) -> int:
        return self.points.size

    def counts(self) -> np.ndarray:
        """counts[r] = number of elements at distance exactly r."""
        return np.bincount(self.dists, minlength=self.radius + 1)


def _ball_window(k: int, r: int):
    """(lows, spans) of a coordinate window holding all of B_r."""
    lows = np.array([-r] * (2 * k) + [-r * r - 1], dtype=np.int64)
    spans = np.array([2 * r + 1] * (2 * k) + [2 * r * r + 3], dtype=np.int64)
    return lows, spans


def _ball_distances(k: int, rows, r_max: int, mem_cap_mib: float = 4096.0) -> np.ndarray:
    """d_W(1, g) for each row g of a block, or -1 where it exceeds r_max.

    One BFS from the identity over the window of ball(k, r_max), which
    stops as soon as every row inside that window has been reached; rows
    outside it lie outside B_r_max.  Memory is guarded level by level
    against the visited set, as in ball() and word_distance, so the
    search only grows as far as the farthest row asks.
    """
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, 2 * k + 1)
    cap = int(mem_cap_mib * (1 << 20))
    lows, spans = _ball_window(k, r_max)
    inside = np.all((rows >= lows) & (rows < lows + spans), axis=1)
    keys = _pack(rows[inside], lows, spans)
    side = _Side(k, np.zeros(2 * k + 1), lows, spans)
    pending = keys[side.dist_of(keys) < 0]
    while len(pending) and side.radius < r_max:
        if side.bytes_estimate() > cap:
            raise ResourceCapError("memory cap exceeded during BFS")
        side.expand()
        pending = pending[side.dist_of(pending) < 0]
    out = np.full(len(rows), -1, dtype=np.int64)
    out[inside] = side.dist_of(keys)
    return out


def ball(k: int, r: int, mem_cap_mib: float = 4096.0) -> Ball:
    """Closed ball of radius r around the identity.

    Memory is guarded level by level against the visited set and the
    next frontier, so only a ball that outgrows the cap is refused.
    """
    if k < 1:
        raise ValidationError("lattice rank k must be >= 1")
    if r < 0:
        raise ValidationError("radius must be >= 0")
    cap = int(mem_cap_mib * (1 << 20))
    side = _Side(k, np.zeros(2 * k + 1), *_ball_window(k, r))
    for _ in range(r):
        if side.bytes_estimate() > cap:
            raise ResourceCapError("memory cap exceeded during ball BFS")
        side.expand()
    coords = np.concatenate(side.levels, axis=0)
    dists = np.repeat(np.arange(len(side.levels)), [len(lv) for lv in side.levels])
    # key order is lexicographic order, which FiniteSet keeps for sorted rows
    order = np.argsort(_pack(coords, side.lows, side.spans))
    return Ball(k, r, FiniteSet(k, coords[order]), dists[order])


def growth_table(b: Ball):
    """Rows (r, |B_r|, |B_r| / r^(2k+2)) for r up to the radius of b; the
    r = 0 row is normalized by 1."""
    counts = np.cumsum(b.counts())
    rows = []
    for r in range(b.radius + 1):
        denom = float(r ** (2 * b.k + 2)) if r > 0 else 1.0
        rows.append((r, int(counts[r]), counts[r] / denom))
    return rows


def _bounds_for_pair(k: int, gx: np.ndarray, r: int):
    """A coordinate window certain to contain both BFS sides, from the
    identity and from the row gx, to radius r."""
    lo = np.minimum(0, gx)
    hi = np.maximum(0, gx)
    lows = lo.copy()
    spans = hi - lo + 1
    lows[: 2 * k] -= r
    spans[: 2 * k] += 2 * r
    xmax = int(np.max(np.abs(np.concatenate([gx[:k], np.zeros(1, dtype=np.int64)]))))
    wslack = r * (xmax + r)
    lows[2 * k] -= wslack + 1
    spans[2 * k] += 2 * wslack + 3
    return lows, spans


def word_distance(k: int, row, r_max: int, mem_cap_mib: float = 4096.0):
    """Exact d_W(1, g) of the element g with coordinate row ``row``, or None
    when the distance certifiably exceeds r_max.

    Unidirectional BFS (_ball_distances on one row) up to radius
    ONE_SIDED_MAX, bidirectional (meeting in the middle, always
    expanding the smaller frontier) beyond it.
    """
    row = np.asarray(row, dtype=np.int64)
    if not row.any():
        return 0
    if r_max < 1:
        return None
    if r_max <= ONE_SIDED_MAX:
        d = int(_ball_distances(k, row, r_max, mem_cap_mib)[0])
        return None if d < 0 else d
    cap = int(mem_cap_mib * (1 << 20))
    lows, spans = _bounds_for_pair(k, row, r_max)
    fwd = _Side(k, np.zeros_like(row), lows, spans)
    bwd = _Side(k, row, lows, spans)
    best = None
    while True:
        if fwd.radius + bwd.radius >= (best if best is not None else r_max + 1):
            return best
        side, other = (
            (fwd, bwd) if len(fwd.frontier) <= len(bwd.frontier) else (bwd, fwd)
        )
        if side.bytes_estimate() + other.bytes_estimate() > cap:
            raise ResourceCapError("memory cap exceeded during bidirectional BFS")
        new_keys = side.expand()
        if len(new_keys) == 0:
            return best
        met = other.dist_of(new_keys)
        met = met[met >= 0]
        if len(met):
            cand = side.radius + int(np.min(met))
            if best is None or cand < best:
                best = cand
        if best is not None and best > r_max:
            best = None
            if fwd.radius + bwd.radius >= r_max + 1:
                return None


def central_word_upper_bound(m: np.ndarray) -> np.ndarray:
    """Certified word-length upper bounds for the central elements c^m, for
    an int64 array of exponents with |m| <= 2^62.

    Uses commutator rectangles: [a_1^u, b_1^q] spells c^(u q) in
    2(u + q) letters, plus a remainder rectangle, with u = ceil(sqrt(|m|)).
    Below 2^62 the rounded float root never passes that integer and falls
    short of it by at most one, so one integer step corrects it.
    """
    m = np.abs(m)
    u = np.ceil(np.sqrt(m)).astype(np.int64)
    u += u * u < m
    q, rem = np.divmod(m, np.maximum(u, 1))
    return 2 * (u + q) + np.where(rem > 0, 2 * rem + 2, 0)


def word_upper_bound(k: int, rows) -> np.ndarray:
    """Certified upper bound on d_W(1, g) for each coordinate row g, from an
    explicit spelling; OverflowError where a term could leave 2^62."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, 2 * k + 1)
    x, y, w = rows[:, :k], rows[:, k : 2 * k], rows[:, 2 * k]
    mag = np.abs(rows.astype(float))
    size = mag.sum(axis=1) + (mag[:, :k] * mag[:, k : 2 * k]).sum(axis=1)
    if size.max(initial=0.0) >= 2.0**62:
        raise OverflowError("coordinates too large for the word-length bound")
    dot = (x * y).sum(axis=1)
    # a-letters first leaves central residue w - x.y, b-letters first leaves w
    return np.abs(rows[:, : 2 * k]).sum(axis=1) + np.minimum(
        central_word_upper_bound(w - dot), central_word_upper_bound(w)
    )


def z_power_distance(k: int, t: int, mem_cap_mib: float = 4096.0):
    """Exact word distance of the central power c^t."""
    row = np.zeros(2 * k + 1, dtype=np.int64)
    row[2 * k] = t
    return word_distance(k, row, int(word_upper_bound(k, row)[0]), mem_cap_mib)
