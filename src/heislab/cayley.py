"""Cayley-graph computations: balls, word distances, growth tables.

The graph has the 4k standard generators as edge moves, acting by right
multiplication.  Every element is an int64 coordinate row (x_1..x_k,
y_1..y_k, w), the identity the zero row.  Frontier expansion is
vectorized: a level is a block of rows, neighbors come from
perimeter.generator_step, and dedup/visited tests run on the packed
keys of a perimeter.KeyWindow holding the search.  A finished ball is a
perimeter.FiniteSet with a distance per row, so members are reported in
lexicographic coordinate order; its ``points.locate`` looks up a block
of rows.

ball and _ball_distances share one search from the identity over the
window of B_r; _ball_distances answers a whole block of rows from it.
word_distance answers one row by meeting in the middle, and
word_upper_bound bounds a whole block of rows from explicit spellings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceCapError, ValidationError
from .perimeter import FiniteSet, KeyWindow, generator_step


class _Side:
    """One direction of a (possibly bidirectional) BFS."""

    def __init__(self, k: int, start, window: KeyWindow):
        self.k = k
        self.window = window
        self.frontier = np.array([start], dtype=np.int64)
        self.levels = [self.frontier]
        self.radius = 0
        self.visited_keys = window.pack(self.frontier)
        self.visited_dist = np.zeros(1, dtype=np.int64)

    def expand(self) -> np.ndarray:
        """Advance one level; returns the packed keys of the new frontier."""
        nbrs = np.concatenate(
            [generator_step(self.k, self.frontier, j) for j in range(4 * self.k)]
        )
        keys, first = np.unique(self.window.pack(nbrs), return_index=True)
        nbrs = nbrs[first]
        fresh = self.dist_of(keys) < 0
        keys, nbrs = keys[fresh], nbrs[fresh]
        self.radius += 1
        self.frontier = nbrs
        self.levels.append(nbrs)
        allk = np.concatenate([self.visited_keys, keys])
        order = np.argsort(allk, kind="stable")
        alld = np.concatenate(
            [self.visited_dist, np.full(len(keys), self.radius, dtype=np.int64)]
        )
        self.visited_keys, self.visited_dist = allk[order], alld[order]
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


def _ball_window(k: int, r: int) -> KeyWindow:
    """A coordinate window holding all of B_r: |x_i|, |y_i| <= r, |w| <= r^2 + 1."""
    return KeyWindow([-r] * (2 * k) + [-r * r - 1], [r] * (2 * k) + [r * r + 1])


def _search_from_identity(k: int, r: int, mem_cap_mib: float, targets=None) -> _Side:
    """BFS from the identity over the window of B_r, to radius r, or only
    until every packed key in ``targets`` has been reached.

    Memory is guarded level by level against the visited set and the
    next frontier, so only a search that outgrows the cap is refused.
    """
    cap = int(mem_cap_mib * (1 << 20))
    side = _Side(k, np.zeros(2 * k + 1), _ball_window(k, r))
    while side.radius < r and (targets is None or np.any(side.dist_of(targets) < 0)):
        if side.bytes_estimate() > cap:
            raise ResourceCapError("memory cap exceeded during ball BFS")
        side.expand()
    return side


def _ball_distances(k: int, rows, r_max: int, mem_cap_mib: float = 4096.0) -> np.ndarray:
    """d_W(1, g) for each row g of a block, or -1 where it exceeds r_max.

    One search from the identity over the window of ball(k, r_max), which
    stops as soon as every row inside that window has been reached; rows
    outside it lie outside B_r_max.
    """
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, 2 * k + 1)
    window = _ball_window(k, r_max)
    inside = window.contains(rows)
    keys = window.pack(rows[inside])
    out = np.full(len(rows), -1, dtype=np.int64)
    out[inside] = _search_from_identity(k, r_max, mem_cap_mib, keys).dist_of(keys)
    return out


def ball(k: int, r: int, mem_cap_mib: float = 4096.0) -> Ball:
    """Closed ball of radius r around the identity."""
    if k < 1:
        raise ValidationError("lattice rank k must be >= 1")
    if r < 0:
        raise ValidationError("radius must be >= 0")
    side = _search_from_identity(k, r, mem_cap_mib)
    coords = np.concatenate(side.levels, axis=0)
    dists = np.repeat(np.arange(len(side.levels)), [len(lv) for lv in side.levels])
    # key order is lexicographic order, which FiniteSet keeps for sorted rows
    order = np.argsort(side.window.pack(coords))
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


def _pair_window(k: int, gx: np.ndarray, r: int) -> KeyWindow:
    """A coordinate window certain to contain both BFS sides, from the
    identity and from the row gx, to radius r."""
    lows = np.minimum(0, gx)
    highs = np.maximum(0, gx)
    lows[: 2 * k] -= r
    highs[: 2 * k] += r
    wslack = r * (int(np.abs(gx[:k]).max()) + r) + 1
    lows[2 * k] -= wslack
    highs[2 * k] += wslack
    return KeyWindow(lows, highs)


def word_distance(k: int, row, r_max: int, mem_cap_mib: float = 4096.0):
    """Exact d_W(1, g) of the element g with coordinate row ``row``, or None
    when the distance certifiably exceeds r_max.

    A row outside the window of B_r_max is None at once.  Otherwise two
    searches, from 1 and from g, meet in the middle, always expanding
    the smaller frontier.  Until they meet, d_W(1, g) exceeds the sum of
    their radii, so the first level that meets the other side gives the
    distance, and radii summing to r_max without a meeting certify None.
    """
    row = np.asarray(row, dtype=np.int64)
    if not row.any():
        return 0
    if r_max < 1 or not _ball_window(k, r_max).contains(row[None])[0]:
        return None
    cap = int(mem_cap_mib * (1 << 20))
    window = _pair_window(k, row, r_max)
    fwd = _Side(k, np.zeros_like(row), window)
    bwd = _Side(k, row, window)
    while fwd.radius + bwd.radius < r_max:
        side, other = (fwd, bwd) if len(fwd.frontier) <= len(bwd.frontier) else (bwd, fwd)
        if side.bytes_estimate() + other.bytes_estimate() > cap:
            raise ResourceCapError("memory cap exceeded during bidirectional BFS")
        met = other.dist_of(side.expand())
        met = met[met >= 0]
        if len(met):
            return side.radius + int(met.min())
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
