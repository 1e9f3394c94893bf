"""Horizontal and vertical perimeters of finite lattice sets.

A finite set is kept as lexicographically sorted, unique coordinate rows
(x_1..x_k, y_1..y_k, w) together with their mixed-radix int64 keys over
the set's own bounding window, so looking up a block of rows is one
``searchsorted``.  ``generator_step`` is the generator action on such
blocks: it right-multiplies every row by one standard generator.

A finite set Omega splits into columns: fibers over the horizontal
coordinates (x, y), each a finite set of w-values.  The horizontal
boundary counts ordered pairs (g, g') with g in Omega, g' outside, and
g^-1 g' a standard generator.  The vertical boundary at jump t counts
ordered pairs whose quotient is c^t or c^-t; it is computable column by
column, since central multiplication only shifts w.  The vertical
perimeter aggregates the jump spectrum in an l2 sense:

    vperim(Omega)^2 = sum_{t >= 1} |bd_v^t Omega|^2 / t^2.

Beyond the largest column span T0 every member exits in both vertical
directions, so |bd_v^t| = 2|Omega| and the series has the closed-form
tail 4|Omega|^2 (pi^2/6 - sum_{t <= T0} t^-2).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from math import fsum

import numpy as np

from .errors import ResourceCapError, ValidationError, require_seed
from .group import row_text
from .rng import Rng, substream_seeds

_EPS = 2.0 ** -52


def check_key_window(spans) -> None:
    """Refuse a coordinate window whose packed keys would not fit int64."""
    if math.prod(int(s) for s in spans) >= 1 << 63:
        raise ResourceCapError("coordinate window does not fit packed keys")


def _pack(coords: np.ndarray, lows: np.ndarray, spans: np.ndarray) -> np.ndarray:
    """Mixed-radix packing of coordinate rows into int64 keys.

    Key order equals lexicographic coordinate order as long as every
    row sits inside [lows, lows + spans).
    """
    key = np.zeros(len(coords), dtype=np.int64)
    for j in range(coords.shape[1]):
        key = key * spans[j] + (coords[:, j] - lows[j])
    return key


def generator_step(k: int, rows: np.ndarray, j: int) -> np.ndarray:
    """Rows right-multiplied by generator j of the 4k standard generators,
    in the order a_1, b_1, ..., a_k, b_k, a_1^-1, b_1^-1, ..., a_k^-1, b_k^-1.

    a_i^s shifts x_i by s; b_i^s shifts y_i by s and w by s * x_i.
    """
    sign = 1 if j < 2 * k else -1
    i, is_b = divmod(j % (2 * k), 2)
    out = rows.copy()
    if is_b:
        out[:, k + i] += sign
        out[:, 2 * k] += sign * rows[:, i]
    else:
        out[:, i] += sign
    return out


def _neighbor_tuples(k: int, t: tuple):
    """generator_step for one coordinate tuple, all 4k moves in order;
    the scalar form keeps random_blob's one-at-a-time growth cheap."""
    w = t[2 * k]
    for sign in (1, -1):
        for i in range(k):
            yield t[:i] + (t[i] + sign,) + t[i + 1 :]
            yield (
                t[: k + i]
                + (t[k + i] + sign,)
                + t[k + i + 1 : 2 * k]
                + (w + sign * t[i],)
            )


class FiniteSet:
    """Finite subset of the rank-k lattice: sorted unique rows plus keys.

    Members may be given as coordinate tuples or an integer array of rows.
    """

    def __init__(self, k: int, members):
        self.k = k
        if not isinstance(members, np.ndarray):
            members = list(members)
        try:
            rows = np.asarray(members, dtype=np.int64)
        except ValueError:
            raise ValidationError("coordinate tuple length mismatch") from None
        if rows.size == 0:
            raise ValidationError("finite set must be nonempty")
        if rows.ndim != 2 or rows.shape[1] != 2 * k + 1:
            raise ValidationError("coordinate row length mismatch")
        self._lows = rows.min(axis=0)
        self._highs = rows.max(axis=0)
        spans = [int(h) - int(lo) + 1 for lo, h in zip(self._lows, self._highs)]
        check_key_window(spans)
        self._spans = np.array(spans, dtype=np.int64)
        keys = _pack(rows, self._lows, self._spans)
        if not np.all(keys[1:] > keys[:-1]):  # most callers pass sorted rows
            keys, first = np.unique(keys, return_index=True)
            rows = rows[first]
        self.keys, self.rows = keys, rows

    @property
    def size(self) -> int:
        return len(self.rows)

    def __iter__(self):
        """Members as coordinate tuples, in lexicographic order."""
        return map(tuple, self.rows.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteSet):
            return NotImplemented
        return self.k == other.k and np.array_equal(self.rows, other.rows)

    def locate(self, rows: np.ndarray) -> np.ndarray:
        """Index of each row in self.rows, or -1 where it is not a member."""
        inside = np.all((rows >= self._lows) & (rows <= self._highs), axis=1)
        keys = _pack(rows[inside], self._lows, self._spans)
        at = np.minimum(np.searchsorted(self.keys, keys), self.size - 1)
        hit = self.keys[at] == keys
        pos = np.full(len(rows), -1, dtype=np.int64)
        pos[np.flatnonzero(inside)[hit]] = at[hit]
        return pos

    def columns(self) -> list:
        """Sorted w-values of each column, as slices of the sorted rows."""
        xy = self.rows[:, : 2 * self.k]
        cuts = np.flatnonzero(np.any(xy[1:] != xy[:-1], axis=1)) + 1
        return np.split(self.rows[:, 2 * self.k], cuts)

    def to_lines(self):
        k = self.k
        return (row_text(k, row) for row in self.rows.tolist())


def horizontal_perimeter(S: FiniteSet) -> int:
    """|bd_h S|: ordered pairs leaving S along one generator step."""
    return sum(
        int(np.count_nonzero(S.locate(generator_step(S.k, S.rows, j)) < 0))
        for j in range(4 * S.k)
    )


@dataclass
class VerticalSpectrum:
    """Exact jump counts for t <= T0; beyond T0 every count is 2 size."""

    size: int
    T0: int
    head: np.ndarray  # head[t - 1] = |bd_v^t|, t = 1..T0

    @property
    def tail_sq(self) -> float:
        """sum_{t > T0} (2 size)^2 / t^2, the closed-form tail."""
        return _tail_sq(2 * self.size, self.T0)[0]

    def perimeter(self):
        """(value, error_bound) for the l2 vertical perimeter."""
        return l2_with_tail(self.head, 2 * self.size)


def _column_counts(ws: np.ndarray) -> np.ndarray:
    """Per-column |{w in S: w+t not in S}| + |{w: w-t not in S}| for t=1..span,
    from the overlap of the column's bitset with its shifts."""
    span = int(ws[-1] - ws[0])
    cnt = len(ws)
    out = np.empty(span, dtype=np.int64)
    bits = 0
    base = int(ws[0])
    for w in ws.tolist():
        bits |= 1 << (w - base)
    for t in range(1, span + 1):
        out[t - 1] = 2 * (cnt - (bits & (bits >> t)).bit_count())
    return out


def vertical_spectrum(S: FiniteSet) -> VerticalSpectrum:
    cols = S.columns()
    T0 = max(int(ws[-1] - ws[0]) for ws in cols)
    head = np.zeros(T0, dtype=np.int64)
    plateau = np.zeros(T0 + 1, dtype=np.int64)  # suffix-add via diff array
    for ws in cols:
        span = int(ws[-1] - ws[0])
        if span > 0:
            head[:span] += _column_counts(ws)
        if span < T0:
            plateau[span] += 2 * len(ws)
    if T0 > 0:
        head += np.cumsum(plateau)[:T0]
    return VerticalSpectrum(S.size, T0, head)


def _psi1_exact(m: int) -> float:
    """sum_{j >= m} j^-2, by compensated subtraction from pi^2/6."""
    if m <= 1:
        return math.pi * math.pi / 6.0
    return math.pi * math.pi / 6.0 - fsum(1.0 / (j * j) for j in range(1, m))


def _psi1_asymptotic(m: int) -> float:
    """Euler-Maclaurin form of the same tail, for large m: with N = m - 1,
    sum_{j > N} j^-2 = 1/N - 1/(2 N^2) + 1/(6 N^3) - 1/(30 N^5) + ..."""
    n = float(m - 1)
    return 1.0 / n - 1.0 / (2.0 * n * n) + 1.0 / (6.0 * n**3) - 1.0 / (30.0 * n**5)


def _tail_sq(mass: float, T0: int):
    """(mass^2 sum_{t > T0} t^-2, a bound on its numerical error)."""
    psi = _psi1_exact(T0 + 1)
    err = _EPS * (T0 + 2) * 2.0
    if T0 > 1000:
        err += abs(psi - _psi1_asymptotic(T0 + 1))
    scale = float(mass) * float(mass)
    return scale * psi, scale * err


def l2_with_tail(head: np.ndarray, mass: float):
    """(value, error_bound) of sqrt(sum_t a_t^2 / t^2), where a_t = head[t - 1]
    for t <= T0 = len(head) and a_t = mass beyond: the l2 form shared by
    the vertical perimeter (mass 2|S|) and the Poincare lhs (2 sum |phi|)."""
    tail_sq, tail_err = _tail_sq(mass, len(head))
    head_sq = fsum((float(a) / t) ** 2 for t, a in enumerate(head.tolist(), 1))
    total = head_sq + tail_sq
    value = math.sqrt(total)
    err = (tail_err + 4.0 * _EPS * total) / (2.0 * value) if value > 0 else 0.0
    return value, err


def vertical_perimeter(S: FiniteSet):
    """(value, error_bound) for the l2 vertical perimeter of S."""
    return vertical_spectrum(S).perimeter()


# --- set generators ----------------------------------------------------


def box_set(k: int, a: int, b: int, h: int) -> FiniteSet:
    """x_i in [0, a), y_i in [0, b), w in [0, h); a^k b^k h elements."""
    if min(a, b, h) < 1:
        raise ValidationError("box dimensions must be positive")
    dims = (a,) * k + (b,) * k + (h,)
    return FiniteSet(k, np.indices(dims, dtype=np.int64).reshape(2 * k + 1, -1).T)


def ball_set(k: int, r: int) -> FiniteSet:
    from .cayley import ball

    return ball(k, r).points


def column_set(k: int, height: int) -> FiniteSet:
    if height < 1:
        raise ValidationError("column height must be positive")
    rows = np.zeros((height, 2 * k + 1), dtype=np.int64)
    rows[:, 2 * k] = np.arange(height)
    return FiniteSet(k, rows)


def random_blob(k: int, size: int, seed: int) -> FiniteSet:
    """Connected random cluster grown from the identity.

    Frontier candidates are visited in FIFO order; each draw accepts the
    candidate with probability 0.7 (uniform from the seeded stream) and
    otherwise requeues it, so the member set is a pure function of
    (k, size, seed).
    """
    if size < 1:
        raise ValidationError("blob size must be positive")
    u = Rng(seed).stream()
    from collections import deque

    start = (0,) * (2 * k + 1)
    members = {start}
    frontier = deque(_neighbor_tuples(k, start))
    while len(members) < size:
        cand = frontier.popleft()
        if cand in members:
            continue
        if next(u) < 0.7:
            members.add(cand)
            for nb in _neighbor_tuples(k, cand):
                if nb not in members:
                    frontier.append(nb)
        else:
            frontier.append(cand)
    return FiniteSet(k, members)


_SPEC_RE = re.compile(r"^\s*(box|ball|column|random_blob|singleton)\s*(?:\(([^)]*)\))?\s*$")


def parse_set_spec(k: int, text: str, seed: int | None = None) -> FiniteSet:
    """Build a set from a compact spec string.

    Forms: box(a,b,h), ball(r), column(h), random_blob(size) or
    random_blob(size,seed), singleton.  random_blob without an explicit
    seed requires one passed in.
    """
    m = _SPEC_RE.match(text)
    if not m:
        raise ValidationError(f"unrecognized set spec: {text!r}")
    kind, argtext = m.group(1), m.group(2)
    args = [int(v) for v in argtext.split(",")] if argtext else []
    if kind == "singleton":
        return column_set(k, 1)
    if kind == "box":
        if len(args) != 3:
            raise ValidationError("box takes (a,b,h)")
        return box_set(k, *args)
    if kind == "ball":
        if len(args) != 1:
            raise ValidationError("ball takes (r)")
        return ball_set(k, args[0])
    if kind == "column":
        if len(args) != 1:
            raise ValidationError("column takes (h)")
        return column_set(k, args[0])
    if len(args) == 2:
        return random_blob(k, args[0], require_seed(args[1], "random_blob seed"))
    if len(args) == 1:
        if seed is None:
            raise ValidationError("random_blob needs a seed")
        return random_blob(k, args[0], seed)
    raise ValidationError("random_blob takes (size) or (size,seed)")


def default_corpus(k: int = 2, seed: int = 20260816):
    """The standard 200-set study corpus: boxes, balls, columns, blobs.

    Returns a list of (set_id, spec_text, FiniteSet).  Blob seeds derive
    from the corpus seed, so the corpus is a pure function of (k, seed).
    """
    out = []
    idx = 0

    def add(spec, S):
        nonlocal idx
        out.append((idx, spec, S))
        idx += 1

    for a in (1, 2, 3):
        for b in (1, 2, 3):
            for h in (1, 2, 3, 5):
                add(f"box({a},{b},{h})", box_set(k, a, b, h))
    for r in range(4):
        add(f"ball({r})", ball_set(k, r))
    for h in (1, 2, 3, 4, 5, 8, 10, 16, 25, 32, 50, 64, 100, 128, 200, 256, 400, 512, 750, 1000):
        add(f"column({h})", column_set(k, h))
    sizes = (20, 50, 100, 200, 400, 800)
    for j, blob_seed in enumerate(substream_seeds(seed, 0, 140).tolist()):
        size = sizes[j % len(sizes)]
        add(f"random_blob({size},{blob_seed})", random_blob(k, size, blob_seed))
    return out
