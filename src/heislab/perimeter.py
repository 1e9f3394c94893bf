"""Horizontal and vertical perimeters of finite lattice sets.

A finite set is kept as lexicographically sorted, unique coordinate rows
(x_1..x_k, y_1..y_k, w) together with their mixed-radix int64 keys over
the set's own bounding window, so looking up a block of rows is one
``searchsorted``.  ``generator_step`` is the one generator action: it
right-multiplies every row of a block by one standard generator, and
every neighbour in the package, random_blob's included, comes from it.
``group.DiscreteElement.__mul__`` stays only as the scalar reference
for the tests and for ``perfbench/tracer.py``.

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
from itertools import islice
from math import fsum

import numpy as np

from .errors import ResourceCapError, ValidationError, require_seed
from .group import row_format
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

    def to_text(self) -> str:
        """One element text line per member, in lexicographic order."""
        line = row_format(self.k) + "\n"
        return (line * self.size).format(*self.rows.ravel().tolist())


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


def _column_overlaps(ws: np.ndarray) -> np.ndarray:
    """|{w : w, w+t in the column}| for t = 1..span, from the overlap of the
    column's bitset with its shifts."""
    span = int(ws[-1] - ws[0])
    bits = 0
    base = int(ws[0])
    for w in ws.tolist():
        bits |= 1 << (w - base)
    return np.fromiter(
        ((bits & (bits >> t)).bit_count() for t in range(1, span + 1)), np.int64, span
    )


def vertical_spectrum(S: FiniteSet) -> VerticalSpectrum:
    """|bd_v^t| = 2|S| minus twice the pairs (w, w+t) inside one column."""
    cols = S.columns()
    T0 = max(int(ws[-1] - ws[0]) for ws in cols)
    overlap = np.zeros(T0, dtype=np.int64)
    for ws in cols:
        if len(ws) > 1:
            o = _column_overlaps(ws)
            overlap[: len(o)] += o
    return VerticalSpectrum(S.size, T0, 2 * (S.size - overlap))


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
    queues its 4k neighbours in generator_step order, or otherwise
    requeues it, so the member set is a pure function of (k, size, seed).

    The queue is consumed in rounds.  A FIFO pops everything queued before
    anything queued after it, so round r + 1 is exactly what round r
    appended, in order, and the neighbours of all candidates accepted in a
    round come from one generator_step call per generator on their rows.
    Members only grow, so a neighbour that is already a member when it is
    queued is skipped at its pop without a draw: queueing it anyway leaves
    the draws and the member set as they are.
    """
    if size < 1:
        raise ValidationError("blob size must be positive")
    u = Rng(seed).stream()
    start = (0,) * (2 * k + 1)
    members = {start}
    # order: each requeued reject, or None where an accepted row's neighbours go
    accepted, order = [start], [None]
    while len(members) < size:
        rows = np.array(accepted, dtype=np.int64).reshape(-1, 2 * k + 1)
        moves = np.stack([generator_step(k, rows, j) for j in range(4 * k)], axis=1)
        nbrs = zip(*moves.reshape(-1, 2 * k + 1).T.tolist())
        queue = (c for item in order for c in (islice(nbrs, 4 * k) if item is None else (item,)))
        accepted, order = [], []
        for cand in queue:
            if cand in members:
                continue
            if next(u) < 0.7:
                members.add(cand)
                if len(members) == size:
                    break
                accepted.append(cand)
                order.append(None)
            else:
                order.append(cand)
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

    Returns a list of (set_id, spec_text, FiniteSet), each set built as
    parse_set_spec(k, spec_text), so a set is exactly what its text names.
    Blob seeds derive from the corpus seed, so the corpus is a pure
    function of (k, seed).
    """
    specs = [f"box({a},{b},{h})" for a in (1, 2, 3) for b in (1, 2, 3) for h in (1, 2, 3, 5)]
    specs += [f"ball({r})" for r in range(4)]
    specs += [
        f"column({h})"
        for h in (1, 2, 3, 4, 5, 8, 10, 16, 25, 32, 50, 64, 100, 128, 200, 256, 400, 512, 750, 1000)
    ]
    sizes = (20, 50, 100, 200, 400, 800)
    specs += [
        f"random_blob({sizes[j % len(sizes)]},{blob_seed})"
        for j, blob_seed in enumerate(substream_seeds(seed, 0, 140).tolist())
    ]
    return [(idx, spec, parse_set_spec(k, spec)) for idx, spec in enumerate(specs)]
