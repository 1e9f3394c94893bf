"""Horizontal and vertical perimeters of finite lattice sets.

A finite set is kept as lexicographically sorted, unique coordinate rows
(x_1..x_k, y_1..y_k, w) together with their mixed-radix int64 keys over
the set's own bounding box, so looking up a block of rows is one
``searchsorted``.  ``KeyWindow`` owns that key format, for these sets
and for the searches of ``cayley``.  ``generator_step`` is the one
generator action: it right-multiplies every row of a block by one
standard generator, and every neighbour in the package, random_blob's
included, comes from it.  ``KeyWindow.step`` is the same action on keys:
a positive generator adds a fixed offset, plus x_i for b_i, to the keys
of the rows that stay in the box.
``group.DiscreteElement.__mul__`` stays only as the scalar reference
for the tests and for ``perfbench/tracer.py``.

A finite set Omega splits into columns: fibers over the horizontal
coordinates (x, y), each a finite set of w-values.  The horizontal
boundary counts ordered pairs (g, g') with g in Omega, g' outside, and
g^-1 g' a standard generator.  g -> g s pairs the members whose
s-neighbour is in Omega with those whose s^-1-neighbour is, so it is
twice the sum over the 2k positive generators of the members whose step
misses Omega, each step one key offset and one ``searchsorted``.

The vertical boundary at jump t counts ordered pairs whose quotient is
c^t or c^-t; it is computable column by column, since central
multiplication only shifts w.  ``ColumnRuns`` cuts the sorted keys into
columns and into runs of consecutive w.  A run of length L holds
max(0, L - t) pairs (w, w + t); the pairs between two runs of a column
form a trapezoid in t with a second difference of four spikes, so all
of them are scattered and summed twice, in int64.  A column with many
short runs in a short span, whose cross-run pairs would outnumber its
jumps, takes its own bitset instead.  The vertical perimeter aggregates
the jump spectrum in an l2 sense:

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


class KeyWindow:
    """The coordinate box [lows, highs] and its mixed-radix int64 keys.

    The one owner of the packed-key format: key order is lexicographic
    row order for rows inside the box, and a box whose keys would not
    fit int64 is refused here.
    """

    def __init__(self, lows, highs):
        self.lows = np.asarray(lows, dtype=np.int64)
        self.highs = np.asarray(highs, dtype=np.int64)
        spans = [int(h) - int(lo) + 1 for lo, h in zip(self.lows, self.highs)]
        if math.prod(spans) >= 1 << 63:
            raise ResourceCapError("coordinate window does not fit packed keys")
        self.spans = np.array(spans, dtype=np.int64)

    def contains(self, rows: np.ndarray) -> np.ndarray:
        """Whether each row lies in the box: both bounds of every coordinate,
        tested one column at a time."""
        inside = np.ones(len(rows), dtype=bool)
        for j, (lo, hi) in enumerate(zip(self.lows.tolist(), self.highs.tolist())):
            col = rows[:, j]
            inside &= (col >= lo) & (col <= hi)
        return inside

    def pack(self, rows: np.ndarray) -> np.ndarray:
        """Keys of rows inside the box; a row outside gets a meaningless key."""
        key = np.zeros(len(rows), dtype=np.int64)
        for j in range(len(self.spans)):
            key = key * self.spans[j] + (rows[:, j] - self.lows[j])
        return key

    def step(self, rows: np.ndarray, keys: np.ndarray, j: int) -> np.ndarray:
        """Keys of the rows that stay in the box when right-multiplied by
        the positive generator j < 2k of generator_step, from their keys.

        a_i adds stride(x_i); b_i adds stride(y_i) + x_i, since w is the
        last digit.  Only the coordinates that change are tested, and the
        offset is added only to rows that stay, so no sum can wrap.
        """
        k = (len(self.spans) - 1) // 2
        i, is_b = divmod(j, 2)
        c = k + i if is_b else i
        stays = rows[:, c] < self.highs[c]
        offset = int(np.prod(self.spans[c + 1 :]))
        if not is_b:
            return keys[stays] + offset
        x = rows[:, i]
        dw = rows[:, 2 * k] - self.lows[2 * k]
        stays &= (x >= -dw) & (x < self.spans[2 * k] - dw)  # w + x stays in the box
        return keys[stays] + offset + x[stays]


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
        self.window = KeyWindow(rows.min(axis=0), rows.max(axis=0))
        keys = self.window.pack(rows)
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
        inside = self.window.contains(rows)
        keys = self.window.pack(rows[inside])
        at = np.minimum(np.searchsorted(self.keys, keys), self.size - 1)
        hit = self.keys[at] == keys
        pos = np.full(len(rows), -1, dtype=np.int64)
        pos[np.flatnonzero(inside)[hit]] = at[hit]
        return pos

    def to_text(self) -> str:
        """One element text line per member, in lexicographic order."""
        line = row_format(self.k) + "\n"
        return (line * self.size).format(*self.rows.ravel().tolist())


def horizontal_perimeter(S: FiniteSet) -> int:
    """|bd_h S|: ordered pairs leaving S along one generator step.

    g -> g s maps the members whose s-neighbour is in S onto those whose
    s^-1-neighbour is, so each inverse generator leaves S as often as its
    generator and only the 2k positive ones are counted, by key offsets.
    """
    leaving = 0
    for j in range(2 * S.k):
        moved = S.window.step(S.rows, S.keys, j)
        at = np.minimum(np.searchsorted(S.keys, moved), S.size - 1)
        leaving += S.size - int(np.count_nonzero(S.keys[at] == moved))
    return 2 * leaving


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


class ColumnRuns:
    """The column split of a FiniteSet: its sorted rows cut into columns,
    where (x, y) changes, and into runs, where w does not step by 1.

    Both cuts are read off the packed keys: w is their last digit, so a key
    one above its predecessor continues the run unless that digit wraps
    to 0, which starts a new column.
    """

    def __init__(self, S: FiniteSet):
        column, w = np.divmod(S.keys, S.window.spans[-1])
        first = np.flatnonzero((np.diff(S.keys) != 1) | (w[1:] == 0)) + 1
        self.first = np.concatenate(([0], first, [S.size]))  # row bounds of the runs
        self.start = w[self.first[:-1]]  # w offset where each run starts
        self.length = np.diff(self.first)
        run_col = column[self.first[:-1]]
        new = np.concatenate(([True], run_col[1:] != run_col[:-1]))
        self.column = np.cumsum(new) - 1  # column of each run
        self.bounds = np.append(np.flatnonzero(new), len(new))  # run bounds of the columns
        last = self.bounds[1:] - 1
        self.spans = self.start[last] + self.length[last] - 1 - self.start[self.bounds[:-1]]
        self.T0 = int(self.spans.max())


# a column of R runs whose R(R-1)/2 cross-run pairs exceed _BITSET_RATIO
# pairs per jump of its span takes the bitset route
_BITSET_RATIO = 2
# cross-run pairs scattered at once, which bounds the temporaries
_CHUNK_PAIRS = 1 << 18


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


def _pair_spikes(runs: ColumnRuns, kept: np.ndarray, T0: int) -> np.ndarray:
    """Second difference in t, for t = 0..T0 + 2, of the count of pairs
    (w, w+t) in one column, over the runs in kept.

    A run of length L holds max(0, L - t) pairs: +L at 0, -(L + 1) at 1
    and +1 at L + 1, the last from the histogram of L.  The pairs of runs
    i < j form a trapezoid: +1 at d and d + L_i + L_j, -1 at d + L_i and
    d + L_j, where d = s_j - e_i; these are scattered for a bounded chunk
    of (i, j) at a time.
    """
    L = runs.length[kept]
    spikes = np.bincount(L + 1, minlength=T0 + 3)
    spikes[0] += L.sum()
    spikes[1] -= L.sum() + len(L)
    partners = runs.bounds[1:][runs.column[kept]] - kept - 1
    ends = np.cumsum(partners)
    total = int(ends[-1]) if len(ends) else 0
    cuts = np.searchsorted(ends, np.arange(_CHUNK_PAIRS, total, _CHUNK_PAIRS), side="right")
    for a, b in zip([0, *cuts.tolist()], [*cuts.tolist(), len(kept)]):
        n = partners[a:b]
        if not n.any():
            continue
        i = np.repeat(kept[a:b], n)
        firsts = ends[a:b] - n
        j = i + 1 + np.arange(firsts[0], ends[b - 1]) - np.repeat(firsts, n)
        Li, Lj = runs.length[i], runs.length[j]
        d = runs.start[j] - runs.start[i] - Li + 1
        spikes += np.bincount(np.concatenate([d, d + Li + Lj]), minlength=T0 + 3)
        spikes -= np.bincount(np.concatenate([d + Li, d + Lj]), minlength=T0 + 3)
    return spikes


def vertical_spectrum(S: FiniteSet) -> VerticalSpectrum:
    """|bd_v^t| = 2|S| minus twice the pairs (w, w+t) inside one column.

    The pairs come from runs of consecutive w, inside a run and across two
    runs of a column; a column whose cross-run pairs would outnumber its
    jumps by _BITSET_RATIO takes the bitset route instead.
    """
    runs = ColumnRuns(S)
    R = np.diff(runs.bounds)
    bitset = R * (R - 1) / 2 > _BITSET_RATIO * (runs.spans + 1.0)
    kept = np.flatnonzero(~bitset[runs.column])
    overlap = np.cumsum(np.cumsum(_pair_spikes(runs, kept, runs.T0)))[1 : runs.T0 + 1]
    w = S.rows[:, 2 * S.k]
    for c in np.flatnonzero(bitset).tolist():
        lo, hi = runs.first[runs.bounds[c]], runs.first[runs.bounds[c + 1]]
        overlap[: runs.spans[c]] += _column_overlaps(w[lo:hi])
    return VerticalSpectrum(S.size, runs.T0, 2 * (S.size - overlap))


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

# most points a box, column or random_blob spec may name: isoperim on the
# largest such box, column, or blob at k <= 3 peaks under 2 GiB of RSS
_MAX_SPEC_POINTS = 2_000_000


def _cap_points(count: int, exact: bool = True) -> None:
    if count > _MAX_SPEC_POINTS:
        got = f"{'' if exact else 'at least '}{count}"
        raise ValidationError(f"a set spec names at most {_MAX_SPEC_POINTS} points, got {got}")


def parse_set_spec(k: int, text: str, seed: int | None = None) -> FiniteSet:
    """Build a set from a compact spec string.

    Forms: box(a,b,h), ball(r), column(h), random_blob(size) or
    random_blob(size,seed), singleton.  random_blob without an explicit
    seed requires one passed in.  A box, column or blob of more than
    2,000,000 points is refused from its count, before it is built.
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
        a, b, h = args
        if min(args) >= 1:  # past k = 64 a base a b >= 2 is over the cap
            _cap_points(h * (a * b) ** min(k, 64), a * b == 1 or k <= 64)
        return box_set(k, *args)
    if kind == "ball":
        if len(args) != 1:
            raise ValidationError("ball takes (r)")
        return ball_set(k, args[0])
    if kind == "column":
        if len(args) != 1:
            raise ValidationError("column takes (h)")
        _cap_points(args[0])
        return column_set(k, args[0])
    if args:
        _cap_points(args[0])
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
