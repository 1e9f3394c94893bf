"""Horizontal lines and the nonmonotonicity functional.

A horizontal line through p with horizontal direction V is
gamma(tau) = p.(tau V); its vertical coordinate is affine in tau with
slope half the symplectic pairing of p's horizontal part with V.  A set
is monotone when its trace on almost every horizontal line is a half
line.  The estimator walks an arithmetic tau-grid, keeps the positions
inside the quasi-ball of radius R, and measures on every in-ball
segment how many trace points any single sub-segment approximation must
flip:

    nm(line) = h * sum over segments of (P_seg - best contiguous run),

where P_seg counts in-set positions and the best run maximizes
(#in - #out) over contiguous stretches (Kadane).  Monotone traces cost
zero on every segment; a slab complement pays min(side, side, gap) per
crossing.  The reported value is the line average of nm / R.

Lines are handled in blocks of _LINE_BLOCK: a block's lines are drawn at
once and traced with one membership call per _TRACE_POINTS grid
positions, and both the Kadane costs and the dyadic histogram of in-set
run lengths come from those traces, so one pass over the lines serves
both statistics.  The Kadane run of a
segment is the largest rise of its prefix sums over their running
minimum, which whole blocks get from one cumulative sum and one running
minimum.

Sampling is in radius-normalized coordinates: substream i at radius R
and at radius 2R yields bases related exactly by the intrinsic dilation
(doubling is exact in binary floating point), so paired-seed runs at
two radii agree except for genuinely new geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .continuum import QuasiBall, Region
from .errors import ValidationError, require_positive
from .parallel import block_map
from .rng import substream_seeds, uniform_matrix

_LINE_BLOCK = 256
_TRACE_POINTS = 1 << 18  # grid positions traced per membership call


@dataclass(frozen=True)
class HorizontalLine:
    k: int
    base: tuple  # exponential coordinates, length 2k+1
    direction: tuple  # horizontal, length 2k, unit l2 norm


def _line_points(k: int, bases: np.ndarray, dirs: np.ndarray, taus: np.ndarray):
    """(lines, positions, 2k+1) points gamma_i(tau) of each line on the grid."""
    m = 2 * k
    # one dot product per line: a row-wise sum of products may round
    # differently for k >= 2, and every traced position would move
    slopes = np.array([0.5 * (b[:k] @ V[k:] - b[k:m] @ V[:k]) for b, V in zip(bases, dirs)])
    out = np.empty((len(bases), len(taus), m + 1))
    out[:, :, :m] = bases[:, None, :m] + taus[None, :, None] * dirs[:, None, :]
    out[:, :, m] = bases[:, m, None] + taus[None, :] * slopes[:, None]
    return out


def _line_block(k: int, R: float, seed: int, start: int, count: int):
    """(bases, directions) of lines start..start+count-1, one row per line.

    The base factorizes exactly: horizontal l1 radius rho = R Beta(2k, 3)
    (Gamma sums of log-uniforms), direction on the l1 sphere (normalized
    exponentials with signs), vertical coordinate uniform in the column
    +-((R - rho)/4)^2.  Every draw is a fixed-length block from the
    line's substream and scales linearly with R, so substream i at radii
    R and 2R yields bases related by the intrinsic dilation exactly.
    The line direction is an independent l2-unit horizontal vector from
    Box-Muller normals on the next 2k uniforms of the same substream.
    """
    m = 2 * k
    u = uniform_matrix(substream_seeds(seed, start, count), 3 * m + 4)
    expo = -np.log(1.0 - u[:, :m])  # exponentials for the l1 direction
    signs = np.where(u[:, m : 2 * m] < 0.5, 1.0, -1.0)
    g1 = expo.sum(axis=1)  # Gamma(2k), reused from the direction draws
    g2 = -np.log(1.0 - u[:, 2 * m : 2 * m + 3]).sum(axis=1)  # Gamma(3)
    rho = R * g1 / (g1 + g2)  # l1 radius with density rho^(2k-1)(R-rho)^2
    bases = np.empty((count, m + 1))
    bases[:, :m] = rho[:, None] * signs * (expo / g1[:, None])
    # scalar ** is libm pow, which differs from numpy's x*x in the last bit
    zmax = np.array([((R - r) / 4.0) ** 2 for r in rho.tolist()])
    bases[:, m] = zmax * (2.0 * u[:, 2 * m + 3] - 1.0)

    half = m // 2  # Box-Muller pairs on uniforms 2m+4 .. 3m+3
    radius = np.sqrt(-2.0 * np.log(1.0 - u[:, 2 * m + 4 : 2 * m + 4 + half]))
    angle = 2.0 * np.pi * u[:, 2 * m + 4 + half :]
    g = np.empty((count, m))
    g[:, 0::2] = radius * np.cos(angle)
    g[:, 1::2] = radius * np.sin(angle)
    dirs = np.empty((count, m))
    for i, row in enumerate(g):
        nrm = float(np.linalg.norm(row))
        if nrm == 0.0:  # unreachable in practice, keep the line valid
            row = np.zeros(m)
            row[0] = nrm = 1.0
        dirs[i] = row / nrm
    return bases, dirs


def _grid(R: float, h: float) -> np.ndarray:
    """The tau-grid j*h, |j*h| covering the ball.

    Bases lie inside the ball, so in-ball positions obey
    |tau| <= |tau| |V|_1 <= l1(base) + R <= 2R; the grid covers that.
    """
    M = int(math.ceil(2.0 * R / h))
    return h * np.arange(-M, M + 1)


def _trace_block(region: Region, bases, dirs, R: float, taus: np.ndarray):
    """(in_ball, in_set), one row per line and one column per grid position."""
    pts = _line_points(region.k, bases, dirs, taus).reshape(-1, 2 * region.k + 1)
    in_ball = QuasiBall(region.k, R).contains(pts)
    in_set = region.contains(pts) & in_ball
    shape = (len(bases), len(taus))
    return in_ball.reshape(shape), in_set.reshape(shape)


def line_trace(region: Region, line: HorizontalLine, R: float, h: float):
    """(taus, in_ball, in_set) of one line: the one-line block trace."""
    taus = _grid(R, h)
    in_ball, in_set = _trace_block(
        region, np.asarray([line.base]), np.asarray([line.direction]), R, taus
    )
    return taus, in_ball[0], in_set[0]


def _runs(mask: np.ndarray):
    """(positions, first) of the maximal true runs of each row of mask.

    positions are the flat indices of the true entries and first marks
    the entries that open a run; runs restart at every row.
    """
    pos = np.flatnonzero(mask)
    first = np.ones(len(pos), dtype=bool)
    first[1:] = (np.diff(pos) != 1) | (pos[1:] % mask.shape[1] == 0)
    return pos, first


def _kadane_totals(in_ball: np.ndarray, in_set: np.ndarray) -> np.ndarray:
    """Per line, the sum over in-ball segments of P_seg - best Kadane run."""
    n, T = in_ball.shape
    pos, first = _runs(in_ball)
    if len(pos) == 0:
        return np.zeros(n)
    starts = np.flatnonzero(first)
    seg = np.cumsum(first) - 1
    sigma = np.where(in_set.ravel()[pos], 1, -1)
    cum = np.cumsum(sigma)
    before = np.concatenate([[0], cum[starts[1:] - 1]])  # prefix sum ahead of each segment
    prefix = cum - before[seg]  # within-segment prefix sums, |prefix| <= T
    # shifting segment s down by s(2T+1) puts it below every earlier one,
    # so one running minimum restarts at every segment
    offset = seg * (2 * T + 1)
    low = np.minimum(np.minimum.accumulate(prefix - offset) + offset, 0)
    best = np.maximum.reduceat(prefix - low, starts)
    P = np.add.reduceat(sigma > 0, starts)
    return np.bincount(pos[starts] // T, weights=P - best, minlength=n)


def _tally_runs(in_set: np.ndarray, h: float, weights: dict) -> tuple[int, int]:
    """Add the dyadic classes of the in-set runs to weights; (censored, runs).

    Runs within one grid pitch of a class boundary are split half and
    half between the neighboring classes; runs touching the grid ends
    are censored, their length unknown.
    """
    T = in_set.shape[1]
    pos, first = _runs(in_set)
    if len(pos) == 0:
        return 0, 0
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], len(pos)) - 1
    clipped = (pos[starts] % T == 0) | (pos[ends] % T == T - 1)
    lengths, counts = np.unique((ends - starts + 1)[~clipped], return_counts=True)
    for n_pos, c in zip(lengths.tolist(), counts.tolist()):
        length = h * n_pos
        j = int(math.floor(math.log2(length))) + 1
        lo_b, hi_b = 2.0 ** (j - 1), 2.0**j
        if length - lo_b < h:
            shares = ((j, 0.5), (j - 1, 0.5))
        elif hi_b - length < h:
            shares = ((j, 0.5), (j + 1, 0.5))
        else:
            shares = ((j, 1.0),)
        for cls, w in shares:
            weights[cls] = weights.get(cls, 0.0) + w * c
    return int(clipped.sum()), len(starts)


@dataclass
class IntervalHistogram:
    classes: dict  # dyadic class j -> weight; class j holds [2^(j-1), 2^j)
    censored: int  # runs cut off by the tau-grid ends, kept out of classes
    runs: int
    n_lines: int


@dataclass
class NmReport:
    value: float
    stderr: float
    n_lines: int
    radius: float
    step: float
    per_line: np.ndarray
    histogram: IntervalHistogram


def _nm_block(payload):
    region, R, h, seed, start, count = payload
    bases, dirs = _line_block(region.k, R, seed, start, count)
    taus = _grid(R, h)
    per_line = np.empty(count)
    weights: dict[int, float] = {}
    censored = runs = 0
    step = max(1, _TRACE_POINTS // len(taus))
    for a in range(0, count, step):
        in_ball, in_set = _trace_block(region, bases[a : a + step], dirs[a : a + step], R, taus)
        per_line[a : a + step] = h * _kadane_totals(in_ball, in_set)
        c, r = _tally_runs(in_set, h, weights)
        censored += c
        runs += r
    return per_line, weights, censored, runs


def nonmonotonicity(
    region: Region,
    R: float,
    n_lines: int = 2000,
    seed: int = 0,
    steps: int = 120,
    workers: int = 1,
) -> NmReport:
    """Line-averaged nonmonotonicity of the region inside the R-ball,
    with the dyadic histogram of in-set run lengths on the same lines.

    steps fixes the grid pitch h = R / steps, so estimates at different
    radii with equal seeds are comparable point for point.  Histogram
    weights are exact multiples of 1/2, so block order cannot move them.
    """
    require_positive(R, "observation radius")
    if steps < 1:
        raise ValidationError("need at least one grid step")
    if n_lines < 2:
        raise ValidationError("need at least two lines")
    h = R / steps
    payloads = []
    for start in range(0, n_lines, _LINE_BLOCK):
        count = min(_LINE_BLOCK, n_lines - start)
        payloads.append((region, R, h, seed, start, count))
    parts = block_map(_nm_block, payloads, workers)
    vals = np.concatenate([part[0] for part in parts])
    classes: dict[int, float] = {}
    for _, w, _, _ in parts:
        for j, v in w.items():
            classes[j] = classes.get(j, 0.0) + v
    hist = IntervalHistogram(
        dict(sorted(classes.items())),
        sum(part[2] for part in parts),
        sum(part[3] for part in parts),
        n_lines,
    )
    value = float(vals.mean()) / R
    stderr = float(vals.std(ddof=1)) / math.sqrt(n_lines) / R
    return NmReport(value, stderr, n_lines, R, h, vals, hist)


def interval_histogram(
    region: Region,
    R: float,
    n_lines: int = 2000,
    seed: int = 0,
    steps: int = 120,
    workers: int = 1,
) -> IntervalHistogram:
    """The histogram half of nonmonotonicity()."""
    return nonmonotonicity(region, R, n_lines, seed, steps, workers).histogram
