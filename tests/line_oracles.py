"""Per-line oracles for the block line engine of ``heislab.lines``.

Each line is drawn from its own ``Rng`` substream, traced on its own,
and its Kadane costs and in-set runs are found by plain loops over that
one trace; the block engine draws, traces and scores whole blocks of
lines at once and must agree bit for bit.
"""

import math

import numpy as np

from heislab.errors import ValidationError
from heislab.lines import HorizontalLine, IntervalHistogram
from heislab.rng import Rng
from rng_oracles import substream_seed


def normals(rng: Rng, n: int) -> np.ndarray:
    """n standard normals via Box-Muller on paired uniforms of rng."""
    m = (n + 1) // 2
    u = rng.uniforms(2 * m)
    u1 = 1.0 - u[:m]  # avoid log(0)
    u2 = u[m:]
    r = np.sqrt(-2.0 * np.log(u1))
    out = np.empty(2 * m)
    out[0::2] = r * np.cos(2.0 * np.pi * u2)
    out[1::2] = r * np.sin(2.0 * np.pi * u2)
    return out[:n]


def lines_at(k: int, R: float, count: int, seed: int, start: int) -> list:
    """Lines start..start+count-1, each from its own Rng substream."""
    out = []
    m = 2 * k
    for i in range(start, start + count):
        rng = Rng(substream_seed(seed, i))
        u = rng.uniforms(2 * m + 4)
        expo = -np.log(1.0 - u[:m])  # exponentials for the l1 direction
        signs = np.where(u[m : 2 * m] < 0.5, 1.0, -1.0)
        g1 = float(expo.sum())  # Gamma(2k), reused from the direction draws
        g2 = float(-np.log(1.0 - u[2 * m : 2 * m + 3]).sum())  # Gamma(3)
        rho = R * g1 / (g1 + g2)  # l1 radius with density rho^(2k-1)(R-rho)^2
        base = np.empty(m + 1)
        base[:m] = rho * signs * (expo / g1)
        zmax = ((R - rho) / 4.0) ** 2
        base[m] = zmax * (2.0 * u[2 * m + 3] - 1.0)
        g = normals(rng, m)
        nrm = float(np.linalg.norm(g))
        if nrm == 0.0:  # unreachable in practice, keep the line valid
            g = np.zeros(m)
            g[0] = 1.0
            nrm = 1.0
        out.append(HorizontalLine(k, tuple(base), tuple(g / nrm)))
    return out


def sample_horizontal_lines(k: int, R: float, count: int, seed: int) -> list:
    """Lines with bases uniform in the quasi-ball of radius R."""
    return lines_at(k, R, count, seed, 0)


def line_points(line: HorizontalLine, taus: np.ndarray) -> np.ndarray:
    """gamma(tau) = base * (tau direction) for one line."""
    k = line.k
    b = np.asarray(line.base)
    V = np.asarray(line.direction)
    bx, by = b[:k], b[k : 2 * k]
    Vx, Vy = V[:k], V[k:]
    slope = 0.5 * (bx @ Vy - by @ Vx)
    out = np.empty((len(taus), 2 * k + 1))
    out[:, : 2 * k] = b[: 2 * k] + taus[:, None] * V
    out[:, 2 * k] = b[2 * k] + taus * slope
    return out


def trace(region, line: HorizontalLine, R: float, h: float):
    """(taus, in_ball, in_set) on the grid j*h, |j*h| <= 2R rounded up."""
    M = int(math.ceil(2.0 * R / h))
    taus = h * np.arange(-M, M + 1)
    pts = line_points(line, taus)
    k = region.k
    quasi = np.abs(pts[:, : 2 * k]).sum(axis=1) + 4.0 * np.sqrt(np.abs(pts[:, 2 * k]))
    in_ball = quasi <= R
    return taus, in_ball, region.contains(pts) & in_ball


def line_intervals(region, line: HorizontalLine, clip, h: float) -> list:
    """Maximal in-set runs of the sampled trace on the clip window, each
    as (first, last) sample position."""
    t0, t1 = float(clip[0]), float(clip[1])
    if not h > 0.0:
        raise ValidationError("sampling pitch must be positive")
    if not t1 > t0:
        raise ValidationError("clip window must be nondegenerate")
    taus = t0 + h * np.arange(int(math.floor((t1 - t0) / h)) + 1)
    inside = region.contains(line_points(line, taus))
    idx = np.flatnonzero(inside)
    if len(idx) == 0:
        return []
    splits = np.flatnonzero(np.diff(idx) > 1)
    return [
        (float(taus[run[0]]), float(taus[run[-1]]))
        for run in np.split(idx, splits + 1)
    ]


def segment_cost(sigma: np.ndarray) -> int:
    """P - best Kadane run on one +-1 segment; zero for monotone traces."""
    P = int((sigma > 0).sum())
    best = 0
    run = 0
    for v in sigma:
        run = max(0, run + int(v))
        best = max(best, run)
    return P - best


def line_nonmonotonicity(region, line: HorizontalLine, R: float, h: float) -> float:
    _, in_ball, in_set = trace(region, line, R, h)
    if not in_ball.any():
        return 0.0
    total = 0
    idx = np.flatnonzero(in_ball)
    splits = np.flatnonzero(np.diff(idx) > 1)
    for seg in np.split(idx, splits + 1):
        sigma = np.where(in_set[seg], 1, -1)
        total += segment_cost(sigma)
    return h * total


def per_line_nm(region, R: float, n_lines: int, seed: int, steps: int) -> np.ndarray:
    h = R / steps
    return np.array(
        [line_nonmonotonicity(region, line, R, h)
         for line in lines_at(region.k, R, n_lines, seed, 0)]
    )


def tally_trace(in_set: np.ndarray, h: float, weights: dict) -> tuple[int, int]:
    """Add the dyadic classes of one trace's in-set runs to weights;
    (censored, runs)."""
    censored = 0
    runs = 0
    idx = np.flatnonzero(in_set)
    if len(idx) == 0:
        return 0, 0
    splits = np.flatnonzero(np.diff(idx) > 1)
    for run in np.split(idx, splits + 1):
        runs += 1
        if run[0] == 0 or run[-1] == len(in_set) - 1:
            censored += 1  # touches the grid clip, length unknown
            continue
        length = h * len(run)
        j = int(math.floor(math.log2(length))) + 1
        lo_b, hi_b = 2.0 ** (j - 1), 2.0**j
        if length - lo_b < h:
            weights[j] = weights.get(j, 0.0) + 0.5
            weights[j - 1] = weights.get(j - 1, 0.0) + 0.5
        elif hi_b - length < h:
            weights[j] = weights.get(j, 0.0) + 0.5
            weights[j + 1] = weights.get(j + 1, 0.0) + 0.5
        else:
            weights[j] = weights.get(j, 0.0) + 1.0
    return censored, runs


def histogram(region, R: float, n_lines: int, seed: int, steps: int) -> IntervalHistogram:
    """Dyadic classes of the in-set runs, one line and one run at a time."""
    h = R / steps
    weights: dict[int, float] = {}
    censored = 0
    runs = 0
    for line in lines_at(region.k, R, n_lines, seed, 0):
        _, _, in_set = trace(region, line, R, h)
        c, r = tally_trace(in_set, h, weights)
        censored += c
        runs += r
    return IntervalHistogram(dict(sorted(weights.items())), censored, runs, n_lines)
