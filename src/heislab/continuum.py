"""Continuous-group regions, vertical perimeter profiles, voxelization.

Points live in exponential coordinates (x, y, z).  The vertical profile
of a bounded region E at scale s is

    profile(E)(s) = |E symdiff E.Z^(4^s)| / 2^s,

the volume moved by the central translation of parabolic size (2^s)^2,
normalized by one power of the scale.  Under the intrinsic dilation by t
the profile obeys  profile(dil_t E)(s) = t^(2k+1) profile(E)(s - log2 t),
and for coordinate boxes it is piecewise exponential with log-slopes +1
and -1 around a single knee, which makes boxes exact fixtures for the
Monte Carlo estimator.

``voxelize`` turns a region into a finite set of lattice points (the
discrete side of the package) by majority sampling over scaled lattice
cells.  A cell whose sample box an interval bound places wholly inside
or wholly outside the region is decided without drawing its samples,
which would all agree with that verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceCapError, ValidationError, require_positive
from .parallel import block_map
from .perimeter import FiniteSet
from .rng import Rng, substream_seeds, uniform_matrix

_BLOCK = 1 << 14


def quasi_ball_volume(k: int, R: float) -> float:
    """Volume of {sum|x| + sum|y| + 4 sqrt|z| <= R}."""
    return 2 ** (2 * k - 2) * R ** (2 * k + 2) / math.factorial(2 * k + 2)


# -- regions: vectorized membership oracles --------------------------------


@dataclass(frozen=True)
class Region:
    """Base: subclasses define contains() on an (m, 2k+1) coordinate array."""

    k: int

    def contains(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def box_verdict(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Per coordinate box [lo, hi] (one row each): 1 if contains() holds
        at every point of it, -1 if at none, 0 if undecided."""
        return np.zeros(len(lo), dtype=np.int8)


def _abs_range(lo, hi):
    """Smallest and largest |t| over each interval [lo, hi]."""
    amax = np.maximum(np.abs(lo), np.abs(hi))
    amin = np.where((lo < 0) & (hi > 0), 0.0, np.minimum(np.abs(lo), np.abs(hi)))
    return amin, amax


def _verdict(inside, outside) -> np.ndarray:
    return inside.astype(np.int8) - outside.astype(np.int8)


@dataclass(frozen=True)
class QuasiBall(Region):
    R: float

    def contains(self, pts):
        k = self.k
        l1 = np.abs(pts[:, : 2 * k]).sum(axis=1)
        return l1 + 4.0 * np.sqrt(np.abs(pts[:, 2 * k])) <= self.R

    def bounding_box(self):
        k, R = self.k, self.R
        lo = np.array([-R] * (2 * k) + [-(R * R) / 16.0])
        return lo, -lo

    def box_verdict(self, lo, hi):
        # the quasi-norm is increasing in every |coordinate|, and so is its
        # rounded evaluation, so its values on the box lie between those at
        # the smallest and the largest absolute coordinates
        amin, amax = _abs_range(lo, hi)
        k = self.k
        q_lo = amin[:, : 2 * k].sum(axis=1) + 4.0 * np.sqrt(amin[:, 2 * k])
        q_hi = amax[:, : 2 * k].sum(axis=1) + 4.0 * np.sqrt(amax[:, 2 * k])
        return _verdict(q_hi <= self.R, q_lo > self.R)


@dataclass(frozen=True)
class Box(Region):
    """Coordinate box: |x_i|, |y_i| <= r and |z| <= r^2."""

    r: float

    def contains(self, pts):
        k, r = self.k, self.r
        return (np.abs(pts[:, : 2 * k]) <= r).all(axis=1) & (np.abs(pts[:, 2 * k]) <= r * r)

    def bounding_box(self):
        k, r = self.k, self.r
        lo = np.array([-r] * (2 * k) + [-r * r])
        return lo, -lo


@dataclass(frozen=True)
class HalfSpaceCap(QuasiBall):
    """{x_axis >= offset} intersected with the quasi-ball of radius R."""

    axis: int = 0
    offset: float = 0.0

    def contains(self, pts):
        return super().contains(pts) & (pts[:, self.axis] >= self.offset)

    def box_verdict(self, lo, hi):
        a, off = self.axis, self.offset
        side = _verdict(lo[:, a] >= off, hi[:, a] < off)
        return np.minimum(super().box_verdict(lo, hi), side)


@dataclass(frozen=True)
class SlabComplementCap(QuasiBall):
    """{|x_axis| >= a} intersected with the quasi-ball of radius R."""

    a: float
    axis: int = 0

    def contains(self, pts):
        return super().contains(pts) & (np.abs(pts[:, self.axis]) >= self.a)

    def box_verdict(self, lo, hi):
        amin, amax = _abs_range(lo[:, self.axis], hi[:, self.axis])
        side = _verdict(amin >= self.a, amax < self.a)
        return np.minimum(super().box_verdict(lo, hi), side)


@dataclass(frozen=True)
class Dilation(Region):
    base: Region = None
    t: float = 1.0

    def contains(self, pts):
        q = pts.copy()
        q[:, : 2 * self.k] /= self.t
        q[:, 2 * self.k] /= self.t * self.t
        return self.base.contains(q)

    def bounding_box(self):
        lo, hi = self.base.bounding_box()
        s = np.array([self.t] * (2 * self.k) + [self.t * self.t])
        return lo * s, hi * s


def parse_region(spec: str) -> Region:
    """Textual region specs for the command line.

    quasi-ball:k=2,R=4 | box:k=2,r=2 | halfspace-cap:k=2,R=4,axis=0
    | two-slab:k=2,R=4,a=1,axis=0
    """
    name, _, rest = spec.partition(":")
    kv = {}
    if rest:
        for part in rest.split(","):
            key, _, val = part.partition("=")
            if not val:
                raise ValidationError(f"bad region parameter {part!r}")
            kv[key.strip()] = val.strip()
    try:
        k = int(kv.pop("k", 2))
        if name == "quasi-ball":
            return QuasiBall(k, float(kv.pop("R")))
        if name == "box":
            return Box(k, float(kv.pop("r")))
        if name == "halfspace-cap":
            return HalfSpaceCap(
                k, float(kv.pop("R")), int(kv.pop("axis", 0)), float(kv.pop("offset", 0.0))
            )
        if name == "two-slab":
            return SlabComplementCap(
                k, float(kv.pop("R")), float(kv.pop("a")), int(kv.pop("axis", 0))
            )
    except KeyError as exc:
        raise ValidationError(f"region {name!r} missing parameter {exc}") from None
    except ValueError as exc:
        raise ValidationError(f"bad region parameter value: {exc}") from None
    raise ValidationError(f"unknown region kind {name!r}")


# -- exact box profile -------------------------------------------------------


def box_vertical_profile(k: int, r: float, s) -> np.ndarray | float:
    """Exact profile of the coordinate box at scale(s) s.

    The box has horizontal area (2r)^(2k) and column height 2 r^2; a
    central shift by tau moves 2 min(tau, height) per unit area, so
    profile(s) = (2r)^(2k) * 2 * min(4^s, 2 r^2) / 2^s.
    """
    require_positive(r, "box half-width")
    s = np.asarray(s, dtype=float)
    area = (2.0 * r) ** (2 * k)
    out = area * 2.0 * np.minimum(4.0**s, 2.0 * r * r) / 2.0**s
    return out if out.ndim else float(out)


def box_profile_l2(k: int, r: float) -> float:
    """Closed form of the squared-profile integral: 8 r^2 (2r)^(4k) / ln 2."""
    return math.sqrt(8.0 * r * r * (2.0 * r) ** (4 * k) / math.log(2.0))


def box_profile_knee(r: float) -> float:
    return math.log2(r * math.sqrt(2.0))


def profile_l2_norm(s_values, values) -> float:
    """L2 norm of a sampled profile on a uniform s-grid.

    Trapezoid rule inside the window plus exact tails under the standing
    assumption that the profile decays with log-slope +1 to the left of
    the window and -1 to the right (true for boxes, asymptotically true
    for bounded sets).
    """
    s = np.asarray(s_values, dtype=float)
    v = np.asarray(values, dtype=float)
    if len(s) < 2 or np.abs(np.diff(s) - (s[1] - s[0])).max() > 1e-12:
        raise ValidationError("profile grid must be uniform with >= 2 points")
    sq = v * v
    total = float(np.trapezoid(sq, s))
    total += float(sq[0]) / (2.0 * math.log(2.0))
    total += float(sq[-1]) / (2.0 * math.log(2.0))
    return math.sqrt(total)


# -- Monte Carlo profile -----------------------------------------------------


@dataclass
class ProfilePoint:
    s: float
    value: float
    stderr: float
    samples: int


def _mc_block(payload) -> int:
    region, lo, hi, tau, m, seed, idx = payload
    dim = len(lo)
    rng = Rng(seed).substream(idx)
    U = rng.uniforms(m * dim).reshape(m, dim)
    pts = lo + (hi - lo) * U
    shifted = pts.copy()
    shifted[:, dim - 1] -= tau
    return int(np.sum(region.contains(pts) != region.contains(shifted)))


def _mc_one_scale(region: Region, s: float, samples: int, seed: int, workers: int):
    k = region.k
    dim = 2 * k + 1
    tau = 4.0**s
    lo, hi = region.bounding_box()
    lo = lo.copy()
    hi = hi.copy()
    lo[dim - 1] -= tau
    hi[dim - 1] += tau
    vol = float(np.prod(hi - lo))
    n_blocks = (samples + _BLOCK - 1) // _BLOCK
    payloads = [
        (region, lo, hi, tau, min(_BLOCK, samples - i * _BLOCK), seed, i)
        for i in range(n_blocks)
    ]
    hits = sum(block_map(_mc_block, payloads, workers))
    p = hits / samples
    value = vol * p / 2.0**s
    stderr = vol * math.sqrt(p * (1.0 - p) / samples) / 2.0**s
    return ProfilePoint(s, value, stderr, samples)


def mc_vertical_profile(
    region: Region,
    s_values,
    samples: int = 200_000,
    seed: int = 0,
    workers: int = 1,
) -> list[ProfilePoint]:
    """Rejection-free volume sampling of the profile at each scale.

    Each scale uses its own substream family keyed by (scale index,
    block index); block totals are combined in index order, so results
    are byte-identical for any worker count.
    """
    out = []
    for si, s in enumerate(s_values):
        sub = Rng(seed).substream(1_000_003 * si).seed
        out.append(_mc_one_scale(region, float(s), samples, sub, workers))
    return out


def mc_scaling_pair(
    region: Region,
    s_values,
    samples: int = 100_000,
    seed: int = 0,
    workers: int = 1,
) -> tuple[list[ProfilePoint], list[ProfilePoint], float]:
    """Paired-seed check of the dilation identity with t = 2.

    The dilated run reuses the base run's uniforms; doubling is exact in
    floating point, so the two profiles must satisfy
    profile_2(s + 1) = 2^(2k+1) profile_1(s) except for rounding in the
    volume prefactor.  Returns both profiles and the max relative error.
    """
    base = mc_vertical_profile(region, s_values, samples, seed, workers)
    dil = mc_vertical_profile(
        Dilation(region.k, region, 2.0),
        [s + 1.0 for s in s_values],
        samples,
        seed,
        workers,
    )
    factor = 2.0 ** (2 * region.k + 1)
    err = 0.0
    for a, b in zip(base, dil):
        want = factor * a.value
        if want != 0 or b.value != 0:
            err = max(err, abs(b.value - want) / max(abs(want), 1e-300))
    return base, dil, err


@dataclass
class ScalingCheck:
    lhs: float  # profile of the dilated region at rho
    rhs: float  # t^(2k+1) * profile of the base region at rho - log2 t
    residual: float
    stderr: float  # 0.0 on the closed-form box route


def scaling_identity_check(
    region: Region,
    t: float,
    rho: float,
    samples: int = 100_000,
    seed: int = 0,
    workers: int = 1,
) -> ScalingCheck:
    """Residual of the dilation law at scale rho.

    The law reads profile(dilate_t E)(rho) = t^(2k+1) profile(E)(rho - log2 t).
    Origin-centered boxes evaluate both sides in closed form, leaving a
    residual at rounding level for every t.  Any other region is sampled
    with a shared seed, which makes the residual exactly zero when t is
    a power of two (coordinate doubling is exact in floating point) and
    a small multiple of stderr otherwise.
    """
    if t <= 0:
        raise ValidationError("dilation factor must be positive")
    shift = math.log2(t)
    factor = t ** (2 * region.k + 1)
    if isinstance(region, Box):
        lhs = float(box_vertical_profile(region.k, t * region.r, rho))
        rhs = factor * float(box_vertical_profile(region.k, region.r, rho - shift))
        return ScalingCheck(lhs, rhs, abs(lhs - rhs), 0.0)
    base = _mc_one_scale(region, rho - shift, samples, seed, workers)
    dil = _mc_one_scale(Dilation(region.k, region, t), rho, samples, seed, workers)
    rhs = factor * base.value
    stderr = math.hypot(dil.stderr, factor * base.stderr)
    return ScalingCheck(dil.value, rhs, abs(dil.value - rhs), stderr)


# -- voxelization ------------------------------------------------------------

_CELL_CAP = 5_000_000


def voxelize(
    region: Region,
    h: float,
    samples_per_cell: int = 9,
    seed: int = 0,
    workers: int = 1,
) -> FiniteSet:
    """Majority-sampled lattice approximation of a region at scale h.

    Cell of lattice point g is the dilation by h of g.C0 with C0 the unit
    coordinate cube around the identity, multiplication in the integer
    chart.  A cell joins the output when more than half of its sample
    points land in the region; exact ties are excluded.  Each cell draws
    from its own substream, so the output is independent of the worker
    count and of which other cells are scanned.

    Cells that region.box_verdict places wholly inside or outside the
    region on a padded box around all of their sample points are decided
    without sampling: every sample would agree, so the output is the same.
    """
    require_positive(h, "voxel scale")
    if samples_per_cell < 1:
        raise ValidationError("need at least one sample per cell")
    cells = _candidate_cells(region, h)
    n_blocks = (len(cells) + _BLOCK - 1) // _BLOCK
    payloads = [
        (
            region,
            h,
            samples_per_cell,
            seed,
            i * _BLOCK,
            cells[i * _BLOCK : (i + 1) * _BLOCK],
        )
        for i in range(n_blocks)
    ]
    members = np.concatenate(block_map(_voxel_block, payloads, workers))
    if len(members) == 0:
        raise ValidationError("no cell reached majority; decrease the voxel scale")
    return FiniteSet(region.k, members)


def _candidate_cells(region: Region, h: float) -> np.ndarray:
    """Lattice points whose cells may meet the region's bounding box, in
    lexicographic order; position i draws from substream i."""
    k = region.k
    lo, hi = region.bounding_box()
    xy_lo = np.floor(lo[: 2 * k] / h).astype(np.int64) - 1
    xy_hi = np.ceil(hi[: 2 * k] / h).astype(np.int64) + 1
    z_lo, z_hi = lo[2 * k] / (h * h), hi[2 * k] / (h * h)

    ranges = [np.arange(a, b + 1) for a, b in zip(xy_lo, xy_hi)]
    xy_grid = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, 2 * k)
    x = xy_grid[:, :k]
    y = xy_grid[:, k:]
    xy_half = (x * y).sum(axis=1) / 2.0
    # cell z-deviation from its center: u_w + x.u_y/2 - u_x.y/2 - u_x.u_y/2
    margin = 1.5 + (np.abs(x).sum(axis=1) + np.abs(y).sum(axis=1)) / 4.0 + k / 8.0
    w_lo = np.floor(z_lo + xy_half - margin).astype(np.int64)
    w_hi = np.ceil(z_hi + xy_half + margin).astype(np.int64)
    counts = w_hi - w_lo + 1
    total = int(counts.sum())
    if total > _CELL_CAP:
        raise ResourceCapError(f"voxel candidate count exceeds {_CELL_CAP}; increase h")
    # "ij" meshgrid order with w ascending in each column is lexicographic
    rows = np.repeat(np.arange(len(xy_grid)), counts)
    offs = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    return np.column_stack([xy_grid[rows], w_lo[rows] + offs])


def _cell_boxes(cells: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate boxes (lo, hi), one row per cell, holding every sample
    point of the cell in exponential coordinates.

    With sample offsets U in [-1/2, 1/2], a cell (x, y, w) has
    x + U_x, y + U_y and z = w + U_w + x.U_y - (x + U_x).(y + U_y)/2; each
    product term ranges between its corner values.  Every interval is
    padded by a relative 1e-9, far above the rounding of the sampled
    coordinates, which sqrt near z = 0 would otherwise magnify.
    """
    k = (cells.shape[1] - 1) // 2
    c = cells.astype(float)
    x, y, w = c[:, :k], c[:, k : 2 * k], c[:, 2 * k]
    corners = [(x + a) * (y + b) for a in (-0.5, 0.5) for b in (-0.5, 0.5)]
    prod_lo = np.minimum.reduce(corners).sum(axis=1) / 2.0
    prod_hi = np.maximum.reduce(corners).sum(axis=1) / 2.0
    spread = 0.5 + 0.5 * np.abs(x).sum(axis=1)
    lo = np.column_stack([h * (x - 0.5), h * (y - 0.5), h * h * (w - spread - prod_hi)])
    hi = np.column_stack([h * (x + 0.5), h * (y + 0.5), h * h * (w + spread - prod_lo)])
    pad = 1e-9 * np.maximum(np.abs(lo), np.abs(hi))
    return lo - pad, hi + pad


def _inside_counts(region: Region, h: float, spc: int, seeds, cells) -> np.ndarray:
    """Per cell, how many of its spc samples (drawn from seeds) lie in the region."""
    k = region.k
    m = len(cells)
    dim = 2 * k + 1
    U = uniform_matrix(seeds, spc * dim).reshape(m, spc, dim) - 0.5
    x = cells[:, :k].astype(float)[:, None, :]
    y = cells[:, k : 2 * k].astype(float)[:, None, :]
    w = cells[:, 2 * k].astype(float)[:, None]
    px = x + U[:, :, :k]
    py = y + U[:, :, k : 2 * k]
    pw = w + U[:, :, 2 * k] + (U[:, :, k : 2 * k] * x).sum(axis=2)
    pz = pw - (px * py).sum(axis=2) / 2.0  # integer chart to exponential
    pts = np.concatenate(
        [h * px, h * py, (h * h * pz)[:, :, None]], axis=2
    ).reshape(m * spc, dim)
    return region.contains(pts).reshape(m, spc).sum(axis=1)


def _voxel_block(payload) -> np.ndarray:
    region, h, spc, seed, start, cells = payload
    verdict = region.box_verdict(*_cell_boxes(cells, h))
    undecided = np.flatnonzero(verdict == 0)
    seeds = substream_seeds(seed, start, len(cells))[undecided]
    keep = verdict > 0
    keep[undecided] = 2 * _inside_counts(region, h, spc, seeds, cells[undecided]) > spc
    return cells[keep]
