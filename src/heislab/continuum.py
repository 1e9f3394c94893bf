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

Membership tests run along the rows of an (m, 2k+1) coordinate array
without reducing along its short coordinate axis: ``row_sum`` adds the
columns one by one, bit for bit what ``a.sum(axis=-1)`` gives, and the
box ANDs its column tests.  ``Region.shift_changes`` asks which points
the central shift by tau moves across the boundary; the box answers it
with one horizontal test and two vertical ones, since the shift moves z
alone.

``voxelize`` turns a region into a finite set of lattice points (the
discrete side of the package) by majority sampling over scaled lattice
cells.  A cell whose sample box an interval bound places wholly inside
or wholly outside the region is decided without drawing its samples,
which would all agree with that verdict.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceCapError, ValidationError, require_positive
from .parallel import block_map
from .perimeter import FiniteSet
from .rng import substream_seeds, uniform_matrix

_BLOCK = 1 << 14


# -- regions: vectorized membership oracles --------------------------------


def row_sum(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=-1) of a float or integer array, bit for bit as numpy
    computes it in C order, whatever the memory layout of a.

    numpy adds fewer than 8 terms left to right from 0 (the + 0 turns a
    leading -0.0 into 0.0, as numpy does), which the chain of column adds
    repeats at a fraction of the cost of a reduction along a short axis;
    from 8 terms on numpy sums each C-ordered row pairwise, so wider rows
    are left to it.
    """
    n = a.shape[-1]
    if n >= 8:
        return np.ascontiguousarray(a).sum(axis=-1)
    out = a[..., 0] + a.dtype.type(0)
    for j in range(1, n):
        out += a[..., j]
    return out


@dataclass(frozen=True)
class Region:
    """Base: subclasses define contains() on an (m, 2k+1) coordinate array."""

    k: int

    def contains(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def shift_changes(self, pts: np.ndarray, tau: float) -> np.ndarray:
        """contains(pts) != contains(pts with z - tau): the points that the
        central shift by tau moves across the boundary."""
        shifted = pts.copy(order="K")
        shifted[:, -1] -= tau
        return self.contains(pts) != self.contains(shifted)

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
        a = np.abs(pts)
        return row_sum(a[:, : 2 * k]) + 4.0 * np.sqrt(a[:, 2 * k]) <= self.R

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
        q_lo = row_sum(amin[:, : 2 * k]) + 4.0 * np.sqrt(amin[:, 2 * k])
        q_hi = row_sum(amax[:, : 2 * k]) + 4.0 * np.sqrt(amax[:, 2 * k])
        return _verdict(q_hi <= self.R, q_lo > self.R)


@dataclass(frozen=True)
class Box(Region):
    """Coordinate box: |x_i|, |y_i| <= r and |z| <= r^2."""

    r: float

    def _horizontal(self, pts):
        r = self.r
        inside = np.abs(pts[:, 0]) <= r
        for j in range(1, 2 * self.k):
            inside &= np.abs(pts[:, j]) <= r
        return inside

    def contains(self, pts):
        return self._horizontal(pts) & (np.abs(pts[:, 2 * self.k]) <= self.r * self.r)

    def shift_changes(self, pts, tau):
        z, top = pts[:, 2 * self.k], self.r * self.r
        return self._horizontal(pts) & ((np.abs(z) <= top) != (np.abs(z - tau) <= top))

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


_REGION_KINDS = {  # kind: (class, parameters after k)
    "quasi-ball": (QuasiBall, ("R",)),
    "box": (Box, ("r",)),
    "halfspace-cap": (HalfSpaceCap, ("R", "axis", "offset")),
    "two-slab": (SlabComplementCap, ("R", "a", "axis")),
}
_REGION_DEFAULTS = {"k": 2, "axis": 0, "offset": 0.0}


def parse_region(spec: str) -> Region:
    """Textual region specs for the command line.

    quasi-ball:k=2,R=4 | box:k=2,r=2 | halfspace-cap:k=2,R=4,axis=0,offset=0
    | two-slab:k=2,R=4,a=1,axis=0
    """
    name, _, rest = spec.partition(":")
    if name not in _REGION_KINDS:
        raise ValidationError(f"unknown region kind {name!r}")
    cls, names = _REGION_KINDS[name]
    kv = {}
    if rest:
        for part in rest.split(","):
            key, _, val = part.partition("=")
            if not val:
                raise ValidationError(f"bad region parameter {part!r}")
            kv[key.strip()] = val.strip()
    unknown = sorted(set(kv) - {"k", *names})
    if unknown:
        raise ValidationError(f"unknown region parameter {unknown[0]!r} for {name!r}")
    vals = {}
    for key in ("k", *names):
        if key not in kv:
            if key not in _REGION_DEFAULTS:
                raise ValidationError(f"region {name!r} missing parameter {key!r}")
            vals[key] = _REGION_DEFAULTS[key]
            continue
        try:
            vals[key] = int(kv[key]) if key in ("k", "axis") else float(kv[key])
        except ValueError:
            raise ValidationError(f"bad value {kv[key]!r} for region parameter {key}") from None
    k = vals["k"]
    if k < 1:
        raise ValidationError("region parameter k must be >= 1")
    for key in ("R", "r", "a"):
        if key in vals:
            require_positive(vals[key], f"region parameter {key}")
    if not 0 <= vals.get("axis", 0) < 2 * k:
        raise ValidationError(f"region parameter axis must be in 0..{2 * k - 1}")
    if not math.isfinite(vals.get("offset", 0.0)):
        raise ValidationError("region parameter offset must be finite")
    return cls(**vals)


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
    U = uniform_matrix(substream_seeds(seed, idx, 1), m * dim).reshape(m, dim)
    # lo + (hi - lo) U, laid out coordinate by coordinate so that every
    # column the membership tests read is contiguous
    pts = np.multiply(U.T, (hi - lo)[:, None], order="C")
    pts += lo[:, None]
    return int(np.count_nonzero(region.shift_changes(pts.T, tau)))


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
        sub = int(substream_seeds(seed, 1_000_003 * si, 1)[0])
        out.append(_mc_one_scale(region, float(s), samples, sub, workers))
    return out


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
    xy_lo = np.floor(lo[: 2 * k] / h) - 1
    xy_hi = np.ceil(hi[: 2 * k] / h) + 1
    z_lo, z_hi = lo[2 * k] / (h * h), hi[2 * k] / (h * h)
    # margin >= 1.5 below gives every xy column at least z_hi - z_lo + 4
    # candidates (3 + floor of it, with room for rounding), so the grid is
    # refused before it is built when that many already pass the cap; the
    # count is in floats, which reach inf instead of wrapping
    columns = math.prod((xy_hi - xy_lo + 1).tolist())
    if columns * (3.0 + max(1.0, float(np.floor(z_hi - z_lo)))) > _CELL_CAP:
        raise ResourceCapError(f"voxel candidate count exceeds {_CELL_CAP}; increase h")

    bounds = zip(xy_lo.astype(np.int64), xy_hi.astype(np.int64))
    ranges = [np.arange(a, b + 1) for a, b in bounds]
    grids = np.meshgrid(*ranges, indexing="ij", copy=False)
    xy_grid = np.stack([g.ravel() for g in grids]).T  # one row per xy column
    x = xy_grid[:, :k]
    y = xy_grid[:, k:]
    xy_half = row_sum(x * y) / 2.0
    # cell z-deviation from its center: u_w + x.u_y/2 - u_x.y/2 - u_x.u_y/2
    margin = 1.5 + row_sum(np.abs(xy_grid)) / 4.0 + k / 8.0
    w_lo = np.floor(z_lo + xy_half - margin).astype(np.int64)
    w_hi = np.ceil(z_hi + xy_half + margin).astype(np.int64)
    counts = w_hi - w_lo + 1
    total = int(counts.sum())
    if total > _CELL_CAP:
        raise ResourceCapError(f"voxel candidate count exceeds {_CELL_CAP}; increase h")
    # "ij" meshgrid order with w ascending in each column is lexicographic;
    # the cells are stored coordinate by coordinate
    cells = np.empty((2 * k + 1, total), dtype=np.int64)
    for j in range(2 * k):
        cells[j] = np.repeat(xy_grid[:, j], counts)
    cells[2 * k] = np.repeat(w_lo - (np.cumsum(counts) - counts), counts)
    cells[2 * k] += np.arange(total)
    return cells.T


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
    c = cells.astype(float, order="F")  # columns contiguous
    x, y, w = c[:, :k], c[:, k : 2 * k], c[:, 2 * k]
    corners = [(x + a) * (y + b) for a in (-0.5, 0.5) for b in (-0.5, 0.5)]
    prod_lo = row_sum(functools.reduce(np.minimum, corners)) / 2.0
    prod_hi = row_sum(functools.reduce(np.maximum, corners)) / 2.0
    spread = 0.5 + 0.5 * row_sum(np.abs(x))
    lo = np.empty(c.shape, order="F")
    hi = np.empty(c.shape, order="F")
    lo[:, : 2 * k] = h * (c[:, : 2 * k] - 0.5)
    hi[:, : 2 * k] = h * (c[:, : 2 * k] + 0.5)
    lo[:, 2 * k] = h * h * (w - spread - prod_hi)
    hi[:, 2 * k] = h * h * (w + spread - prod_lo)
    pad = 1e-9 * np.maximum(np.abs(lo), np.abs(hi))
    return lo - pad, hi + pad


def _inside_counts(region: Region, h: float, spc: int, seeds, cells) -> np.ndarray:
    """Per cell, how many of its spc samples (drawn from seeds) lie in the region."""
    k = region.k
    m = len(cells)
    dim = 2 * k + 1
    # coordinate j of sample s of cell i sits at [j, i, s]
    U = uniform_matrix(seeds, spc * dim).reshape(m * spc, dim).T
    U = np.subtract(U, 0.5, order="C").reshape(dim, m, spc)
    c = cells.T.astype(float)[:, :, None]
    p = c + U  # x + U_x, y + U_y, w + U_w
    px, py = p[:k], p[k : 2 * k]
    pw = p[2 * k] + row_sum(np.moveaxis(U[k : 2 * k] * c[:k], 0, -1))
    pz = pw - row_sum(np.moveaxis(px * py, 0, -1)) / 2.0  # integer chart to exponential
    pts = np.empty((dim, m, spc))
    pts[: 2 * k] = h * p[: 2 * k]
    pts[2 * k] = h * h * pz
    return region.contains(pts.reshape(dim, m * spc).T).reshape(m, spc).sum(axis=1)


def _voxel_block(payload) -> np.ndarray:
    region, h, spc, seed, start, cells = payload
    verdict = region.box_verdict(*_cell_boxes(cells, h))
    undecided = np.flatnonzero(verdict == 0)
    seeds = substream_seeds(seed, start, len(cells))[undecided]
    keep = verdict > 0
    keep[undecided] = 2 * _inside_counts(region, h, spc, seeds, cells[undecided]) > spc
    return cells[keep]
