import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heislab.continuum import (
    Box,
    Dilation,
    HalfSpaceCap,
    QuasiBall,
    SlabComplementCap,
    _candidate_cells,
    _cell_boxes,
    _inside_counts,
    box_profile_knee,
    box_profile_l2,
    box_vertical_profile,
    mc_scaling_pair,
    mc_vertical_profile,
    parse_region,
    profile_l2_norm,
    quasi_ball_volume,
    scaling_identity_check,
    voxelize,
)
from heislab.errors import ResourceCapError, ValidationError
from heislab.rng import Rng, substream_seeds


def test_quasi_ball_volume_closed_form():
    # k=1: 2^0 R^4 / 4! = R^4 / 24
    assert quasi_ball_volume(1, 1.0) == pytest.approx(1.0 / 24.0)
    assert quasi_ball_volume(1, 2.0) == pytest.approx(16.0 / 24.0)
    assert quasi_ball_volume(2, 1.0) == pytest.approx(4.0 / math.factorial(6))


def test_quasi_ball_volume_monte_carlo():
    R = 2.0
    lo = np.array([-R, -R, -(R / 4.0) ** 2])
    hi = -lo
    rng = Rng(123)
    m = 200_000
    pts = rng.uniforms(3 * m).reshape(m, 3) * (hi - lo) + lo
    inside = QuasiBall(1, R).contains(pts)
    box_vol = float(np.prod(hi - lo))
    est = inside.mean() * box_vol
    sd = float(inside.std() / math.sqrt(m)) * box_vol
    assert abs(est - quasi_ball_volume(1, R)) <= 4.0 * sd + 1e-12


def test_region_membership():
    ball = QuasiBall(1, 4.0)
    assert ball.contains(np.zeros((1, 3)))[0]
    assert not ball.contains(np.array([[4.0, 1.0, 0.0]]))[0]
    box = Box(1, 1.0)
    assert box.contains(np.array([[0.5, -0.5, 0.9]]))[0]
    assert not box.contains(np.array([[1.5, 0.0, 0.0]]))[0]
    half = HalfSpaceCap(1, 4.0, 0, 0.0)
    assert half.contains(np.array([[1.0, 0.0, 0.0]]))[0]
    assert not half.contains(np.array([[-1.0, 0.0, 0.0]]))[0]


def test_two_slab_is_ball_minus_slab():
    region = SlabComplementCap(1, 4.0, 0.5, 0)
    inside_slab = np.array([[0.2, 0.0, 0.0]])
    outside = np.array([[1.0, 0.5, 0.1]])
    assert not region.contains(inside_slab)[0]
    assert region.contains(outside)[0]


def test_dilation_contains():
    base = Box(1, 1.0)
    dil = Dilation(1, base, 2.0)
    pts = Rng(5).uniforms(30).reshape(10, 3) * 4.0 - 2.0
    shrunk = pts.copy()
    shrunk[:, :2] /= 2.0
    shrunk[:, 2] /= 4.0
    assert np.array_equal(dil.contains(pts), base.contains(shrunk))


def test_parse_region():
    r = parse_region("quasi-ball:k=2,R=4")
    assert isinstance(r, QuasiBall) and r.k == 2 and r.R == 4.0
    r = parse_region("two-slab:k=1,R=4,a=0.5")
    assert isinstance(r, SlabComplementCap) and r.a == 0.5
    with pytest.raises(ValidationError):
        parse_region("torus:k=1")
    with pytest.raises(ValidationError):
        parse_region("quasi-ball:k=1")  # missing R


def test_box_profile_closed_form_shape():
    k, r = 1, 2.0
    knee = box_profile_knee(r)
    assert knee == pytest.approx(math.log2(r * math.sqrt(2.0)))
    s = np.array([knee - 2.0, knee - 1.0, knee, knee + 1.0, knee + 2.0])
    v = box_vertical_profile(k, r, s)
    # slope +1 below the knee, -1 above, in log2-log2 coordinates
    assert math.log2(v[1]) - math.log2(v[0]) == pytest.approx(1.0, abs=1e-9)
    assert math.log2(v[4]) - math.log2(v[3]) == pytest.approx(-1.0, abs=1e-9)


def test_box_profile_l2_matches_quadrature():
    k, r = 1, 1.5
    grid = np.linspace(-14.0, 18.0, 1281)
    vals = box_vertical_profile(k, r, grid)
    num = profile_l2_norm(grid, vals)
    assert num == pytest.approx(box_profile_l2(k, r), rel=1e-3)


def test_mc_profile_matches_exact():
    region = Box(1, 1.0)
    grid = [-1.0, 0.0, 1.0, 2.0]
    pts = mc_vertical_profile(region, grid, samples=40_000, seed=9)
    exact = box_vertical_profile(1, 1.0, np.array(grid))
    for p, want in zip(pts, exact):
        assert abs(p.value - want) <= 4.0 * p.stderr + 1e-12
        assert p.stderr > 0


def test_mc_profile_worker_independent():
    region = Box(1, 1.0)
    a = mc_vertical_profile(region, [0.5], samples=20_000, seed=3, workers=1)
    b = mc_vertical_profile(region, [0.5], samples=20_000, seed=3, workers=4)
    assert a[0].value == b[0].value
    assert a[0].stderr == b[0].stderr


def test_scaling_identity_exact():
    region = Box(1, 1.25)
    _, _, err = mc_scaling_pair(region, [0.0, 1.0, 2.0], samples=20_000, seed=1)
    assert err <= 1e-12


def test_voxelize_small_ball():
    S = voxelize(QuasiBall(1, 2.0), 0.5, seed=0)
    assert S.k == 1
    assert S.size == 7  # frozen from the first verified run
    vol = S.size * 0.5**4
    assert abs(vol - quasi_ball_volume(1, 2.0)) < quasi_ball_volume(1, 2.0)


def test_voxelize_worker_independent():
    a = voxelize(QuasiBall(1, 2.0), 0.25, seed=2, workers=1)
    b = voxelize(QuasiBall(1, 2.0), 0.25, seed=2, workers=3)
    assert a == b


def test_voxelize_converges_to_volume():
    want = quasi_ball_volume(1, 2.0)
    errs = []
    for h in (0.5, 0.25, 0.125):
        S = voxelize(QuasiBall(1, 2.0), h, samples_per_cell=25, seed=4)
        errs.append(abs(S.size * h**4 - want))
    assert errs[-1] < errs[0]
    assert errs[-1] / want < 0.25


def test_voxelize_cell_cap():
    with pytest.raises(ResourceCapError):
        voxelize(QuasiBall(1, 2.0), 0.01, seed=0)


def test_scaling_identity_box_exact_any_factor():
    # both sides in closed form: the residual is pure rounding at every t
    for t in (1.0, 2.0, 3.7, 0.4):
        for rho in (-1.0, 0.5, 2.0, 4.0):
            chk = scaling_identity_check(Box(1, 1.5), t, rho)
            assert chk.stderr == 0.0
            assert chk.residual <= 1e-12 * max(1.0, abs(chk.rhs))
    with pytest.raises(ValidationError):
        scaling_identity_check(Box(1, 1.0), 0.0, 1.0)


def test_scaling_identity_mc_paired():
    # power-of-two factors reuse the same uniforms: the residual vanishes
    chk = scaling_identity_check(QuasiBall(1, 2.0), 2.0, 1.5, samples=4000, seed=7)
    assert chk.residual == 0.0
    # other factors agree within a few standard errors
    chk = scaling_identity_check(QuasiBall(1, 2.0), 1.5, 1.5, samples=40_000, seed=7)
    assert chk.residual <= 4.0 * max(chk.stderr, 1e-12)


# -- the voxel screen: decided cells agree with every sample ------------------

SCREENED = {
    "ball-k1": (QuasiBall(1, 2.0), 0.1),
    # the plane y = 0.35 runs along cell faces, x = 0.52 cuts through cells
    "cap-k1": (HalfSpaceCap(1, 2.0, 1, 0.35), 0.1),
    "slab-k1": (SlabComplementCap(1, 2.0, 0.52, 0), 0.1),
    "ball-k2": (QuasiBall(2, 1.0), 0.25),
    "cap-k2": (HalfSpaceCap(2, 1.0, 3, 0.0), 0.25),
    "slab-k2": (SlabComplementCap(2, 1.0, 0.3, 1), 0.25),
}


@pytest.mark.parametrize("name", sorted(SCREENED))
def test_screen_agrees_with_every_sample(name):
    region, h = SCREENED[name]
    spc = 16
    cells = _candidate_cells(region, h)
    lo, hi = _cell_boxes(cells, h)
    verdict = region.box_verdict(lo, hi)
    counts = _inside_counts(region, h, spc, substream_seeds(3, 0, len(cells)), cells)
    assert np.all(counts[verdict == 1] == spc)
    assert np.all(counts[verdict == -1] == 0)
    # the screen decides cells on both sides of z = 0 and skips most of them
    across = (lo[:, -1] < 0) & (hi[:, -1] > 0)
    assert np.any(across & (verdict == -1))
    assert np.count_nonzero(verdict) > 0.7 * len(cells)
    if region.k == 1:
        assert np.any(across & (verdict == 1))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_candidate_cells_in_lexicographic_order(k):
    # the position of a cell in this order is its substream index
    cells = _candidate_cells(Dilation(k, Box(k, 0.5), 1.5), 0.4)
    assert np.array_equal(np.lexsort(cells.T[::-1]), np.arange(len(cells)))


@pytest.mark.parametrize("k", [1, 2])
def test_cell_boxes_hold_every_sample(k):
    h, spc = 0.2, 8
    cells = _candidate_cells(QuasiBall(k, 0.8), h)
    lo, hi = _cell_boxes(cells, h)
    seen = []

    class Recorder(Box):
        def contains(self, pts):
            seen.append(pts)
            return super().contains(pts)

    _inside_counts(Recorder(k, 1.0), h, spc, substream_seeds(5, 0, len(cells)), cells)
    pts = seen[0].reshape(len(cells), spc, 2 * k + 1)
    assert np.all(pts >= lo[:, None, :]) and np.all(pts <= hi[:, None, :])


@pytest.mark.parametrize("k", [1, 2])
def test_box_verdict_sound_on_random_boxes(k):
    rng = Rng(11)
    dim = 2 * k + 1
    regions = [
        QuasiBall(k, 2.0),
        HalfSpaceCap(k, 2.0, k, 0.3),
        SlabComplementCap(k, 2.0, 0.5, 0),
    ]
    n, per = 3000, 12
    scale = np.array([3.0 / k] * (2 * k) + [0.3])
    center = (rng.uniforms(n * dim).reshape(n, dim) - 0.5) * scale
    size = rng.uniforms(n * dim).reshape(n, dim) * scale / 15.0
    lo, hi = center - size, center + size
    t = rng.uniforms(n * per * dim).reshape(n, per, dim)
    t[:, 0], t[:, 1] = 0.0, 1.0  # both extreme corners
    pts = (lo[:, None, :] + t * (hi - lo)[:, None, :]).reshape(-1, dim)
    for region in regions:
        verdict = region.box_verdict(lo, hi)
        inside = region.contains(pts).reshape(n, per)
        assert np.all(inside[verdict == 1]) and not np.any(inside[verdict == -1])
        assert np.any(verdict == 1) and np.any(verdict == -1)


def test_unscreened_regions_decide_nothing():
    lo = np.array([[-0.1, -0.1, -0.01], [5.0, 5.0, 5.0]])
    hi = lo + 0.05
    for region in (Box(1, 1.0), Dilation(1, QuasiBall(1, 2.0), 2.0)):
        assert region.box_verdict(lo, hi).tolist() == [0, 0]
