import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import line_oracles
from heislab import lines
from continuum_oracles import Dilation
from heislab.continuum import Box, HalfSpaceCap, QuasiBall, SlabComplementCap
from heislab.lines import (
    HorizontalLine,
    _kadane_totals,
    _line_block,
    _line_points,
    _tally_runs,
    interval_histogram,
    line_trace,
    nonmonotonicity,
)
from line_oracles import (
    line_intervals,
    line_nonmonotonicity,
    sample_horizontal_lines,
    segment_cost,
)


def test_line_points_z_affine():
    taus = np.array([-1.0, 0.0, 2.0])
    (pts,) = _line_points(1, np.array([[1.0, -2.0, 0.5]]), np.array([[0.6, 0.8]]), taus)
    assert pts.shape == (3, 3)
    assert np.allclose(pts[1], [1.0, -2.0, 0.5])
    # straight in x, y with the direction as velocity
    assert np.allclose(pts[2, 0] - pts[0, 0], 3.0 * 0.6)
    # z is affine with the area-form slope (bx Vy - by Vx) / 2
    dz = np.diff(pts[:, 2]) / np.diff(taus)
    want = 0.5 * (1.0 * 0.8 - (-2.0) * 0.6)
    assert np.allclose(dz, want)


def test_sampled_lines_inside_ball():
    bases, dirs = _line_block(1, 3.0, 5, 0, 64)
    assert bases.shape == (64, 3) and dirs.shape == (64, 2)
    for base, direction in zip(bases, dirs):
        quasi = abs(base[0]) + abs(base[1]) + 4.0 * math.sqrt(abs(base[2]))
        assert quasi <= 3.0 + 1e-9
        assert np.linalg.norm(direction) == pytest.approx(1.0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_line_block_matches_per_line_draws(k):
    # 10^4 lines in blocks of 256 from an offset start, bit for bit
    n, start = 10_000, 3
    want = line_oracles.lines_at(k, 2.5, n, 41, start)
    for a in range(0, n, 256):
        bases, dirs = _line_block(k, 2.5, 41, start + a, min(256, n - a))
        for line, b, d in zip(want[a : a + 256], bases, dirs):
            assert line.base == tuple(b) and line.direction == tuple(d)


def brute_cost(sigma):
    """Removal count: in-set points minus the best single-interval keep."""
    total = int(np.sum(sigma > 0))
    best = 0
    n = len(sigma)
    for i in range(n):
        acc = 0
        for j in range(i, n):
            acc += int(sigma[j])
            best = max(best, acc)
    return total - best


@given(st.lists(st.booleans(), min_size=1, max_size=40))
@settings(max_examples=120, deadline=None)
def test_segment_cost_matches_brute_force(bits):
    sigma = np.where(np.array(bits), 1, -1).astype(np.int64)
    assert segment_cost(sigma) == brute_cost(sigma)


@given(
    st.integers(1, 5).flatmap(
        lambda T: st.lists(
            st.lists(st.sampled_from([0, 1, 2]), min_size=T, max_size=T),
            min_size=1,
            max_size=6,
        )
    )
)
@settings(max_examples=150, deadline=None)
def test_block_kadane_matches_brute_force(rows):
    # 0 = outside the ball, 1 = in the ball only, 2 = in the set
    state = np.array(rows)
    in_ball, in_set = state > 0, state == 2
    want = []
    for ball_row, set_row in zip(in_ball, in_set):
        total = 0
        idx = np.flatnonzero(ball_row)
        for seg in np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1):
            if len(seg):
                total += brute_cost(np.where(set_row[seg], 1, -1))
        want.append(total)
    assert _kadane_totals(in_ball, in_set).tolist() == want


def test_halfspace_lines_cost_zero():
    region = HalfSpaceCap(1, 4.0, 0, 0.0)
    for line in sample_horizontal_lines(1, R=4.0, count=100, seed=1):
        assert line_nonmonotonicity(region, line, 4.0, 0.05) == 0.0


def test_two_slab_has_positive_lines():
    region = SlabComplementCap(1, 4.0, 0.5, 0)
    costs = [
        line_nonmonotonicity(region, line, 4.0, 0.04)
        for line in sample_horizontal_lines(1, R=4.0, count=200, seed=2)
    ]
    assert max(costs) > 0.0


def test_trace_marks_ball_and_set():
    region = QuasiBall(1, 2.0)
    line = HorizontalLine(1, np.zeros(3), np.array([1.0, 0.0]))
    taus, in_ball, in_set = line_trace(region, line, 4.0, 0.25)
    assert taus.shape == in_ball.shape == in_set.shape
    assert bool(in_set[len(in_set) // 2])  # the origin lies in the ball
    assert not np.any(in_set & ~in_ball)  # set positions are clipped to the ball


def test_nonmonotonicity_report():
    region = SlabComplementCap(1, 4.0, 0.5, 0)
    rep = nonmonotonicity(region, 4.0, n_lines=256, seed=3, steps=80)
    assert rep.n_lines == 256
    assert rep.value == pytest.approx(
        float(rep.per_line.mean()) / 4.0
    )
    assert rep.value > 0
    assert rep.stderr > 0


def test_nonmonotonicity_worker_independent():
    region = SlabComplementCap(1, 4.0, 0.5, 0)
    a = nonmonotonicity(region, 4.0, n_lines=300, seed=3, steps=60, workers=1)
    b = nonmonotonicity(region, 4.0, n_lines=300, seed=3, steps=60, workers=4)
    assert np.array_equal(a.per_line, b.per_line)


def test_halfspace_nm_exactly_zero():
    rep = nonmonotonicity(HalfSpaceCap(1, 4.0, 0, 0.0), 4.0, n_lines=300, seed=0)
    assert rep.value == 0.0
    assert rep.stderr == 0.0


def test_paired_seed_dilation_invariance():
    # doubling region, radius, and grid with the same seed reproduces the
    # estimate bit for bit: sampled lines scale exactly under dilation
    region = SlabComplementCap(1, 4.0, 0.5, 0)
    a = nonmonotonicity(region, 4.0, n_lines=200, seed=7, steps=60)
    b = nonmonotonicity(Dilation(1, region, 2.0), 8.0, n_lines=200, seed=7, steps=60)
    assert a.value == b.value
    assert np.array_equal(2.0 * a.per_line, b.per_line)


@given(
    st.integers(1, 12).flatmap(
        lambda T: st.lists(st.lists(st.booleans(), min_size=T, max_size=T), min_size=1, max_size=5)
    ),
    st.sampled_from([0.1, 0.25, 1.0 / 3.0, 0.4]),
)
@settings(max_examples=150, deadline=None)
def test_block_run_tally_matches_per_line(rows, h):
    # runs at either grid end are censored; lengths near 2^j split in half
    in_set = np.array(rows)
    want: dict = {}
    counts = [line_oracles.tally_trace(row, h, want) for row in in_set]
    got: dict = {}
    assert _tally_runs(in_set, h, got) == tuple(map(sum, zip(*counts)))
    assert got == want


ORACLE_REGIONS = {
    "slab-k1": (SlabComplementCap(1, 4.0, 0.5, 0), 4.0, 60),
    "ball-k1": (QuasiBall(1, 3.0), 4.0, 48),
    "box-k1": (Box(1, 1.0), 2.0, 33),
    "dilated-slab": (Dilation(1, SlabComplementCap(1, 4.0, 0.5, 0), 2.0), 8.0, 60),
    "slab-k2": (SlabComplementCap(2, 4.0, 0.5, 1), 4.0, 40),
    "cap-k2": (HalfSpaceCap(2, 3.0, 2, 0.25), 3.0, 30),
}


@pytest.mark.parametrize("name", sorted(ORACLE_REGIONS))
def test_block_nm_matches_per_line_oracle(name, monkeypatch):
    region, R, steps = ORACLE_REGIONS[name]
    n = 300  # one full block of 256 and a partial one
    want = line_oracles.per_line_nm(region, R, n, 19, steps)
    hist = line_oracles.histogram(region, R, n, 19, steps)
    rep = nonmonotonicity(region, R, n_lines=n, seed=19, steps=steps)
    assert np.array_equal(rep.per_line, want)
    assert rep.histogram == hist
    # a trace budget of a few lines per membership call changes nothing
    monkeypatch.setattr(lines, "_TRACE_POINTS", 1000)
    small = nonmonotonicity(region, R, n_lines=n, seed=19, steps=steps)
    assert np.array_equal(small.per_line, want)
    assert small.histogram == hist


def test_interval_histogram_accounting():
    region = SlabComplementCap(1, 4.0, 0.5, 0)
    hist = interval_histogram(region, 4.0, n_lines=200, seed=5, steps=80)
    assert hist.runs > 0
    total = sum(hist.classes.values()) + hist.censored
    assert total == pytest.approx(hist.runs)
    assert list(hist.classes) == sorted(hist.classes)


def test_line_intervals_shapes():
    from heislab.continuum import Box
    from heislab.errors import ValidationError

    x_axis = HorizontalLine(1, (0.0, 0.0, 0.0), (1.0, 0.0))
    # region covering the whole clip: one interval spanning it
    big = Box(1, 100.0)
    runs = line_intervals(big, x_axis, (-3.0, 3.0), 0.01)
    assert len(runs) == 1
    assert runs[0][0] == -3.0 and abs(runs[0][1] - 3.0) < 0.011
    # half-space cap: a single interval
    half = HalfSpaceCap(1, 4.0)
    runs = line_intervals(half, x_axis, (-5.0, 5.0), 0.01)
    assert len(runs) == 1
    lo, hi = runs[0]
    assert abs(lo - 0.0) <= 0.011 and abs(hi - 4.0) <= 0.011
    # slab complement: two intervals with analytic endpoints +-h
    slab = SlabComplementCap(1, 4.0, 1.0)
    runs = line_intervals(slab, x_axis, (-5.0, 5.0), 0.01)
    assert len(runs) == 2
    (a0, a1), (b0, b1) = runs
    assert abs(a0 + 4.0) <= 0.011 and abs(a1 + 1.0) <= 0.011
    assert abs(b0 - 1.0) <= 0.011 and abs(b1 - 4.0) <= 0.011
    # degenerate clips and pitches are rejected
    with pytest.raises(ValidationError):
        line_intervals(big, x_axis, (1.0, 1.0), 0.01)
    with pytest.raises(ValidationError):
        line_intervals(big, x_axis, (0.0, 1.0), 0.0)
    # empty trace
    assert line_intervals(SlabComplementCap(1, 4.0, 6.0), x_axis, (-5.0, 5.0), 0.01) == []
