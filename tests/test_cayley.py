import sys
from collections import deque
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from group_oracles import identity
from heislab.cayley import (
    _ball_distances,
    _ball_window,
    ball,
    central_word_upper_bound,
    growth_table,
    word_distance,
    word_upper_bound,
    z_power_distance,
)
from heislab.errors import ResourceCapError
from lattice_oracles import (
    generators,
    scalar_central_word_upper_bound,
    scalar_word_upper_bound,
)

# the benchmark's independent breadth-first search, written from the group law
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import oracle  # noqa: E402


def brute_ball(k, r):
    """Plain dict BFS, the independent small-radius oracle."""
    moves = [g for g in generators(k)] + [g.inverse() for g in generators(k)]
    dist = {identity(k).coords(): 0}
    q = deque([identity(k)])
    while q:
        el = q.popleft()
        d = dist[el.coords()]
        if d == r:
            continue
        for m in moves:
            nxt = el * m
            if nxt.coords() not in dist:
                dist[nxt.coords()] = d + 1
                q.append(nxt)
    return dist


@pytest.mark.parametrize("k,r", [(1, 4), (2, 3)])
def test_ball_matches_brute_force(k, r):
    oracle = brute_ball(k, r)
    b = ball(k, r)
    assert b.size == len(oracle)
    for row, d in zip(b.points, b.dists.tolist()):
        assert oracle[row] == d


def test_k1_counts():
    b = ball(1, 6)
    assert np.cumsum(b.counts()).tolist() == [1, 5, 17, 53, 135, 299, 593]


def test_ball_lookup():
    b = ball(1, 5)
    # the identity, the central generator c and (50, 0, 0), outside B_5
    pos = b.points.locate(np.array([[0, 0, 0], [0, 0, 1], [50, 0, 0]]))
    assert b.dists[pos[:2]].tolist() == [0, 4]
    assert pos[2] == -1


def test_growth_table_normalization():
    rows = growth_table(ball(1, 4))
    assert rows[0] == (0, 1, 1.0)
    r, c, norm = rows[3]
    assert norm == pytest.approx(c / r**4)


def test_word_distance_agrees_with_ball():
    # ball(k, r + 1) also holds the sphere of radius r + 1, which word_distance
    # must report as beyond r_max = r
    for k, r, step in [(2, 4, 307), (1, 8, 41), (2, 8, 4001)]:
        b = ball(k, r + 1)
        members = list(zip(b.points, b.dists.tolist()))
        sphere = [(row, d) for row, d in members if d == r + 1]
        for row, d in members[::step] + sphere[:: step // 4]:
            assert word_distance(k, row, r) == (d if d <= r else None)


@pytest.mark.parametrize("k,r", [(1, 8), (2, 5)])
def test_ball_distances_block(k, r):
    b = ball(k, r + 1)
    rows = b.points.rows[::13]
    want = np.where(b.dists[::13] <= r, b.dists[::13], -1)
    # rows outside the BFS window: |x_1| > r, and |w| > r^2 + 1
    out = np.zeros((3, 2 * k + 1), dtype=np.int64)
    out[0, 0] = r + 1
    out[1, 2 * k] = r * r + 2
    out[2, 2 * k] = -(r * r + 2)
    got = _ball_distances(k, np.concatenate([out, rows, rows[:3]]), r)
    assert got.tolist() == [-1, -1, -1] + want.tolist() + want[:3].tolist()
    assert len(_ball_distances(k, rows[:0], r)) == 0


def test_ball_distances_stop_at_farthest_row():
    # the guard runs before each level: a row at distance 1 is found before
    # the visited set outgrows the cap, one at distance 3 is not
    near = [[1, 0, 0, 0, 0]]
    far = [[1, 1, 1, 0, 0]]
    assert _ball_distances(2, near, 8, mem_cap_mib=0.01).tolist() == [1]
    with pytest.raises(ResourceCapError):
        _ball_distances(2, near + far, 8, mem_cap_mib=0.01)


# largest radius the referee draws at each rank
REFEREE_RADIUS = {1: 8, 2: 8, 3: 5}


@lru_cache(maxsize=None)
def _referee_rows(k):
    """The oracle's rows of B_(r + 1) for the largest r drawn at rank k, in
    order of distance, with their distances."""
    dist = oracle.bfs_distances(k, REFEREE_RADIUS[k] + 1)
    pairs = sorted(dist.items(), key=lambda item: item[1])
    return [row for row, _ in pairs], np.array([d for _, d in pairs]), dist


@st.composite
def _rows_around_the_ball(draw):
    """(k, r, rows): rows of B_r, of the sphere of radius r + 1, and rows
    outside the window of B_r (|x_i| or |y_i| > r, or |w| > r^2 + 1).

    An outside row is a row of B_r with one coordinate moved by the
    window's span in it or a little more, so that a key test missing
    that coordinate's bound would mistake it for a member."""
    k = draw(st.integers(min_value=1, max_value=3))
    r = draw(st.integers(min_value=1, max_value=REFEREE_RADIUS[k]))
    rows, dists, _ = _referee_rows(k)
    in_ball = int(np.searchsorted(dists, r, side="right"))
    on_sphere = int(np.searchsorted(dists, r + 1, side="right"))
    bound = [r] * (2 * k) + [r * r + 1]
    out = []
    kinds = st.lists(st.sampled_from(["ball", "sphere", "outside"]), min_size=1, max_size=6)
    for kind in draw(kinds):
        if kind == "ball":
            out.append(rows[draw(st.integers(0, in_ball - 1))])
        elif kind == "sphere":
            out.append(rows[draw(st.integers(in_ball, on_sphere - 1))])
        else:
            row = list(rows[draw(st.integers(0, in_ball - 1))])
            j = draw(st.integers(0, 2 * k))
            row[j] += draw(st.sampled_from([-1, 1])) * (2 * bound[j] + 1 + draw(st.integers(0, 3)))
            out.append(tuple(row))
    return k, r, out


@given(_rows_around_the_ball())
@settings(max_examples=120, deadline=None)
def test_searches_match_independent_bfs(case):
    k, r, rows = case
    dist = _referee_rows(k)[2]
    # rows outside the oracle's B_(r + 1) lie beyond r
    want = [dist.get(row, r + 1) for row in rows]
    assert [word_distance(k, row, r) for row in rows] == [d if d <= r else None for d in want]
    assert _ball_distances(k, rows, r).tolist() == [d if d <= r else -1 for d in want]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_ball_window_holds_the_oracle_ball(k):
    # both searches treat rows outside this window as beyond r
    rows, dists, _ = _referee_rows(k)
    for r in range(REFEREE_RADIUS[k] + 1):
        assert _ball_window(k, r).contains(np.array(rows)[dists <= r]).all()


def test_word_distance_bidirectional_regime():
    # a radius beyond the block search of poincare._rhs_window, on a known
    # central power
    assert word_distance(1, (0, 0, 9), 12) == 12  # 4 sqrt(9) = 12


def test_word_distance_none_when_out_of_range():
    assert word_distance(1, (0, 0, 100), 5) is None


@pytest.mark.parametrize("t,want", [(1, 4), (4, 8), (9, 12), (16, 16)])
def test_z_power_square_values(t, want):
    assert z_power_distance(1, t) == want


def test_z_power_between_squares():
    assert z_power_distance(1, 2) == 6
    assert z_power_distance(1, 3) == 8


def test_upper_bounds_hold():
    t = np.arange(1, 30)
    d = [z_power_distance(1, v) for v in t.tolist()]
    assert np.all(d <= central_word_upper_bound(t))
    b = ball(2, 4)
    assert np.all(b.dists <= word_upper_bound(2, b.points.rows))


def _near_squares(u):
    return st.sampled_from((-1, 0, 1)).map(lambda e: u * u + e)


@given(
    st.lists(
        st.one_of(
            st.integers(min_value=0, max_value=2**62),
            st.integers(min_value=1, max_value=2**31 - 1).flatmap(_near_squares),
        ),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=200, deadline=None)
def test_central_bound_matches_scalar_oracle(ms):
    # u^2 - 1, u^2 and u^2 + 1 for large u move the float root across an integer
    m = np.array(ms + [-v for v in ms], dtype=np.int64)
    want = [scalar_central_word_upper_bound(v) for v in m.tolist()]
    assert central_word_upper_bound(m).tolist() == want


@pytest.mark.parametrize("k", [1, 2, 3])
def test_word_bound_matches_scalar_oracle(k):
    rows = ball(k, 3).points.rows * np.array([7] * (2 * k) + [1000])
    want = [scalar_word_upper_bound(k, h) for h in rows.tolist()]
    assert word_upper_bound(k, rows).tolist() == want
    with pytest.raises(OverflowError):
        word_upper_bound(k, [[2**31] * (2 * k) + [0]])


def test_mem_cap():
    with pytest.raises(ResourceCapError):
        ball(2, 8, mem_cap_mib=0.01)

