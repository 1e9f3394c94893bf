from collections import deque

import numpy as np
import pytest

from heislab.cayley import (
    _ball_distances,
    ball,
    central_word_upper_bound,
    element_from_row,
    growth_table,
    word_distance,
    word_upper_bound,
    z_power_distance,
)
from heislab.errors import ResourceCapError
from heislab.group import DiscreteElement, central, identity
from lattice_oracles import generators


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
    for el, d in b.elements():
        assert oracle[el.coords()] == d


def test_k1_counts():
    b = ball(1, 6)
    assert np.cumsum(b.counts()).tolist() == [1, 5, 17, 53, 135, 299, 593]


def test_ball_lookup():
    b = ball(1, 5)
    assert b.distance(identity(1)) == 0
    assert b.distance(central(1)) == 4
    far = DiscreteElement(1, (50,), (0,), 0)
    assert b.distance(far) is None


def test_growth_table_normalization():
    rows = growth_table(ball(1, 4))
    assert rows[0] == (0, 1, 1.0)
    r, c, norm = rows[3]
    assert norm == pytest.approx(c / r**4)


def test_word_distance_agrees_with_ball():
    # ball(k, r + 1) also holds the sphere of radius r + 1, which word_distance
    # must report as beyond r_max = r
    for k, r, step in [(2, 4, 307), (1, 8, 41), (2, 8, 4001)]:
        elements = list(ball(k, r + 1).elements())
        sphere = [(el, d) for el, d in elements if d == r + 1]
        for el, d in elements[::step] + sphere[:: step // 4]:
            assert word_distance(el, r) == (d if d <= r else None)


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


def test_word_distance_bidirectional_regime():
    # radius above 8 switches to meet-in-the-middle; check against the
    # unidirectional answer on a known central power
    g = central(1, 9)
    assert word_distance(g, 12) == 12  # 4 sqrt(9) = 12


def test_word_distance_none_when_out_of_range():
    assert word_distance(central(1, 100), 5) is None


@pytest.mark.parametrize("t,want", [(1, 4), (4, 8), (9, 12), (16, 16)])
def test_z_power_square_values(t, want):
    assert z_power_distance(1, t) == want


def test_z_power_between_squares():
    assert z_power_distance(1, 2) == 6
    assert z_power_distance(1, 3) == 8


def test_upper_bounds_hold():
    for t in range(1, 30):
        d = z_power_distance(1, t)
        assert d <= central_word_upper_bound(t)
    for el, d in list(ball(2, 4).elements())[::211]:
        assert d <= word_upper_bound(el)


def test_mem_cap():
    with pytest.raises(ResourceCapError):
        ball(2, 8, mem_cap_mib=0.01)


def test_element_from_row():
    b = ball(1, 2)
    el = element_from_row(1, b.points.rows[0])
    assert isinstance(el, DiscreteElement)
