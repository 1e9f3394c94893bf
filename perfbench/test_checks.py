"""Known-answer tests of the benchmark's oracle and checks.

    python3 -m pytest perfbench/test_checks.py

They need neither heislab nor a benchmark run: each test builds a small
case whose answer is known by hand and feeds the checks right and wrong
output files.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest

import checks
import oracle
import workloads


def _rand_el(rng, k):
    return tuple(rng.randint(-5, 5) for _ in range(2 * k + 1))


@pytest.mark.parametrize("k", [1, 2])
def test_group_law(k):
    rng = random.Random(k)
    e = (0,) * (2 * k + 1)
    for _ in range(50):
        g, h, f = (_rand_el(rng, k) for _ in range(3))
        assert oracle.mul(k, oracle.mul(k, g, h), f) == oracle.mul(k, g, oracle.mul(k, h, f))
        assert oracle.mul(k, g, oracle.inverse(k, g)) == e
        rows = np.array([g, h], dtype=np.int64)
        assert oracle.right_mul_rows(k, rows, f).tolist() == [
            list(oracle.mul(k, g, f)), list(oracle.mul(k, h, f))]


def test_bfs_small_balls():
    # 1 + 4k generators; k = 1 has no relation of length <= 2, so 4 * 3 new words
    assert len(oracle.bfs_distances(1, 1)) == 5
    assert len(oracle.bfs_distances(2, 1)) == 9
    assert len(oracle.bfs_distances(1, 2)) == 17
    # the commutator [a, b] = c has length 4 and c^4 = [a^2, b^2] length 8
    dist = oracle.bfs_distances(1, 2, targets=[(0, 0, 1), (0, 0, 4)])
    assert dist[(0, 0, 1)] == 4 and dist[(0, 0, 4)] == 8


def test_boundaries_known_sets():
    k = 1
    single = oracle.set_from_spec(k, "singleton")
    assert oracle.horizontal_boundary(k, single) == 4
    assert oracle.vertical_boundaries(k, single) == (0, [])
    assert math.isclose(oracle.vertical_perimeter(1, 0, []), 2 * math.pi / math.sqrt(6),
                        rel_tol=1e-15)
    col = oracle.set_from_spec(k, "column(5)")
    assert oracle.vertical_boundaries(k, col) == (4, [2, 4, 6, 8])
    # box(a, b, h): 2bh + 2ah + 2(b - 1) sum_{x < a} min(x, h) by hand
    box = oracle.set_from_spec(k, "box(3,2,4)")
    assert len(box) == 24
    assert oracle.horizontal_boundary(k, box) == 2 * 2 * 4 + 2 * 3 * 4 + 2 * 1 * (0 + 1 + 2)


def test_random_blob_is_connected_and_sized():
    blob = oracle.random_blob(1, 300, 12345)
    assert len(blob) == 300 and (0, 0, 0) in blob
    assert blob == oracle.random_blob(1, 300, 12345)
    # every member but the identity has a neighbor in the blob
    gens = oracle.generators(1)
    assert all(any(oracle.mul(1, g, s) in blob for s in gens) for g in blob)


def test_distortions_with_known_values():
    assert math.isclose(oracle.l1_distortion(oracle.cycle_metric(6)), 1.0, rel_tol=1e-9)
    assert math.isclose(oracle.l1_distortion(oracle.path_metric(5)), 1.0, rel_tol=1e-9)
    assert math.isclose(oracle.l1_distortion(oracle.bipartite_metric(2, 3)), 4 / 3, rel_tol=1e-9)
    # the radius-1 ball holds the identity and the 4 generators
    assert len(oracle.ball_metric(1, 1)) == 5


def test_sparsest_cut_known_instance():
    C = np.ones((3, 3)) - np.eye(3)
    D = np.zeros((3, 3))
    D[0, 1] = D[1, 0] = 1.0
    # any cut separating 0 from 1 cuts two unit edges; the LP can do no better
    assert oracle.sparsest_cut(C, D) == 2.0
    assert math.isclose(oracle.metric_lp(C, D), 2.0, rel_tol=1e-9)
    d = np.array([[0, 1, 3], [1, 0, 1], [3, 1, 0]], dtype=float)
    assert oracle.max_triangle_violation(d) == 1.0


def test_growth_check_flags_a_wrong_count(tmp_path):
    (tmp_path / "growth.csv").write_text("r,count,normalized\n0,1,1\n1,5,5\n2,17,1.0625\n")
    (tmp_path / "z_powers.csv").write_text("t,distance\n1,4\n")
    params = {"k": 1, "r_max": 2, "z_powers": 1}
    assert checks.check_growth(params, tmp_path) == []
    (tmp_path / "growth.csv").write_text("r,count,normalized\n0,1,1\n1,5,5\n2,18,1.125\n")
    assert checks.check_growth(params, tmp_path)


def test_isoperim_check_flags_a_wrong_perimeter(tmp_path):
    # column(3) at k = 1: every generator step leaves the column, so
    # h = 4 * 3; the vertical counts are 2 and 4 at t = 1 and 2
    h = 12
    v = math.sqrt(4 + 4 + 4 * 9 * (math.pi**2 / 6 - 1 - 0.25))
    row = f'set0,"column(3)",3,{h},{v!r},1e-13,{v / h!r}'
    (tmp_path / "ratios.csv").write_text("set_id,spec,size,h_perim,v_perim,v_error,ratio\n" + row + "\n")
    (tmp_path / "summary.json").write_text(json.dumps(
        {"n_sets": 1, "max_ratio": v / h, "argmax_set_id": "set0", "argmax_spec": "column(3)"}))
    tail = 4 * 9 * (math.pi**2 / 6 - 1 - 0.25)
    (tmp_path / "spectrum.csv").write_text(f"t,count\n1,2\n2,4\ntail,{tail!r}\n")
    assert checks.check_isoperim({"k": 1}, tmp_path) == []
    (tmp_path / "spectrum.csv").write_text(f"t,count\n1,2\n2,5\ntail,{tail!r}\n")
    assert checks.check_isoperim({"k": 1}, tmp_path)


def test_box_profile_check(tmp_path):
    k, r = 1, 2.0
    grid = [float(s) for s in np.linspace(-2, 6, 5)]
    exact = [(2 * r) ** (2 * k) * 2 * min(4.0**s, 2 * r * r) / 2.0**s for s in grid]
    (tmp_path / "profile.csv").write_text(
        "s,value,stderr\n" + "".join(f"{s!r},{v!r},0\n" for s, v in zip(grid, exact)))
    (tmp_path / "plot.gp").write_text('plot "profile.csv", "profile_mc.csv"\n')
    params = {"k": k, "r": r, "s_min": -2.0, "s_max": 6.0, "steps": 5}

    def mc(offset_sigmas):
        (tmp_path / "profile_mc.csv").write_text("s,value,stderr\n" + "".join(
            f"{s!r},{v + offset_sigmas * 0.01 * v!r},{0.01 * v!r}\n" for s, v in zip(grid, exact)))

    mc(2.0)
    assert checks.check_box_profile(params, tmp_path) == []
    mc(6.0)
    assert checks.check_box_profile(params, tmp_path)


def test_nm_check(tmp_path):
    obj = {"n_lines": 10, "lines_hit": 3, "resolution": 4.0 / 64, "nm": 0.2, "stderr": 0.01,
           "histogram": [{"j": 1, "count": 2.5}, {"j": 2, "count": 1.5}], "censored": 1, "runs": 5}
    params = {"lines": 10, "radius": 4.0, "steps": 64, "expect": "nonmonotone"}
    (tmp_path / "nm.json").write_text(json.dumps(obj))
    assert checks.check_nm(params, tmp_path) == []
    assert checks.check_nm(dict(params, expect="monotone"), tmp_path)
    (tmp_path / "nm.json").write_text(json.dumps(dict(obj, runs=6)))
    assert checks.check_nm(params, tmp_path)


def test_voxelize_check(tmp_path):
    k, R, h = 1, 3.0, 0.25
    volume = R**4 / 24  # 2^(2k-2) R^(2k+2) / (2k+2)! at k = 1
    n = round(volume / h**4)
    (tmp_path / "voxels.txt").write_text("".join(f"1;{i};0;0\n" for i in range(n)))
    params = {"k": k, "R": R, "h": h}
    assert checks.check_voxelize(params, tmp_path) == []
    (tmp_path / "voxels.txt").write_text("".join(f"1;{i};0;0\n" for i in range(n // 2)))
    assert checks.check_voxelize(params, tmp_path)


def test_c1_check(tmp_path):
    # the 4-cycle is the cut metric of its two "halves" cuts, each of weight 1
    obj = {"n": 4, "value": 1.0, "cuts": [{"mask": 0b0011, "weight": 1.0},
                                          {"mask": 0b0110, "weight": 1.0}],
           "replay_min_ratio": 1.0, "replay_max_ratio": 1.0,
           "noncontraction_duals": [0.25, 0, 0.25, 0.25, 0, 0.25],
           "expansion_duals": [0.25, 0, 0.25, 0.25, 0, 0.25]}
    params = {"demo": "cycle:4", "subsample": None, "expect": 1.0}
    (tmp_path / "c1.json").write_text(json.dumps(obj))
    assert checks.check_c1(params, tmp_path) == []
    (tmp_path / "c1.json").write_text(json.dumps(dict(obj, value=1.1, replay_max_ratio=1.0)))
    assert checks.check_c1(params, tmp_path)


def test_workloads_are_fixed_by_the_seed():
    for name in workloads.WORKLOADS:
        a = workloads.build(name, 7)
        assert [c.argv for c in a] == [c.argv for c in workloads.build(name, 7)]
        assert all(c.check in checks.CHECKS for c in a)
    assert ([c.argv for c in workloads.build("lattice", 7)]
            != [c.argv for c in workloads.build("lattice", 8)])
