"""Acceptance suite.

Twelve checks covering the full surface: exact group algebra, word-ball
growth, boundary-count identities on a 200-set corpus, closed-form
perimeter targets, the corpus-wide ratio bound, exact coarea
decompositions, continuum box profiles, line nonmonotonicity signals,
exact L1-distortion values, the relaxation sandwich, distortion-to-gap
instances, and byte-level determinism.  Wall-clock budgets are asserted
where a check is intended to stay cheap.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from heislab.cayley import ball, z_power_distance
from heislab.cli import main
from heislab.continuum import (
    Box,
    box_profile_knee,
    box_vertical_profile,
    mc_vertical_profile,
)
from heislab.embeddings import (
    c1_distortion,
    complete_bipartite_metric,
    negative_type_with_distortion,
    path_metric,
    random_metric,
)
from heislab.group import DiscreteElement
from heislab.lines import nonmonotonicity
from heislab.continuum import HalfSpaceCap, SlabComplementCap
from heislab.perimeter import (
    column_set,
    default_corpus,
    horizontal_perimeter,
    random_blob,
    vertical_perimeter,
    vertical_spectrum,
)
from heislab.poincare import LatticeFunction, coarea, poincare_sides
from heislab.rng import Rng
from heislab.sparsecut import duality_harness, gl_sdp, lp_relaxation, opt_bruteforce, random_instance
from continuum_oracles import Dilation, scaling_check
from group_oracles import central, identity
from lattice_oracles import (
    generators,
    spectrum_count,
    vertical_t_count,
    vertical_t_count_direct,
)


@pytest.fixture(scope="module")
def corpus_k2():
    return default_corpus(k=2, seed=20260816)


# -- 1: group algebra ---------------------------------------------------------


def test_group_algebra_random_checks():
    t0 = time.monotonic()
    checks = 0
    for k in (1, 2, 3):
        e = identity(k)
        rng = Rng(1000 + k)
        n = 2 * k + 1
        for _ in range(1120):
            vals = (rng.integers(3 * n, 2001) - 1000).tolist()
            a = DiscreteElement(k, tuple(vals[:k]), tuple(vals[k : 2 * k]), vals[2 * k])
            bv = vals[n : n + 2 * k + 1]
            b = DiscreteElement(k, tuple(bv[:k]), tuple(bv[k : 2 * k]), bv[2 * k])
            cv = vals[2 * n :]
            c = DiscreteElement(k, tuple(cv[:k]), tuple(cv[k : 2 * k]), cv[2 * k])
            assert (a * b) * c == a * (b * c)
            assert a * a.inverse() == e and a.inverse() * a == e
            assert (a * b).inverse() == b.inverse() * a.inverse()
            checks += 3
        gens = generators(k)
        z = central(k)
        for i in range(k):
            ai, bi = gens[2 * i], gens[2 * i + 1]
            assert ai * bi * ai.inverse() * bi.inverse() == z
            checks += 1
            for j in range(k):
                if i != j:
                    aj = gens[2 * j]
                    bj = gens[2 * j + 1]
                    assert ai * bj * ai.inverse() * bj.inverse() == identity(k)
                    assert ai * aj == aj * ai and bi * bj == bj * bi
                    checks += 3
    assert checks >= 10_000
    assert time.monotonic() - t0 < 1.0


# -- 2: growth of word balls --------------------------------------------------


def test_growth_window_and_central_powers():
    t0 = time.monotonic()
    b = ball(2, 8)
    counts = np.cumsum(b.counts())
    assert counts[1] == 9
    normalized = [counts[r] / r**6 for r in range(2, 9)]
    assert max(normalized) / min(normalized) <= 10.0
    ratios = []
    for t in (1, 4, 9, 16, 25):
        d = z_power_distance(2, t)
        ratios.append(d / math.sqrt(t))
    assert max(ratios) / min(ratios) <= 6.0
    assert time.monotonic() - t0 < 120.0


# -- 3: boundary-count identities on the corpus -------------------------------


def test_corpus_boundary_identities(corpus_k2):
    t0 = time.monotonic()
    assert len(corpus_k2) == 200
    for _, spec_text, S in corpus_k2:
        spec = vertical_spectrum(S)
        for t in range(1, spec.T0 + 4):
            direct = vertical_t_count_direct(S, t)
            assert spectrum_count(spec, t) == direct, (spec_text, t)
        assert spectrum_count(spec, spec.T0 + 1) == 2 * S.size
        # third route on a couple of jumps
        for t in (1, spec.T0 + 2):
            assert vertical_t_count(S, t) == spectrum_count(spec, t)
        sides = poincare_sides(LatticeFunction.indicator(S))
        v, _ = vertical_perimeter(S)
        h = horizontal_perimeter(S)
        assert abs(sides.lhs - v) <= 1e-10 * max(1.0, v)
        assert sides.rhs == 2 * h
    assert time.monotonic() - t0 < 120.0


# -- 4: closed-form targets ----------------------------------------------------


def test_closed_form_targets():
    v, err = vertical_perimeter(column_set(1, 1))
    want = 2.0 * math.pi / math.sqrt(6.0)
    assert abs(v - want) <= 1e-9

    S = column_set(2, 1)
    ratio = vertical_perimeter(S)[0] / horizontal_perimeter(S)
    assert abs(ratio - math.pi / (4.0 * math.sqrt(6.0))) <= 1e-6

    scaled = []
    for height in (100, 1000, 10000):
        S = column_set(2, height)
        r = vertical_perimeter(S)[0] / horizontal_perimeter(S)
        scaled.append(r * math.sqrt(height))
    assert max(scaled) / min(scaled) <= 1.10


# -- 5: corpus-wide ratio bound --------------------------------------------------


def test_corpus_ratio_bound_and_sharpness(corpus_k2):
    t0 = time.monotonic()
    ratios = {}
    for _, spec_text, S in corpus_k2:
        ratios[spec_text] = vertical_perimeter(S)[0] / horizontal_perimeter(S)
    top = max(ratios.values())
    assert top <= 1.0
    singleton = ratios["column(1)"]
    assert top <= 2.0 * singleton
    assert time.monotonic() - t0 < 180.0


# -- 6: coarea decompositions -----------------------------------------------------


def test_coarea_exact_identities():
    done = 0
    trial = 0
    while done < 50:
        k = 1 + trial % 2
        size = 20 + (trial * 37) % 281  # up to 300 points
        S = random_blob(k, size, seed=5000 + trial)
        phi = LatticeFunction.random_integer(S, -3, 4, seed=6000 + trial)
        trial += 1
        rep = coarea(phi)
        assert rep.rhs_exact
        assert rep.rhs_total == rep.rhs_levels
        assert rep.lhs_levels >= rep.lhs_total - 1e-9 * (1.0 + rep.lhs_total)
        done += 1


# -- 7: continuum box profile -------------------------------------------------------


def test_box_profile_exactness_and_sampling():
    t0 = time.monotonic()
    k, r = 2, 1.5
    knee = box_profile_knee(r)
    below = box_vertical_profile(k, r, np.array([knee - 3.0, knee - 2.0, knee - 1.0]))
    above = box_vertical_profile(k, r, np.array([knee + 1.0, knee + 2.0, knee + 3.0]))
    for a, b in zip(np.log2(below[:-1]), np.log2(below[1:])):
        assert abs((b - a) - 1.0) <= 1e-6
    for a, b in zip(np.log2(above[:-1]), np.log2(above[1:])):
        assert abs((b - a) + 1.0) <= 1e-6

    grid = np.linspace(knee - 2.0, knee + 2.0, 9)
    pts = mc_vertical_profile(Box(k, r), grid, samples=100_000, seed=20260816)
    exact = box_vertical_profile(k, r, grid)
    for p, want in zip(pts, exact):
        assert abs(p.value - want) <= 3.0 * p.stderr

    checks = scaling_check(
        Box(1, 1.25), 2.0, [1.0, 2.0, 3.0], samples=50_000, seed=7, sampled=True
    )
    assert max(c.relative for c in checks) <= 1e-12
    assert time.monotonic() - t0 < 60.0


# -- 8: nonmonotonicity signals --------------------------------------------------------


def test_nonmonotonicity_signals():
    t0 = time.monotonic()
    half = nonmonotonicity(HalfSpaceCap(1, 4.0, 0, 0.0), 4.0, n_lines=10_000, seed=1)
    assert half.value <= 3.0 * half.stderr

    slab = SlabComplementCap(1, 4.0, 0.5, 0)
    rep = nonmonotonicity(slab, 4.0, n_lines=2500, seed=2)
    assert rep.value >= 5.0 * rep.stderr

    paired = nonmonotonicity(Dilation(1, slab, 2.0), 8.0, n_lines=2500, seed=2)
    sd = math.hypot(rep.stderr, paired.stderr)
    assert abs(rep.value - paired.value) <= 3.0 * sd
    assert time.monotonic() - t0 < 120.0


# -- 9: exact L1 distortion ---------------------------------------------------------------


def test_c1_small_metrics_and_pinned_value():
    t0 = time.monotonic()
    for n in range(2, 9):
        ms = path_metric(n)
        rep = c1_distortion(ms)
        assert abs(rep.distortion - 1.0) <= 1e-7
        lo, hi = rep.replay(ms)
        assert lo >= 1.0 - 1e-7 and hi <= rep.distortion * (1.0 + 1e-7)

    for n in (3, 4):
        for i in range(100):
            ms = random_metric(n, seed=31_000 + 97 * n + i)
            rep = c1_distortion(ms)
            assert abs(rep.distortion - 1.0) <= 1e-6
            lo, hi = rep.replay(ms)
            assert lo >= 1.0 - 1e-7 and hi <= rep.distortion * (1.0 + 1e-7)

    ms = complete_bipartite_metric(2, 3)
    rep = c1_distortion(ms, refine=True)
    # frozen from the first verified run; the refinement is exact rational
    assert rep.exact
    assert abs(rep.distortion - 4.0 / 3.0) <= 1e-12
    lo, hi = rep.replay(ms)
    assert lo >= 1.0 - 1e-7 and hi <= rep.distortion * (1.0 + 1e-7)
    assert time.monotonic() - t0 < 60.0


# -- 10: relaxation sandwich -----------------------------------------------------------------


def test_relaxation_sandwich():
    t0 = time.monotonic()
    for n in (4, 6, 8):
        for i in range(50):
            inst = random_instance(n, seed=40_000 + 1009 * n + i)
            lp = lp_relaxation(inst)
            sdp = gl_sdp(inst)
            assert sdp.converged, (n, i)  # every instance, none forgiven
            opt = opt_bruteforce(inst)
            assert lp.value <= sdp.value + 1e-4, (n, i)
            assert sdp.value <= opt.value + 1e-4, (n, i)
            if n == 4:
                assert abs(lp.value - sdp.value) <= 1e-3, i
            assert sdp.residuals["triangle"] <= 1e-6
            assert sdp.residuals["min_eigenvalue"] >= -1e-7
            assert sdp.residuals["normalization"] <= 1e-8
    assert time.monotonic() - t0 < 600.0


# -- 11: distortion-to-gap instances -----------------------------------------------------------


def test_distortion_gap_instances():
    t0 = time.monotonic()
    spaces = negative_type_with_distortion(5, 5, seed=90215)
    spaces += negative_type_with_distortion(6, 5, seed=90216)
    assert len(spaces) == 10
    for ms in spaces:
        har = duality_harness(ms)
        assert har.distortion > 1.0
        # exhaustive cut enumeration puts every cut at or above the target
        assert har.cut_margin >= -1e-9
        assert har.opt.value >= har.distortion - 1e-3
        # the source metric itself is feasible for the relaxation at value 1
        assert abs(har.sdp_feasible_value - 1.0) <= 1e-9
        assert har.gap_lower_bound >= har.distortion - 1e-3
    assert time.monotonic() - t0 < 300.0


# -- 12: determinism ----------------------------------------------------------------------------


def _record_without_time(path: Path) -> dict:
    obj = json.loads((path / "run_record.json").read_text())
    obj.pop("wall_time_s")
    return obj


def _run(argv, out: Path):
    assert main(argv + ["--out-dir", str(out)]) == 0


# each block_map call of these commands gets at least two payloads, so
# --workers 4 really runs in a process pool
COMMANDS = {
    "nm": (
        ["nm", "--region", "two-slab:k=1,R=4,a=0.5", "--radius", "4",
         "--lines", "600", "--steps", "60", "--seed", "11"],
        "nm.json",
    ),
    "box-profile": (
        ["box-profile", "--k", "1", "--r", "1.5", "--s-min", "0", "--s-max", "3",
         "--steps", "7", "--mc-samples", "40000", "--seed", "3"],
        "profile_mc.csv",
    ),
    "voxelize": (
        ["voxelize", "--region", "quasi-ball:k=1,R=2", "--h", "0.125", "--seed", "5"],
        "voxels.txt",
    ),
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_rerun_byte_identical(tmp_path, name):
    argv, data_file = COMMANDS[name]
    _run(argv + ["--workers", "1"], tmp_path / "a")
    _run(argv + ["--workers", "1"], tmp_path / "b")
    a, b = tmp_path / "a", tmp_path / "b"
    assert (a / data_file).read_bytes() == (b / data_file).read_bytes()
    assert _record_without_time(a) == _record_without_time(b)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_worker_count_independent(tmp_path, pool_counter, name):
    argv, data_file = COMMANDS[name]
    started, maps = pool_counter
    _run(argv + ["--workers", "1"], tmp_path / "w1")
    assert (len(started), len(maps)) == (0, 0)
    _run(argv + ["--workers", "4"], tmp_path / "w4")
    assert len(started) == 1 and len(maps) >= 1
    data1 = (tmp_path / "w1" / data_file).read_bytes()
    data4 = (tmp_path / "w4" / data_file).read_bytes()
    assert data1 == data4
    r1 = _record_without_time(tmp_path / "w1")
    r4 = _record_without_time(tmp_path / "w4")
    assert r1["outputs"] == r4["outputs"]
    diff = {
        key
        for key in r1["config"]
        if r1["config"][key] != r4["config"][key]
    }
    assert diff == {"workers"}
