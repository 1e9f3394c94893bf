import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heislab.embeddings import (
    c1_distortion,
    complete_bipartite_metric,
    negative_type_with_distortion,
)
from heislab.errors import ValidationError
from heislab.sparsecut import (
    Instance,
    _triangles,
    duality_harness,
    gl_sdp,
    lp_relaxation,
    opt_bruteforce,
    random_instance,
)

SEEDS = st.integers(min_value=0, max_value=10**6)


def single_edge_instance():
    C = [[0.0, 2.0, 0.0], [2.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
    D = [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
    return Instance(C, D)


def test_validation():
    with pytest.raises(ValidationError):
        Instance([[0.0]], [[0.0]])
    with pytest.raises(ValidationError):
        Instance(np.zeros((3, 3)), np.zeros((3, 3)))  # no demand
    with pytest.raises(ValidationError):
        Instance(-np.ones((3, 3)), np.ones((3, 3)) - np.eye(3))
    for max_iter in (0, -3):
        with pytest.raises(ValidationError, match="max_iter must be >= 1"):
            gl_sdp(single_edge_instance(), max_iter=max_iter)


def test_text_roundtrip():
    inst = random_instance(5, seed=4)
    back = Instance.from_text(inst.to_text())
    assert np.allclose(back.C, inst.C) and np.allclose(back.D, inst.D)
    for text in (inst.to_text(), "3\n2 0\n1\n0 1.5\n0\n"):
        assert Instance.from_text(text).to_text() == text


def test_triangles_order():
    # k slowest, then i < j; each entry is the upper-triangle position of
    # the pairs {i, j}, {i, k} and {j, k}
    for n in range(2, 7):
        pos = {pair: r for r, pair in enumerate(zip(*np.triu_indices(n, 1)))}
        want = [
            (pos[(i, j)], pos[(min(i, k), max(i, k))], pos[(min(j, k), max(j, k))])
            for k in range(n)
            for i in range(n)
            for j in range(i + 1, n)
            if k not in (i, j)
        ]
        assert list(zip(*_triangles(n))) == want


def test_opt_on_hand_instance():
    # separating 0|12 cuts capacity 2, 02|1 cuts 3, 01|2 cuts 1; demand is
    # the single pair {0,2}, so the sparsest cut isolates point 2
    res = opt_bruteforce(single_edge_instance())
    assert res.value == pytest.approx(1.0)
    assert res.cut_demand == pytest.approx(1.0)


def test_sandwich_on_hand_instance():
    inst = single_edge_instance()
    lp = lp_relaxation(inst)
    sdp = gl_sdp(inst)
    opt = opt_bruteforce(inst)
    assert lp.value <= sdp.value + 1e-6 <= opt.value + 2e-6
    # the LP metric is feasible: unit demand volume, triangle inequality
    d = lp.metric
    n = inst.n
    assert float((inst.D * d).sum() / 2.0) == pytest.approx(1.0, abs=1e-8)
    for i in range(n):
        for j in range(n):
            for m in range(n):
                assert d[i, j] <= d[i, m] + d[m, j] + 1e-9


@given(SEEDS)
@settings(max_examples=10, deadline=None)
def test_lp_below_opt(seed):
    inst = random_instance(5, seed=seed)
    lp = lp_relaxation(inst)
    opt = opt_bruteforce(inst)
    assert lp.value <= opt.value + 1e-7


def test_sdp_certificates():
    inst = random_instance(6, seed=17)
    res = gl_sdp(inst)
    assert res.converged
    assert res.residuals["min_eigenvalue"] >= -1e-7
    assert res.residuals["triangle"] <= 1e-6
    assert res.residuals["normalization"] <= 1e-8
    assert res.residuals["centering"] <= 1e-8
    # squared distances of the Gram factorization reproduce the metric
    K = res.gram
    d2 = np.diag(K)[:, None] + np.diag(K)[None, :] - 2.0 * K
    assert np.allclose(d2, res.metric, atol=1e-8)


def test_sdp_iteration_flagging():
    inst = random_instance(6, seed=17)
    res = gl_sdp(inst, max_iter=5)
    assert not res.converged
    assert res.iterations <= 5
    assert gl_sdp(inst, max_iter=1).iterations == 1


def test_integrality_gap_report():
    inst = random_instance(4, seed=2)
    opt = opt_bruteforce(inst).value
    lp_gap = opt / lp_relaxation(inst).value
    sdp_gap = opt / gl_sdp(inst).value
    assert lp_gap >= 1.0 - 1e-9
    assert sdp_gap >= 1.0 - 1e-6
    assert lp_gap >= sdp_gap - 1e-6


def test_duality_harness_requires_negative_type():
    with pytest.raises(ValidationError):
        duality_harness(complete_bipartite_metric(2, 3))


def test_duality_harness_mechanism():
    (ms,) = negative_type_with_distortion(5, 1, seed=90215)
    rep = c1_distortion(ms, refine=True)
    har = duality_harness(ms)
    assert har.distortion == pytest.approx(rep.distortion)
    # cut optimum realizes the distortion and the metric is SDP-feasible
    assert har.opt.value == pytest.approx(har.distortion, abs=1e-8)
    assert har.cut_margin >= -1e-9
    assert har.sdp_feasible_value == pytest.approx(1.0, abs=1e-9)
    assert har.gap_lower_bound >= har.distortion - 1e-8
    assert har.sdp.value <= har.sdp_feasible_value + 1e-6


def test_value_homogeneity():
    inst = random_instance(5, seed=3)
    a, b = 2.5, 0.8
    scaled = Instance(a * inst.C, b * inst.D)
    r1, r2 = opt_bruteforce(inst), opt_bruteforce(scaled)
    assert r2.value == pytest.approx((a / b) * r1.value, rel=1e-12)
    assert r2.mask == r1.mask
    lp1, lp2 = lp_relaxation(inst), lp_relaxation(scaled)
    assert lp2.value == pytest.approx((a / b) * lp1.value, rel=1e-8)


def test_permutation_equivariance():
    inst = random_instance(6, seed=9)
    perm = np.array([3, 0, 5, 1, 4, 2])
    relabeled = Instance(
        inst.C[np.ix_(perm, perm)], inst.D[np.ix_(perm, perm)]
    )
    r1, r2 = opt_bruteforce(inst), opt_bruteforce(relabeled)
    assert r2.value == pytest.approx(r1.value, abs=1e-12)
    # the winning side maps point for point (up to complement)
    side1 = {i for i in range(6) if (r1.mask >> i) & 1}
    side2 = {i for i in range(6) if (r2.mask >> i) & 1}
    mapped = {int(np.where(perm == i)[0][0]) for i in side1}
    assert side2 in (mapped, set(range(6)) - mapped)
    lp1, lp2 = lp_relaxation(inst), lp_relaxation(relabeled)
    assert lp2.value == pytest.approx(lp1.value, abs=1e-9)


def test_lp_stopped_short_is_convergence_error(monkeypatch, tmp_path):
    import heislab.sparsecut as sc
    from heislab.cli import main
    from heislab.errors import ConvergenceError
    from heislab.simplex import LpResult

    monkeypatch.setattr(
        sc, "solve_lp", lambda *a, **kw: LpResult("iteration_cap", iterations=20_000)
    )
    with pytest.raises(ConvergenceError):
        lp_relaxation(random_instance(5, seed=3))
    argv = ["sparsest-cut", "--random", "5,3", "--solver", "lp", "--out-dir", str(tmp_path)]
    assert main(argv) == 4
