import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heislab.embeddings import (
    CutMeasure,
    MetricSpace,
    _cut_cone_facets,
    _in_cut_cone,
    ball_metric,
    c1_distortion,
    complete_bipartite_metric,
    cut_pair_matrix,
    cycle_metric,
    is_negative_type,
    negative_type_with_distortion,
    path_metric,
    random_metric,
)
from heislab.errors import ValidationError
from heislab.rng import Rng
from metric_oracles import from_points_l1, from_points_l2, snowflake

SEEDS = st.integers(min_value=0, max_value=10**6)


def test_metric_validation():
    with pytest.raises(ValidationError):
        MetricSpace([[0.0, 1.0], [1.1, 0.0]])  # asymmetric
    with pytest.raises(ValidationError):
        MetricSpace([[0.0, 3.0, 1.0], [3.0, 0.0, 1.0], [1.0, 1.0, 0.0]])  # triangle
    ms = path_metric(4)
    assert ms.n == 4 and ms.d[0, 3] == 3.0


def test_text_roundtrip():
    ms = random_metric(6, seed=2)
    back = MetricSpace.from_text(ms.to_text(), 6)
    assert np.allclose(back.d, ms.d)
    for text in (ms.to_text(), "1\n", "3\n1 2\n1.5\n"):
        assert MetricSpace.from_text(text, 6).to_text() == text
    with pytest.raises(ValidationError, match="at most 5 points from a file, got 6"):
        MetricSpace.from_text(ms.to_text(), 5)


def test_transforms():
    ms = path_metric(5)
    snow = snowflake(ms, 0.5)
    assert snow.d[0, 4] == pytest.approx(2.0)  # sqrt of the diameter 4
    sub = ms.restrict([0, 2, 4])
    assert sub.d[0, 2] == 4.0
    idx, far = ms.subsample_farthest(3)
    assert len(idx) == 3 and far.n == 3
    assert 0 in idx and 4 in idx  # endpoints are farthest apart


def test_constructors_agree():
    pts = Rng(3).uniforms(12).reshape(4, 3)
    m1 = from_points_l1(pts)
    m2 = from_points_l2(pts)
    assert m1.d[0, 1] == pytest.approx(abs(pts[0] - pts[1]).sum())
    assert m2.d[0, 1] == pytest.approx(np.linalg.norm(pts[0] - pts[1]))


def test_cycle_and_bipartite():
    cyc = cycle_metric(6)
    assert cyc.d[0, 3] == 3.0 and cyc.d[0, 5] == 1.0
    kab = complete_bipartite_metric(2, 3)
    assert kab.n == 5
    assert kab.d[0, 1] == 2.0 and kab.d[0, 2] == 1.0 and kab.d[2, 3] == 2.0


def test_ball_metric_matches_word_distance():
    from heislab.cayley import ball, word_distance
    from heislab.group import DiscreteElement

    ms = ball_metric(1, 2)
    assert ms.n == 17
    elements = [DiscreteElement(1, (x,), (y,), w) for x, y, w in ball(1, 2).points]
    for i in (0, 3, 8):
        for j in (1, 5, 16):
            g = elements[i].inverse() * elements[j]
            assert ms.d[i, j] == word_distance(1, g.coords(), 8)


# SHA-256 of ball_metric(k, r).d, recorded while the matrix was still
# filled one element product and one ball lookup per pair
BALL_METRIC_DIGESTS = {
    (1, 2): "ef120fdfaf5581efa9051347bef8aef37c09be7341cb1636dc8f53972762a36a",
    (1, 4): "fbf497ddf285049cc547c518536b910d53f88afb50cab6874fe52c175879de54",
    (1, 5): "1a1f8195b47ae449bb998c1af2bef1ea73057df62f2fa835d85673119f044003",
    (1, 6): "3cdfe22ee8d322228aa79fec56ea1b6ea169c6ee5710a0c36319e894f504889e",
    (2, 2): "870e039c75e86f6b4bb7cbccbd69b2ee3808e55e9cf0cede4aa5dc76ced4b5fe",
    (2, 4): "941c7bb026ebb24e254bb4515a8a3b741f723c108e47b1726073205c8298b3b5",
}


@pytest.mark.parametrize("k,r", sorted(BALL_METRIC_DIGESTS))
def test_ball_metric_golden(k, r):
    d = ball_metric(k, r).d
    assert hashlib.sha256(d.tobytes()).hexdigest() == BALL_METRIC_DIGESTS[k, r]


def test_negative_type_results():
    assert is_negative_type(path_metric(6)).is_negative_type
    rep = is_negative_type(complete_bipartite_metric(2, 3))
    assert not rep.is_negative_type  # bipartite cone point breaks it
    w = rep.witness
    assert abs(w.sum()) < 1e-9
    assert rep.witness_value > 0
    assert float(w @ complete_bipartite_metric(2, 3).d @ w) == pytest.approx(
        rep.witness_value
    )


def test_negative_type_snowflake():
    # halving the exponent always lands inside the cone
    low, high = 1.0, 1.9
    d = np.zeros((7, 7))
    p, q = np.triu_indices(7, 1)
    d[p, q] = d[q, p] = low + (high - low) * Rng(10).uniforms(21)
    assert is_negative_type(snowflake(MetricSpace(d), 0.5)).is_negative_type


@given(SEEDS)
@settings(max_examples=20, deadline=None)
def test_cut_measure_l1_identity(seed):
    u = Rng(seed).stream()
    n = 5
    entries = []
    for mask in range(1, 1 << (n - 1)):
        if next(u) < 0.3:
            entries.append((mask, next(u)))
    cm = CutMeasure(n, entries)
    L = cm.l1_matrix()
    for i in range(n):
        for j in range(n):
            want = sum(
                w * (((m >> i) & 1) != ((m >> j) & 1)) for m, w in entries
            )
            assert L[i, j] == pytest.approx(want)


def test_cut_pair_matrix_marks_separated_pairs():
    n = 5
    masks = np.arange(1, 1 << (n - 1))
    delta = cut_pair_matrix(masks, n)
    pairs = path_metric(n).pairs()
    assert delta.shape == (len(pairs), len(masks))
    for r, (p, q) in enumerate(pairs):
        for c, m in enumerate(masks):
            assert delta[r, c] == float(((m >> p) & 1) != ((m >> q) & 1))


def test_path_embeds_isometrically():
    for n in range(2, 7):
        rep = c1_distortion(path_metric(n))
        assert rep.distortion == pytest.approx(1.0, abs=1e-9)


def test_k23_distortion_exact():
    rep = c1_distortion(complete_bipartite_metric(2, 3), refine=True)
    assert rep.exact
    assert rep.distortion == pytest.approx(4.0 / 3.0, abs=1e-12)
    lo, hi = rep.replay(complete_bipartite_metric(2, 3))
    assert lo >= 1.0 - 1e-9
    assert hi <= rep.distortion * (1.0 + 1e-9)


def test_duals_certify():
    ms = complete_bipartite_metric(2, 3)
    rep = c1_distortion(ms, refine=True)
    iu = [ms.d[p, q] for p, q in rep.pairs]
    assert float(np.dot(rep.expansion_duals, iu)) == pytest.approx(1.0, abs=1e-9)
    assert float(np.dot(rep.noncontraction_duals, iu)) == pytest.approx(
        rep.distortion, abs=1e-9
    )


@given(SEEDS)
@settings(max_examples=15, deadline=None)
def test_small_metrics_embed(seed):
    for n in (3, 4):
        rep = c1_distortion(random_metric(n, seed=seed))
        assert rep.distortion == pytest.approx(1.0, abs=1e-6)


def test_l1_points_embed():
    pts = Rng(8).uniforms(10).reshape(5, 2)
    rep = c1_distortion(from_points_l1(pts))
    assert rep.distortion == pytest.approx(1.0, abs=1e-7)


def test_point_cap():
    with pytest.raises(ValidationError):
        c1_distortion(random_metric(17, seed=1))


def test_search_generator():
    out = negative_type_with_distortion(5, 2, seed=90215)
    assert len(out) == 2
    for ms in out:
        assert is_negative_type(ms).is_negative_type
        assert c1_distortion(ms, refine=False).distortion >= 1.01


def test_search_refuses_four_points_at_once():
    # every metric on at most 4 points embeds isometrically in L1
    for n in (4, 1, -2):
        with pytest.raises(ValidationError, match="at least 5 points"):
            negative_type_with_distortion(n, 1, seed=1)


def test_search_refuses_more_points_than_the_lp_takes():
    # refused before the first draw, so a huge size allocates nothing
    for n in (17, 3_000_000):
        with pytest.raises(ValidationError, match=f"at most 16 points, got {n}"):
            negative_type_with_distortion(n, 1, seed=1)


@pytest.mark.parametrize("n,rows", [(5, 40), (6, 210)])
def test_cut_cone_facet_table(n, rows):
    F = _cut_cone_facets(n)
    pairs = n * (n - 1) // 2
    assert F.shape == (rows, pairs) and len(np.unique(F, axis=0)) == rows
    delta = cut_pair_matrix(np.arange(1, 1 << (n - 1)), n)
    slack = F @ delta  # integers, so exact
    assert slack.max() == 0.0  # every row holds on every cut
    for row in slack:
        # the cuts where a row is tight span a hyperplane: each row is a facet
        assert np.linalg.matrix_rank(delta[:, row == 0.0]) == pairs - 1
    # the rows are every facet because CUT_5 has 40 facets and CUT_6 210
    # (Deza & Laurent, Geometry of Cuts and Metrics, 1997)


@pytest.mark.parametrize("n", [5, 6])
def test_cut_cone_screen_agrees_with_the_lp(n):
    # the float distortion LP referees the screen on 1,000 draws
    spaces = [random_metric(n, seed=7000 * n + t) for t in range(1000)]
    inside = _in_cut_cone(np.array([ms.pair_distances() for ms in spaces]), _cut_cone_facets(n))
    outside = 0
    for t, ms in enumerate(spaces):
        distortion = c1_distortion(ms, refine=False).distortion
        if inside[t]:
            assert distortion <= 1.0 + 1e-9, t
        else:
            assert distortion > 1.0 + 1e-12, t
            outside += 1
    assert outside > 0


@pytest.mark.parametrize("b", [(2, 1, 1, -1, -1, -1), (1, 1, 1, 1, -1, -2)])
def test_cut_cone_screen_sees_the_classes_no_draw_reaches(b):
    # random_metric draws leave CUT_6 only across (1,1,1,-1,-1,0) rows, so
    # step just outside one row of each of the other two classes
    n = 6
    p, q = np.triu_indices(n, 1)
    row = np.multiply.outer(b, b)[p, q].astype(float)
    delta = cut_pair_matrix(np.arange(1, 1 << (n - 1)), n)
    x = delta[:, row @ delta == 0.0].sum(axis=1)  # the sum of the row's tight cuts
    F = _cut_cone_facets(n)
    others = F[(F != row).any(axis=1)]
    assert (others @ x < 0).all()  # x lies inside the row's facet only
    step = others @ row
    eps = 0.5 * (-(others @ x)[step > 0] / step[step > 0]).min()
    d = np.zeros((n, n))
    d[p, q] = d[q, p] = x + eps * row
    ms = MetricSpace(d)  # the triangle rows are among the others, so still a metric
    y = ms.pair_distances()
    assert row @ y > 0 and (others @ y < 0).all()
    assert not _in_cut_cone(y[None, :], F)[0]
    assert c1_distortion(ms, refine=False).distortion > 1.0 + 1e-12


def test_ball_metric_subsample():
    full = ball_metric(1, 2)
    idx, same = full.subsample_farthest(full.n)
    assert np.array_equal(idx, np.arange(full.n)) and np.array_equal(same.d, full.d)
    keep, sub = full.subsample_farthest(8)
    assert sub.n == 8 and keep[0] == 0  # the traversal starts at point 0
    again, _ = full.subsample_farthest(8)
    assert np.array_equal(keep, again)
    # kept pairwise distances are the originals
    assert np.array_equal(sub.d, full.d[np.ix_(keep, keep)])


def test_negative_type_embedding_replay():
    # yes verdicts come with points whose squared l2 distances replay d
    for ms in (path_metric(6), snowflake(random_metric(7, seed=5), 0.5)):
        rep = is_negative_type(ms)
        assert rep.is_negative_type
        assert rep.reconstruction_error <= 1e-7


def test_snowflake_distortion_nonincreasing():
    _, ms = ball_metric(1, 2).subsample_farthest(8)
    vals = [
        c1_distortion(snowflake(ms, e), refine=False).distortion
        for e in (0.1, 0.3, 0.5)
    ]
    assert vals[0] >= vals[1] - 1e-7
    assert vals[1] >= vals[2] - 1e-7


def test_c1_lp_stopped_short_is_convergence_error(monkeypatch, tmp_path):
    import heislab.embeddings as emb
    from heislab.cli import main
    from heislab.errors import ConvergenceError
    from heislab.simplex import LpResult

    monkeypatch.setattr(
        emb, "solve_lp", lambda *a, **kw: LpResult("iteration_cap", iterations=20_000)
    )
    with pytest.raises(ConvergenceError):
        c1_distortion(cycle_metric(5))
    assert main(["c1", "--demo", "cycle:5", "--out-dir", str(tmp_path)]) == 4


def assert_certified(ms, rep):
    """Replay the cuts and check the LP duals, with no outside solver."""
    lo, hi = rep.replay(ms)
    assert 1.0 - 1e-9 <= lo and hi <= rep.distortion + 1e-9
    masks = np.arange(1, 1 << (ms.n - 1), dtype=np.uint32)
    delta = cut_pair_matrix(masks, ms.n)
    d = ms.pair_distances()
    mu, nu = rep.noncontraction_duals, rep.expansion_duals
    assert np.all(delta.T @ (mu - nu) <= 1e-9)
    assert float(nu @ d) <= 1.0 + 1e-9
    assert float(mu @ d) == pytest.approx(rep.distortion, abs=1e-9)


def ball_sub11():
    return ball_metric(1, 2).subsample_farthest(11)[1]


def test_degenerate_cycle_lp_takes_few_pivots():
    ms = cycle_metric(10)
    rep = c1_distortion(ms, refine=False)
    assert rep.iterations < 2000
    assert_certified(ms, rep)


@pytest.mark.parametrize("name", ["ball-sub11", "random-12-4"])
def test_degenerate_lps_below_the_point_limit_finish(name):
    ms = ball_sub11() if name == "ball-sub11" else random_metric(12, seed=4)
    assert_certified(ms, c1_distortion(ms, refine=False))


def test_dual_cleanup_restores_feasibility(monkeypatch):
    # a shift this large leaves negative basic values once b is restored
    import heislab.embeddings as emb
    from heislab import simplex

    monkeypatch.setattr(simplex, "_PERTURB", 1e-4)
    dual_pivots, lps = [], []
    cleanup = simplex._Tableau._dual_cleanup

    def counted(tab, *args):
        before = tab.iterations
        status = cleanup(tab, *args)
        dual_pivots.append(tab.iterations - before)
        return status

    def kept(*args, **kw):
        res = simplex.solve_lp(*args, **kw)
        lps.append((args, res))
        return res

    monkeypatch.setattr(simplex._Tableau, "_dual_cleanup", counted)
    monkeypatch.setattr(emb, "solve_lp", kept)
    ms = ball_sub11()
    rep = c1_distortion(ms, refine=False)
    assert sum(dual_pivots) >= 1
    assert_certified(ms, rep)
    (c, A, b, senses), res = lps[0]
    assert np.all(res.x >= -1e-9)
    for row, bi, sense in zip(A @ res.x, b, senses):
        assert row >= bi - 1e-9 if sense == ">=" else row <= bi + 1e-9
