import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heislab import simplex
from heislab.embeddings import ball_metric, c1_distortion, cycle_metric
from heislab.rng import Rng
from heislab.simplex import solve_lp


def test_basic_min():
    # min -x - y  s.t. x <= 1, y <= 1, x,y >= 0
    res = solve_lp([-1, -1], [[1, 0], [0, 1]], [1, 1], "<=" * 0 or ["<=", "<="])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-2.0)
    assert res.x == pytest.approx([1.0, 1.0])


def test_equality_and_ge():
    # min x + 2y  s.t. x + y = 3, x - y >= 1
    res = solve_lp([1, 2], [[1, 1], [1, -1]], [3, 1], ["=", ">="])
    assert res.status == "optimal"
    assert res.x == pytest.approx([3.0, 0.0])


def test_infeasible():
    res = solve_lp([1], [[1], [1]], [2, 1], [">=", "<="])
    assert res.status == "infeasible"


def test_unbounded():
    res = solve_lp([-1], [[1]], [1], [">="])
    assert res.status == "unbounded"


def test_negative_rhs_row():
    # x >= 0.5 written as -x <= -0.5
    res = solve_lp([1], [[-1]], [-0.5], ["<="])
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(0.5)


def test_bad_sense_is_rejected_on_a_flipped_row():
    with pytest.raises(ValueError, match="bad sense"):
        solve_lp([1], [[1]], [-1], ["=<"])


def test_duality_and_signs():
    c = [3.0, 5.0]
    A = [[1.0, 2.0], [2.0, 1.0], [1.0, 1.0]]
    b = [4.0, 4.0, 5.0]
    senses = [">=", ">=", "<="]
    res = solve_lp(c, A, b, senses)
    assert res.status == "optimal"
    y = res.duals
    assert y[0] >= -1e-9 and y[1] >= -1e-9  # >= rows
    assert y[2] <= 1e-9  # <= rows
    assert float(np.dot(y, b)) == pytest.approx(res.objective, abs=1e-9)
    # dual feasibility for a minimization: A^T y <= c
    assert np.all(np.asarray(A).T @ y <= np.asarray(c) + 1e-9)


def test_beale_cycling_example():
    # classic degenerate instance that cycles under naive pricing
    c = [-0.75, 150.0, -0.02, 6.0]
    A = [
        [0.25, -60.0, -1.0 / 25.0, 9.0],
        [0.5, -90.0, -1.0 / 50.0, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
    b = [0.0, 0.0, 1.0]
    res = solve_lp(c, A, b, ["<=", "<=", "<="])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-0.05)


def test_exact_refinement():
    res = solve_lp([-1, -1], [[2, 1], [1, 3]], [3, 5], ["<=", "<="], refine=True)
    assert res.exact
    assert res.objective == pytest.approx(float(-(Fraction(4, 5) + Fraction(7, 5))))


def test_certificate_fits_the_input_exactly():
    # min x0 + x1  s.t.  x0 >= 0.1,  0.3 x0 + x1 >= 0.3; neither 0.1 nor 0.3 is a
    # binary fraction, so the float entries differ from the decimals they print as
    A = [[1.0, 0.0], [0.3, 1.0]]
    b = np.array([0.1, 0.3])
    full = np.hstack([np.array(A), -np.eye(2)])
    cost = np.array([1.0, 1.0, 0.0, 0.0])
    res = simplex._exact_from_basis(
        full, b, cost, np.array([0, 1]), 2, np.zeros(2, bool), np.ones(4, bool)
    )
    assert res[0] == "ok"
    _, x, obj, duals = res
    assert x[0] == Fraction(0.1) != Fraction(1, 10)
    for row, rhs in zip(full.tolist(), b.tolist()):
        assert sum(Fraction(a) * v for a, v in zip(row, x)) == Fraction(rhs)
    assert all(v >= 0 for v in x)
    assert obj == sum(Fraction(c) * v for c, v in zip(cost.tolist(), x))
    assert obj == sum(y * Fraction(v) for y, v in zip(duals, b.tolist()))


def exact_from_basis_oracle(full, b, cost, basis, n, flip, allow):
    """Fraction Gauss-Jordan on B and B^T plus a reduced cost for every
    nonbasic column, on the floats taken exactly; the contract of
    ``simplex._exact_from_basis`` without its float screen."""
    m = len(b)
    Bf = [[Fraction(full[i, j]) for j in basis] for i in range(m)]
    sol = fraction_solve(Bf, [Fraction(v) for v in b])
    if sol is None:
        return None
    if any(v < 0 for v in sol):
        return ("degenerate", None)
    yT = fraction_solve([list(r) for r in zip(*Bf)], [Fraction(cost[j]) for j in basis])
    if yT is None:
        return None
    x_full = [Fraction(0)] * full.shape[1]
    for i, j in enumerate(basis):
        x_full[j] = sol[i]
    obj = sum(Fraction(cost[j]) * x_full[j] for j in range(n))
    basis_set = set(int(j) for j in basis)
    for j in range(full.shape[1]):
        if not allow[j] or j in basis_set:
            continue
        red = Fraction(cost[j]) - sum(yT[i] * Fraction(full[i, j]) for i in range(m))
        if red < 0:
            return ("enter", j)
    duals = [(-y if f else y) for y, f in zip(yT, flip)]
    return ("ok", x_full, obj, duals)


def fraction_solve(M, rhs):
    """Gaussian elimination over Fractions; None if singular."""
    m = len(rhs)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(M)]
    for col in range(m):
        piv = next((r for r in range(col, m) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(m):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * c for a, c in zip(aug[r], aug[col])]
    return [aug[i][m] for i in range(m)]


@pytest.fixture
def checked_against_oracle(monkeypatch):
    """Compare every refinement call of solve_lp with the oracle; the list
    collects the verdicts."""
    verdicts = []
    screened = simplex._exact_from_basis

    def both(*args):
        got = screened(*args)
        assert got == exact_from_basis_oracle(*args)
        verdicts.append(None if got is None else got[0])
        return got

    monkeypatch.setattr(simplex, "_exact_from_basis", both)
    return verdicts


def test_screen_matches_oracle_on_random_lps(checked_against_oracle):
    for seed in range(30):
        rng = Rng(seed)
        m, n = 4, 5
        A = rng.uniforms(m * n).reshape(m, n) * 2.0 - 0.5
        b = rng.uniforms(m) * 2.0 - 0.3
        c = rng.uniforms(n) * 2.0 - 0.5
        senses = ["<=", ">=", "=", "<="]
        solve_lp(c, A, b, senses, refine=True)
    assert "ok" in checked_against_oracle


@pytest.mark.parametrize("name", ["cycle:9", "ball:1,2|subsample:9"])
def test_screen_matches_oracle_on_distortion_lps(checked_against_oracle, name):
    # integer metrics: many reduced costs are exactly zero
    if name == "cycle:9":
        ms = cycle_metric(9)
    else:
        _, ms = ball_metric(1, 2).subsample_farthest(9)
    rep = c1_distortion(ms, refine=True)
    assert rep.exact and checked_against_oracle[-1] == "ok"


def test_screen_sends_close_reduced_costs_to_the_exact_check():
    # min x0 + x1  s.t.  3 x0 + (3 + 2^-51) x1 >= 1, basis {x0}: y = 1/3 and the
    # reduced cost of x1 is -2^-51/3, but in float it comes out 0
    full = np.array([[3.0, 3.0 + 2.0**-51, -1.0]])
    b = np.array([1.0])
    cost = np.array([1.0, 1.0, 0.0])
    args = (full, b, cost, np.array([0]), 2, np.zeros(1, bool), np.ones(3, bool))
    assert cost[1] - (1.0 / 3.0) * full[0, 1] >= 0.0
    assert simplex._exact_from_basis(*args) == ("enter", 1)
    assert exact_from_basis_oracle(*args) == ("enter", 1)


def brute_force_optimum(c, A, b, senses):
    """Enumerate basic feasible points of {Ax sense b, x >= 0}."""
    n = len(c)
    rows = [(np.asarray(a, float), float(bi), s) for a, bi, s in zip(A, b, senses)]
    # add x_j >= 0 as candidate active constraints
    cands = [(np.asarray(a, float), bi) for a, bi, _ in rows]
    cands += [(np.eye(n)[j], 0.0) for j in range(n)]
    best = None
    for combo in itertools.combinations(range(len(cands)), n):
        M = np.array([cands[i][0] for i in combo])
        rhs = np.array([cands[i][1] for i in combo])
        if abs(np.linalg.det(M)) < 1e-9:
            continue
        x = np.linalg.solve(M, rhs)
        if np.any(x < -1e-9):
            continue
        ok = True
        for a, bi, s in rows:
            v = float(a @ x)
            if s == "<=" and v > bi + 1e-9:
                ok = False
            if s == ">=" and v < bi - 1e-9:
                ok = False
            if s == "=" and abs(v - bi) > 1e-9:
                ok = False
        if ok:
            val = float(np.dot(c, x))
            if best is None or val < best:
                best = val
    return best


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_matches_vertex_enumeration(seed):
    rng = Rng(seed)
    n, m = 3, 4
    A = rng.uniforms(m * n).reshape(m, n) * 2.0 - 0.5
    b = rng.uniforms(m) * 2.0 + 0.5
    c = rng.uniforms(n) * 2.0 - 1.0
    senses = ["<="] * m  # bounded in the positive orthant, x = 0 feasible
    res = solve_lp(c, A, b, senses)
    want = brute_force_optimum(c, A, b, senses)
    if res.status == "optimal" and want is not None:
        assert res.objective == pytest.approx(want, abs=1e-7)
        assert float(np.dot(res.duals, b)) == pytest.approx(res.objective, abs=1e-7)


def test_iteration_cap(monkeypatch):
    monkeypatch.setattr(simplex, "_MAX_ITER", 1)
    res = solve_lp([-1, -1], [[1, 1]], [1], ["<="])
    assert res.status in ("optimal", "iteration_cap")


def assert_certified_optimum(c, A, b, senses, res, want):
    """x meets every row, y is dual feasible, and c.x = y.b = want."""
    A, b, c = np.asarray(A, float), np.asarray(b, float), np.asarray(c, float)
    assert res.status == "optimal"
    assert np.all(res.x >= -1e-9)
    for row, bi, yi, sense in zip(A @ res.x, b, res.duals, senses):
        if sense != "<=":
            assert row >= bi - 1e-9
        if sense != ">=":
            assert row <= bi + 1e-9
        if sense == ">=":
            assert yi >= -1e-9
        if sense == "<=":
            assert yi <= 1e-9
    assert np.all(A.T @ res.duals <= c + 1e-9)
    assert res.objective == pytest.approx(want, abs=1e-7)
    assert float(res.duals @ b) == pytest.approx(want, abs=1e-7)


def test_phase2_artificial_is_not_raised():
    # the artificial of row 1 is basic at zero in phase 2 and blocks the
    # entering column; raising it would break 0.125 >= 2
    c = [-2, 0, 1, 2]
    A = [[1, 3, 2, 1], [0, 1, 1, 2], [3, 3, 3, 3], [3, 1, 2, 2], [-1, -1, 2, 0]]
    b = [1, 2, 0, 2, 0]
    senses = ["=", ">=", ">=", "<=", ">="]
    res = solve_lp(c, A, b, senses)
    assert brute_force_optimum(c, A, b, senses) == pytest.approx(2.0)
    assert_certified_optimum(c, A, b, senses, res, 2.0)
    assert res.x == pytest.approx([0, 0, 0, 1], abs=1e-9)


def test_dual_cleanup_drives_a_phase2_artificial_out():
    # x1 + x2 = 1 with its artificial basic at 1: dual feasible, not primal
    tab = simplex._Tableau(np.array([[1.0, 1.0, 1.0]]), np.array([1.0]), np.array([2]))
    tab.c = np.array([1.0, 2.0, 0.0])
    assert tab._dual_cleanup(np.array([True, True, False]), 10) is None
    assert tab.basis.tolist() == [0] and tab.iterations == 1


def test_dual_cleanup_without_an_entering_column_stops():
    # x1 + x2 = -1 has no solution x >= 0: the cleanup must not claim one
    tab = simplex._Tableau(np.array([[1.0, 1.0]]), np.array([-1.0]), np.array([0]))
    assert tab._dual_cleanup(np.ones(2, dtype=bool), 10) == "numerical"


DEGENERATE_LPS = st.tuples(
    st.lists(st.integers(-2, 2), min_size=4, max_size=4),
    st.lists(st.lists(st.integers(-1, 3), min_size=4, max_size=4), min_size=5, max_size=5),
    st.lists(st.integers(0, 2), min_size=5, max_size=5),
    st.lists(st.sampled_from(["<=", ">=", "="]), min_size=5, max_size=5),
)


@pytest.mark.parametrize("stall", [simplex._STALL, 0])
@given(DEGENERATE_LPS)
@settings(max_examples=80, deadline=None)
def test_degenerate_integer_lps_match_vertex_enumeration(stall, lp):
    # stall 0 shifts the rhs at the first pivot without progress, phase 1
    # included, so most of these LPs go through the shift and the cleanup
    c, A, b, senses = lp
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_STALL", stall)
        res = solve_lp(c, A, b, senses)
    want = brute_force_optimum(c, A, b, senses)
    if want is None:
        assert res.status == "infeasible"
        return
    # unbounded iff some ray r >= 0 with sum(r) = 1 keeps the rows and has c.r < 0
    ray = brute_force_optimum(c, A + [[1] * 4], [0] * 5 + [1], senses + ["="])
    if ray is not None and ray < -1e-9:
        assert res.status == "unbounded"
    else:
        assert_certified_optimum(c, A, b, senses, res, want)
