import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heislab.errors import ResourceCapError, ValidationError
from heislab.perimeter import (
    FiniteSet,
    box_set,
    column_set,
    generator_step,
    horizontal_perimeter,
    parse_set_spec,
    random_blob,
    vertical_perimeter,
)
from heislab.poincare import (
    LatticeFunction,
    _pair_sum,
    _rhs_window,
    _vertical_sums,
    coarea,
    local_poincare,
    poincare_rhs,
    poincare_sides,
)
from lattice_oracles import (
    coset_partition,
    in_ball_per_row,
    sublevel_set,
    vertical_sums_direct,
)

CASES = st.tuples(
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=2, max_value=50),
    st.integers(min_value=0, max_value=10**6),
)


def test_validation():
    with pytest.raises(ValidationError):
        LatticeFunction(1, {})
    with pytest.raises(ValidationError):
        LatticeFunction(1, {(1, 2): 1.0})  # wrong arity
    f = LatticeFunction(1, {(0, 0, 0): 2, (1, 0, 0): 0})
    assert set(f.S) == {(0, 0, 0)}


@given(CASES)
@settings(max_examples=25, deadline=None)
def test_indicator_identity(args):
    k, size, seed = args
    S = random_blob(k, size, seed)
    sides = poincare_sides(LatticeFunction.indicator(S))
    v, verr = vertical_perimeter(S)
    assert sides.lhs == pytest.approx(v, rel=1e-12)
    assert sides.rhs == 2 * horizontal_perimeter(S)


def test_indicator_error_bound_is_the_perimeters():
    # column span 1999 > 1000, where the bound includes the asymptotic tail term
    S = column_set(1, 2000)
    sides = poincare_sides(LatticeFunction.indicator(S))
    assert (sides.lhs, sides.lhs_err) == vertical_perimeter(S)


@pytest.mark.parametrize(
    "k, spec",
    [(1, "random_blob(2000,7)"), (1, "box(3,3,6)"), (2, "ball(4)"), (1, "box(10,10,50)"),
     (1, "column(2000)")],
)
def test_indicator_sides_are_the_perimeters_bit_for_bit(k, spec):
    # poincare_sides on the indicator is the oracle for the perimeters that
    # the poincare command writes as the indicator's sides
    S = parse_set_spec(k, spec)
    sides = poincare_sides(LatticeFunction.indicator(S))
    v, verr = vertical_perimeter(S)
    assert (sides.lhs, sides.lhs_err, sides.rhs) == (v, verr, float(2 * horizontal_perimeter(S)))


@given(
    CASES,
    st.integers(min_value=-4, max_value=0),
    st.integers(min_value=1, max_value=4),
    st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_vertical_sums_match_column_oracle(args, lo, hi, stacked):
    k, size, seed = args
    phi = LatticeFunction.random_integer(random_blob(k, size, seed), lo, hi, seed + 1)
    if stacked:
        other = random_blob(k, size // 2 + 1, seed + 2)
        phi = LatticeFunction.stacked(
            phi, LatticeFunction.random_integer(other, lo, hi, seed + 3)
        )
    A, mass = _vertical_sums(phi)
    want_A, want_mass = vertical_sums_direct(k, dict(zip(phi.S, phi.vals)))
    assert A.tolist() == want_A
    assert mass == want_mass


@given(CASES, st.integers(min_value=0, max_value=5))
@settings(max_examples=25, deadline=None)
def test_coarea_integer_identity(args, hi):
    S = random_blob(*args)
    phi = LatticeFunction.random_integer(S, -2, hi, args[2] + 1)
    rep = coarea(phi)
    assert rep.rhs_exact
    assert rep.rhs_total == rep.rhs_levels
    # level decomposition can only lengthen the L2-valued side
    assert rep.lhs_levels >= rep.lhs_total - 1e-9 * (1.0 + abs(rep.lhs_total))


def test_coarea_levels_structure():
    S = box_set(1, 2, 2, 2)
    phi = LatticeFunction.random_integer(S, 0, 3, 5)
    rep = coarea(phi)
    assert len(rep.levels) >= 1
    assert sum(level.rhs for level in rep.levels) == rep.rhs_levels


def test_rhs_generator_subfamily():
    S = random_blob(2, 30, 3)
    phi = LatticeFunction.random_integer(S, 0, 4, 9)
    full = poincare_rhs(phi)
    # at k = 2, generator j moves along a_i or b_i with i = (j % 4) // 2 + 1
    per_generator = [_pair_sum(phi, generator_step(2, phi.S.rows, j)) for j in range(8)]
    partial = sum(v for j, v in enumerate(per_generator) if (j % 4) // 2 == 0)
    assert 0 < partial < full
    both = sum(per_generator)
    assert both == pytest.approx(full)


def test_vector_valued_sides():
    S = random_blob(1, 20, 4)
    f1 = LatticeFunction.random_integer(S, 0, 3, 1)
    f2 = LatticeFunction.random_integer(S, 0, 3, 2)
    stacked = LatticeFunction.stacked(f1, f2)
    a, b = poincare_sides(f1), poincare_sides(f2)
    s = poincare_sides(stacked)
    # the vector rhs is the sum of coordinate rhs values for l1 norms
    assert s.rhs == pytest.approx(a.rhs + b.rhs)
    assert s.lhs <= a.lhs + b.lhs + 1e-9


def test_local_window_covers_small_support():
    S = box_set(1, 2, 2, 2)
    phi = LatticeFunction.random_integer(S, 0, 3, 7)
    loc = local_poincare(phi, 2)
    glob = poincare_sides(phi)
    assert loc.rhs == pytest.approx(glob.rhs)  # alpha n = 42 swallows the support
    assert loc.lhs <= glob.lhs + 1e-9


def _window_oracle(k, rows, R):
    """The support rows and their generator neighbours with |x|_1 <= R
    that lie in B_R, decided one row at a time."""
    cand = FiniteSet(
        k, np.concatenate([rows] + [generator_step(k, rows, j) for j in range(4 * k)])
    ).rows
    cand = cand[np.abs(cand[:, : 2 * k]).sum(axis=1) <= R]
    return cand[in_ball_per_row(k, cand, R)]


@given(
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=20, deadline=None)
def test_rhs_window_matches_per_row_oracle(k, size, seed, R):
    # a blob around the identity plus central rows just beyond the BFS
    # window (|w| > R^2 + 1) that still pass the |x|_1 <= R prefilter
    far = np.zeros((4, 2 * k + 1), dtype=np.int64)
    far[:, 2 * k] = [R * R + 2, -(R * R + 2), R * R + 1, -(R * R + 1)]
    far[2:, 0] = 1
    rows = np.concatenate([random_blob(k, size, seed).rows, far])
    phi = LatticeFunction.indicator(FiniteSet(k, rows))
    assert np.array_equal(_rhs_window(phi, R), _window_oracle(k, rows, R))


def test_rhs_window_bidirectional_regime():
    # R = 10 keeps the per-row bidirectional search; about 100 of the rows
    # it settles lie in the ball without a word-length bound showing it
    S = box_set(1, 3, 3, 16)
    got = _rhs_window(LatticeFunction.indicator(S), 10)
    assert np.array_equal(got, _window_oracle(1, S.rows, 10))
    assert 0 < np.count_nonzero(S.locate(got) >= 0) < S.size  # B_10 cuts the box


def test_local_window_memory_cap():
    phi = LatticeFunction.random_integer(box_set(2, 3, 3, 6), -2, 3, 5)
    with pytest.raises(ResourceCapError):
        local_poincare(phi, 1, alpha=8.0, mem_cap_mib=0.5)


def test_local_lhs_grows_with_n():
    S = box_set(1, 3, 3, 4)
    phi = LatticeFunction.random_integer(S, 0, 2, 11)
    l1 = local_poincare(phi, 1).lhs
    l3 = local_poincare(phi, 3).lhs
    assert l1 <= l3 + 1e-12


def test_coset_partition():
    S = random_blob(2, 40, 8)
    pieces = coset_partition([1], S)
    assert sum(p.size for p in pieces.values()) == S.size
    for (xs, ys), piece in pieces.items():
        for t in piece:
            assert (t[1],) == xs and (t[3],) == ys
    with pytest.raises(ValidationError):
        coset_partition([], S)
    with pytest.raises(ValidationError):
        coset_partition([3], S)


def test_random_integer_nonzero_support():
    S = box_set(1, 2, 2, 1)
    with pytest.raises(ValidationError):
        LatticeFunction.random_integer(S, 0, 0, 3)
    # a range straddling zero can draw all zeros; one member gets pinned
    for seed in range(40):
        phi = LatticeFunction.random_integer(S, -1, 1, seed)
        assert phi.S.size >= 1


def test_sublevel_set_semantics():
    S = box_set(1, 2, 2, 2)
    phi = LatticeFunction.random_integer(S, -2, 3, seed=4)
    vals = dict(zip(phi.S, phi.vals.astype(int).tolist()))
    # u <= 0: literally {phi < u}
    want = {t for t, v in vals.items() if v < -1}
    if want:
        F = sublevel_set(phi, -1)
        assert set(F) == want
    # u > 0: finite complement {phi >= u}
    F = sublevel_set(phi, 1)
    assert set(F) == {t for t, v in vals.items() if v >= 1}
    # boundary counts match the matching coarea level
    rep = coarea(phi)
    lv = {level.u: level for level in rep.levels}
    assert lv[1].rhs == 2 * horizontal_perimeter(F)
    with pytest.raises(ValidationError):
        sublevel_set(LatticeFunction.indicator(S), 0)  # {phi < 0} is empty
