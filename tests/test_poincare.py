import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heislab.errors import ValidationError
from heislab.perimeter import (
    box_set,
    horizontal_perimeter,
    random_blob,
    vertical_perimeter,
)
from heislab.poincare import (
    LatticeFunction,
    coarea,
    coset_partition,
    local_poincare,
    poincare_rhs,
    poincare_sides,
    sublevel_set,
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
    assert set(f.support()) == {(0, 0, 0)}


@given(CASES)
@settings(max_examples=25, deadline=None)
def test_indicator_identity(args):
    k, size, seed = args
    S = random_blob(k, size, seed)
    sides = poincare_sides(LatticeFunction.indicator(S))
    v, verr = vertical_perimeter(S)
    assert sides.lhs == pytest.approx(v, rel=1e-12)
    assert sides.rhs == 2 * horizontal_perimeter(S)


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
    partial = poincare_rhs(phi, indices=[1])
    assert 0 < partial < full
    both = poincare_rhs(phi, indices=[1, 2])
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
        assert len(phi.values) >= 1


def test_sublevel_set_semantics():
    S = box_set(1, 2, 2, 2)
    phi = LatticeFunction.random_integer(S, -2, 3, seed=4)
    vals = {t: int(v) for t, v in phi.values.items()}
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
