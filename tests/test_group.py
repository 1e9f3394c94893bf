import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from group_oracles import (
    ContinuousPoint,
    central,
    continuous_identity,
    identity,
    quasi_norm,
    to_exponential,
    to_lattice,
    to_matrix_coords,
    z_power,
)
from heislab.group import DiscreteElement, quotient_rows
from lattice_oracles import element_from_text, generators

COORD = st.integers(min_value=-50, max_value=50)


def element(k, vals):
    return DiscreteElement(k, tuple(vals[:k]), tuple(vals[k : 2 * k]), vals[2 * k])


@st.composite
def elements(draw, k=2):
    vals = draw(st.lists(COORD, min_size=2 * k + 1, max_size=2 * k + 1))
    return element(k, vals)


@given(elements(), elements(), elements())
@settings(max_examples=100, deadline=None)
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(elements())
@settings(max_examples=100, deadline=None)
def test_inverse(a):
    e = identity(2)
    assert a * a.inverse() == e
    assert a.inverse() * a == e
    assert a * e == a and e * a == a


@pytest.mark.parametrize("k", [1, 2, 3])
def test_commutator_relations(k):
    gens = generators(k)
    c = central(k)
    # gens alternate a_1, b_1, a_2, b_2, ...
    for i in range(k):
        a, b = gens[2 * i], gens[2 * i + 1]
        assert a * b * a.inverse() * b.inverse() == c
    for i in range(k):
        for j in range(k):
            if i != j:
                a, b = gens[2 * i], gens[2 * j + 1]
                assert a * b * a.inverse() * b.inverse() == identity(k)
    for g in gens:
        assert g * c == c * g


def test_central_power():
    assert central(1, 5).w == 5
    assert central(2, -3) * central(2, 3) == identity(2)


@given(elements())
@settings(max_examples=50, deadline=None)
def test_text_roundtrip(a):
    assert element_from_text(a.to_text()) == a


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        element(1, [1, 2, 3]) * element(2, [1, 2, 3, 4, 5])


def test_overflow_guard():
    big = element(1, [2**40, 2**40, 0])
    with pytest.raises(OverflowError):
        big * big  # w picks up x*y' = 2^80


WIDE = st.integers(min_value=-(2**30), max_value=2**30)


@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda k: st.tuples(
        st.just(k),
        st.lists(WIDE, min_size=2 * k + 1, max_size=2 * k + 1),
        st.lists(st.lists(WIDE, min_size=2 * k + 1, max_size=2 * k + 1), min_size=1, max_size=6),
    )
))
@settings(max_examples=100, deadline=None)
def test_quotient_rows_matches_scalar_law(args):
    k, g, hs = args
    got = quotient_rows(k, g, np.array(hs, dtype=np.int64))
    want = [(element(k, g).inverse() * element(k, h)).coords() for h in hs]
    assert got.dtype == np.int64 and got.tolist() == [list(w) for w in want]


def test_quotient_rows_overflow_guard():
    # g^-1 h for g = (2^40, 2^40, 0), h = 1 has w = x_g * y_g = 2^80
    with pytest.raises(OverflowError):
        quotient_rows(1, [2**40, 2**40, 0], np.zeros((1, 3), dtype=np.int64))
    # at the edge of the range: 2^63 - 1 fits, 2^63 does not, as in the scalar law
    g = [0, 0, -(2**62)]
    top = np.array([[0, 0, 2**62 - 1]], dtype=np.int64)
    assert quotient_rows(1, g, top).tolist() == [[0, 0, 2**63 - 1]]
    assert (element(1, g).inverse() * element(1, [0, 0, 2**62 - 1])).w == 2**63 - 1
    with pytest.raises(OverflowError):
        quotient_rows(1, g, top + 1)
    with pytest.raises(OverflowError):
        element(1, g).inverse() * element(1, [0, 0, 2**62])


@given(elements())
@settings(max_examples=50, deadline=None)
def test_lattice_chart_roundtrip(a):
    assert to_lattice(to_exponential(a.x, a.y, a.w)) == a


@given(elements(), elements())
@settings(max_examples=50, deadline=None)
def test_chart_is_homomorphism(a, b):
    ab = a * b
    lhs = to_exponential(ab.x, ab.y, ab.w)
    rhs = to_exponential(a.x, a.y, a.w) * to_exponential(b.x, b.y, b.w)
    assert lhs.x == pytest.approx(tuple(rhs.x))
    assert lhs.y == pytest.approx(tuple(rhs.y))
    assert lhs.z == pytest.approx(rhs.z, abs=1e-9)


def test_chart_pins_and_real_roundtrip():
    # central generator reads (0, 0, 1) in both charts
    c = to_exponential((0.0,), (0.0,), 1.0)
    assert (c.x, c.y, c.z) == ((0.0,), (0.0,), 1.0)
    assert to_matrix_coords(c) == ((0.0,), (0.0,), 1.0)
    # a1 * b1 has matrix w = 1 and exponential z = 1/2
    a1, b1 = element(1, [1, 0, 0]), element(1, [0, 1, 0])
    ab = a1 * b1
    assert ab.w == 1
    p = to_exponential(ab.x, ab.y, ab.w)
    assert p.z == 0.5
    # real-coordinate round trip
    q = ContinuousPoint(2, (0.3, -1.7), (2.4, 0.9), -3.21)
    x, y, w = to_matrix_coords(q)
    back = to_exponential(x, y, w)
    assert back.x == q.x and back.y == q.y
    assert abs(back.z - q.z) < 1e-12
    with pytest.raises(ValueError):
        to_exponential((1.0,), (1.0, 2.0), 0.0)


def test_continuous_group_laws():
    u = ContinuousPoint(1, (0.5,), (-1.25,), 2.0)
    v = ContinuousPoint(1, (3.0,), (0.75,), -1.0)
    e = continuous_identity(1)
    w = u * v
    lhs, rhs = (u * v) * u, u * (v * u)
    assert lhs.x[0] == pytest.approx(rhs.x[0]) and lhs.z == pytest.approx(rhs.z)
    assert (w * w.inverse()).z == pytest.approx(0.0, abs=1e-12)
    assert (u * e).z == pytest.approx(u.z)


def test_dilation_scales_quasi_norm():
    u = ContinuousPoint(2, (1.0, -2.0), (0.5, 0.0), 3.0)
    for t in (0.5, 2.0, 7.0):
        assert quasi_norm(u.scaled(t)) == pytest.approx(t * quasi_norm(u), rel=1e-12)


def test_z_power_norm():
    # the central direction carries the square-root scale
    p = z_power(1, 4.0)
    assert quasi_norm(p) == pytest.approx(4.0 * 2.0, rel=1e-12)
