import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from heislab.rng import Rng, substream_seeds, uniform_matrix
from line_oracles import normals

SEEDS = st.integers(min_value=0, max_value=2**63 - 1)


def test_determinism():
    a = Rng(123).uniforms(50)
    b = Rng(123).uniforms(50)
    assert np.array_equal(a, b)


def test_pinned_values():
    # regression pins: a silent generator change would shift every
    # seeded artifact in the repository
    r = Rng(0)
    assert r.u64() == 16294208416658607535
    assert abs(Rng(42).uniform() - 0.7415648787718233) < 1e-16


def test_streams_differ():
    r = Rng(7)
    a = r.substream(1).uniforms(8)
    b = r.substream(2).uniforms(8)
    assert not np.array_equal(a, b)


@given(SEEDS, st.integers(min_value=1, max_value=200))
@settings(max_examples=50, deadline=None)
def test_uniform_range(seed, n):
    u = Rng(seed).uniforms(n)
    assert np.all(u >= 0.0) and np.all(u < 1.0)


@given(SEEDS)
@settings(max_examples=30, deadline=None)
def test_integers_bounds(seed):
    v = Rng(seed).integers(100, 7)
    assert v.shape == (100,)
    assert v.min() >= 0 and v.max() < 7


def test_normals_moments():
    z = normals(Rng(5), 200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_sequential_vs_block():
    r = Rng(99)
    one_by_one = np.array([Rng(99).substream(0).uniform() for _ in range(1)])
    assert one_by_one[0] == r.substream(0).uniform()


@given(SEEDS, st.integers(min_value=0, max_value=1000), st.integers(min_value=1, max_value=40))
@settings(max_examples=40, deadline=None)
def test_substream_seeds_match_scalar(seed, start, n):
    block = substream_seeds(seed, start, n)
    r = Rng(seed)
    want = np.array([r.substream(start + i).seed for i in range(n)], dtype=np.uint64)
    assert np.array_equal(block, want)


@given(SEEDS, st.integers(min_value=1, max_value=30))
@settings(max_examples=40, deadline=None)
def test_uniform_matrix_matches_scalar(seed, m):
    seeds = substream_seeds(seed, 3, 4)
    got = uniform_matrix(seeds, m)
    for i, s in enumerate(seeds):
        want = Rng(int(s)).uniforms(m)
        assert np.array_equal(got[i], want)
