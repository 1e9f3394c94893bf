import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from heislab.embeddings import negative_type_with_distortion, random_metric
from heislab.perimeter import default_corpus, random_blob
from heislab.rng import Rng, substream_seeds, uniform_matrix
from heislab.sparsecut import random_instance
from line_oracles import normals
from rng_oracles import ScalarRng, substream_seed

SEEDS = st.integers(min_value=0, max_value=2**63 - 1)


def test_determinism():
    a = Rng(123).uniforms(50)
    b = Rng(123).uniforms(50)
    assert np.array_equal(a, b)


def test_pinned_values():
    # regression pins: a silent generator change would shift every
    # seeded artifact in the repository
    assert ScalarRng(0).u64() == 16294208416658607535
    assert abs(ScalarRng(42).uniform() - 0.7415648787718233) < 1e-16
    assert Rng(0).uniforms(1)[0] == (16294208416658607535 >> 11) * 2.0 ** -53
    assert abs(Rng(42).uniforms(1)[0] - 0.7415648787718233) < 1e-16


def test_streams_differ():
    a, b = uniform_matrix(substream_seeds(7, 1, 2), 8)
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


@given(SEEDS, st.integers(min_value=0, max_value=2500), st.integers(min_value=1, max_value=300))
@settings(max_examples=40, deadline=None)
def test_sequential_vs_block(seed, skip, n):
    # a block at any counter, and stream() across its block edges, give the
    # scalar oracle's draws one by one
    scalar = ScalarRng(seed)
    want = [scalar.uniform() for _ in range(skip + n)]
    r = Rng(seed)
    r.uniforms(skip)
    assert r.uniforms(n).tolist() == want[skip:]
    u = Rng(seed).stream()
    assert [next(u) for _ in range(skip + n)] == want


@given(SEEDS, st.integers(min_value=0, max_value=1000), st.integers(min_value=1, max_value=40))
@settings(max_examples=40, deadline=None)
def test_substream_seeds_match_scalar(seed, start, n):
    block = substream_seeds(seed, start, n)
    want = np.array([substream_seed(seed, start + i) for i in range(n)], dtype=np.uint64)
    assert np.array_equal(block, want)


@given(SEEDS, st.integers(min_value=1, max_value=30))
@settings(max_examples=40, deadline=None)
def test_uniform_matrix_matches_scalar(seed, m):
    seeds = substream_seeds(seed, 3, 4)
    got = uniform_matrix(seeds, m)
    for i, s in enumerate(seeds):
        scalar = ScalarRng(int(s))
        assert got[i].tolist() == [scalar.uniform() for _ in range(m)]


# SHA-256 over every seeded generator output below, recorded before the
# scalar splitmix path was deleted and every consumer drew in blocks
GENERATOR_DIGEST = "a7aa2dde11b5e083e072b0b4c35c4394093a79e38e4257901e1700ddb600d613"


def test_generator_digest():
    h = hashlib.sha256()
    for s in range(40):
        h.update(random_metric(2 + s % 15, s).d.tobytes())
        inst = random_instance(2 + s % 12, s)
        h.update(inst.C.tobytes() + inst.D.tobytes())
    for k, size, s in ((1, 300, 1), (2, 500, 3), (1, 2000, 7)):
        h.update(random_blob(k, size, s).rows.tobytes())
    h.update("\n".join(spec for _, spec, _ in default_corpus(2)).encode())
    for s in (0, 99, 2**64 - 1):
        h.update(substream_seeds(s, 5, 9).tobytes())
        h.update(uniform_matrix(substream_seeds(s, 0, 3), 11).tobytes())
        r = Rng(s)
        for n in (1, 4, 300):  # uniforms at counters 0, 1 and 5
            h.update(r.uniforms(n).tobytes())
        h.update(r.integers(50, 7).tobytes())
    for n in (5, 6):
        for s in (1, 2, 3):
            for ms in negative_type_with_distortion(n, 2, s):
                h.update(ms.d.tobytes())
    assert h.hexdigest() == GENERATOR_DIGEST
