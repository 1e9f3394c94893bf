import math
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heislab.cayley import word_distance
from heislab.errors import ResourceCapError, ValidationError
from heislab.perimeter import (
    FiniteSet,
    ball_set,
    box_set,
    column_set,
    default_corpus,
    horizontal_perimeter,
    parse_set_spec,
    random_blob,
    vertical_perimeter,
    vertical_spectrum,
)
from lattice_oracles import (
    embedded,
    horizontal_perimeter_direct,
    set_from_lines,
    spectrum_count,
    vertical_t_count,
    vertical_t_count_direct,
)

# the benchmark's independent FIFO growth, written on tuples from the definition
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import oracle  # noqa: E402

BLOBS = st.tuples(
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=0, max_value=10**6),
)


def test_finite_set_basics():
    S = box_set(1, 2, 2, 2)
    assert S.size == 8
    assert S.k == 1
    with pytest.raises(ValidationError):
        FiniteSet(1, [])


def test_lines_roundtrip():
    S = random_blob(2, 40, 5)
    back = set_from_lines(S.to_text().splitlines())
    assert back == S


@given(BLOBS)
@settings(max_examples=30, deadline=None)
def test_horizontal_perimeter_bounds(args):
    k, size, seed = args
    S = random_blob(k, size, seed)
    h = horizontal_perimeter(S)
    assert 0 < h <= 4 * k * S.size
    if size == 1:
        assert h == 4 * k


@given(BLOBS)
@settings(max_examples=30, deadline=None)
def test_horizontal_perimeter_matches_pairwise_oracle(args):
    S = random_blob(*args)
    assert horizontal_perimeter(S) == horizontal_perimeter_direct(S)


@pytest.mark.parametrize(
    "S",
    [box_set(1, 3, 4, 5), box_set(2, 2, 3, 2), ball_set(1, 4), ball_set(2, 2)],
    ids=["box-k1", "box-k2", "ball-k1", "ball-k2"],
)
def test_horizontal_perimeter_on_boxes_and_balls(S):
    assert horizontal_perimeter(S) == horizontal_perimeter_direct(S)


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=0, max_value=2**64 - 1),
)
@example(1, 2, 44274)  # the first round accepts nothing, so the second grows no rows
@settings(max_examples=60, deadline=None)
def test_random_blob_matches_fifo_oracle(k, size, seed):
    assert set(random_blob(k, size, seed)) == oracle.random_blob(k, size, seed)


def test_key_window_overflow_is_refused():
    far = (2**40, 2**40, 0)
    with pytest.raises(ResourceCapError) as set_err:
        FiniteSet(1, [(0, 0, 0), far])
    # the bidirectional search packs keys over a window holding 1 and far
    with pytest.raises(ResourceCapError) as bfs_err:
        word_distance(1, far, 9)
    assert str(set_err.value) == str(bfs_err.value)
    # the one-sided search packs over the ball's own window, which far leaves
    assert word_distance(1, far, 2) is None
    # a window of 2^62 keys fits; each isolated point exits along every move
    S = FiniteSet(1, [(0, 0, 0), (2**31 - 1, 2**31 - 1, 0)])
    assert horizontal_perimeter(S) == horizontal_perimeter_direct(S) == 8


@given(BLOBS, st.integers(min_value=1, max_value=12))
@settings(max_examples=60, deadline=None)
def test_t_count_two_routes_agree(args, t):
    S = random_blob(*args)
    assert vertical_t_count(S, t) == vertical_t_count_direct(S, t)


@given(BLOBS)
@settings(max_examples=30, deadline=None)
def test_spectrum_head_matches_counts(args):
    S = random_blob(*args)
    spec = vertical_spectrum(S)
    for t in range(1, spec.T0 + 1):
        assert spectrum_count(spec, t) == vertical_t_count_direct(S, t)
    assert spectrum_count(spec, spec.T0 + 1) == 2 * S.size
    assert spectrum_count(spec, spec.T0 + 7) == 2 * S.size


def test_spectrum_at_spans_above_two_to_the_sixteen():
    # a sparse column whose span 70,001 sets T0, and a short column that
    # reaches its plateau early
    column = [(0, 0, w) for w in (0, 1, 3, 40_000, 70_001)]
    S = FiniteSet(1, column + [(1, 0, 0), (1, 0, 5)])
    spec = vertical_spectrum(S)
    assert spec.T0 == 70_001
    for t in range(1, spec.T0 + 2):
        assert spectrum_count(spec, t) == vertical_t_count_direct(S, t)


def test_singleton_closed_form():
    S = column_set(1, 1)
    v, err = vertical_perimeter(S)
    want = 2.0 * math.pi / math.sqrt(6.0)
    assert abs(v - want) <= max(err, 1e-12)


def test_column_spectrum_is_linear():
    S = column_set(1, 10)
    spec = vertical_spectrum(S)
    assert spec.T0 == 9
    assert spec.head.tolist() == [2 * t for t in range(1, 10)]


def test_box_set_size_and_ratio():
    S = box_set(2, 3, 3, 1)
    assert S.size == 81
    ratio = vertical_perimeter(S)[0] / horizontal_perimeter(S)
    # frozen from the first verified run of the exact head-plus-tail route
    assert ratio == pytest.approx(0.57714742357283888, abs=1e-13)


def test_ball_set_matches_word_ball():
    from heislab.cayley import ball

    S = ball_set(1, 3)
    assert S.size == ball(1, 3).size


def test_random_blob_deterministic():
    a = random_blob(2, 75, 99)
    b = random_blob(2, 75, 99)
    assert a == b
    assert a.size == 75


def test_parse_set_spec():
    assert parse_set_spec(1, "box(2,2,2)").size == 8
    assert parse_set_spec(1, "singleton").size == 1
    assert parse_set_spec(1, "column(4)").size == 4
    assert parse_set_spec(1, "ball(2)").size == 17
    assert parse_set_spec(1, "random_blob(30,7)").size == 30
    assert parse_set_spec(1, "random_blob(30)", seed=7) == parse_set_spec(
        1, "random_blob(30,7)"
    )
    with pytest.raises(ValidationError):
        parse_set_spec(1, "random_blob(30)")
    with pytest.raises(ValidationError):
        parse_set_spec(1, "frustum(1)")
    with pytest.raises(ValidationError):
        parse_set_spec(1, "box(1,2)")


def test_default_corpus_shape():
    corpus = default_corpus(1, seed=3)
    assert len(corpus) == 200
    ids = [i for i, _, _ in corpus]
    assert ids == list(range(200))
    specs = {spec for _, spec, _ in corpus}
    assert "column(1)" in specs and "column(1000)" in specs
    blobs = [spec for spec in specs if spec.startswith("random_blob")]
    assert len(blobs) >= 100


def test_embedded_keeps_counts():
    S = random_blob(1, 30, 11)
    E = embedded(S, 2)
    assert E.size == S.size
    assert horizontal_perimeter(E) == horizontal_perimeter(S) + 4 * S.size
    va, _ = vertical_perimeter(S)
    vb, _ = vertical_perimeter(E)
    assert va == pytest.approx(vb)
