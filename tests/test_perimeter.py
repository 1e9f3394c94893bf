import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heislab.cayley import word_distance
from heislab.errors import ResourceCapError, ValidationError
from heislab.perimeter import (
    _BITSET_RATIO,
    _CHUNK_PAIRS,
    ColumnRuns,
    FiniteSet,
    KeyWindow,
    ball_set,
    box_set,
    column_set,
    default_corpus,
    generator_step,
    horizontal_perimeter,
    parse_set_spec,
    random_blob,
    vertical_perimeter,
    vertical_spectrum,
)
from lattice_oracles import (
    columns,
    embedded,
    horizontal_perimeter_direct,
    set_from_lines,
    spectrum_by_differences,
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
    # the window of B_(2^16) has more than 2^63 keys, and the search refuses it
    with pytest.raises(ResourceCapError) as bfs_err:
        word_distance(1, (1, 0, 0), 2**16)
    assert str(set_err.value) == str(bfs_err.value)
    # far lies outside the window of B_9 and B_2, so its distance exceeds both
    assert word_distance(1, far, 9) is None
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


def test_tall_column_spectrum_is_linear():
    spec = vertical_spectrum(column_set(1, 200_000))
    assert spec.T0 == 199_999
    assert np.array_equal(spec.head, 2 * np.arange(1, 200_000))


SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
# (height, density, seed) of one random column: few runs, or many runs in
# a short span, so that each side of the route rule is drawn
RUNS_COLUMN = st.tuples(
    st.integers(1, 2000), st.one_of(st.floats(0, 0.01), st.floats(0.99, 1)), SEEDS
)
BITSET_COLUMN = st.tuples(st.integers(400, 2000), st.floats(0.2, 0.8), SEEDS)
ANY_COLUMN = st.tuples(st.integers(1, 2000), st.floats(0, 1), SEEDS)
COLUMNS = {
    "runs": st.lists(RUNS_COLUMN, min_size=1, max_size=4),
    "bitset": st.lists(BITSET_COLUMN, min_size=1, max_size=3),
    "both": st.tuples(RUNS_COLUMN, BITSET_COLUMN, st.lists(ANY_COLUMN, max_size=2)).map(
        lambda c: [c[0], c[1], *c[2]]
    ),
}


def _column_set(k: int, draws) -> FiniteSet:
    """One random column per (height, density, seed), side by side in x_1
    and y_k, each with at least its lowest point."""
    blocks = []
    for c, (height, density, seed) in enumerate(draws):
        ws = np.flatnonzero(np.random.default_rng(seed).random(height) < density)
        block = np.zeros((max(len(ws), 1), 2 * k + 1), dtype=np.int64)
        block[:, 0], block[:, 2 * k - 1] = c // 2, c % 2
        block[: len(ws), 2 * k] = ws
        blocks.append(block)
    return FiniteSet(k, np.concatenate(blocks))


def _bitset_columns(S: FiniteSet) -> np.ndarray:
    runs = ColumnRuns(S)
    R = np.diff(runs.bounds)
    return R * (R - 1) / 2 > _BITSET_RATIO * (runs.spans + 1.0)


@pytest.mark.parametrize("route", sorted(COLUMNS))
@given(data=st.data(), k=st.integers(1, 3))
@settings(max_examples=15, deadline=None)
def test_spectrum_matches_pairwise_differences(route, data, k):
    S = _column_set(k, data.draw(COLUMNS[route]))
    bitset = _bitset_columns(S)
    assert {"runs": not bitset.any(), "bitset": bitset.all(),
            "both": bitset.any() and not bitset.all()}[route]
    spec = vertical_spectrum(S)
    want = spectrum_by_differences(S, spec.T0 + 1)
    assert spec.T0 == max(int(ws[-1] - ws[0]) for ws in columns(S))
    assert [spectrum_count(spec, t) for t in range(1, spec.T0 + 2)] == want.tolist()


@pytest.mark.parametrize("k,a,b", [(1, 1, 1), (1, 3, 2), (2, 2, 3), (3, 2, 2)])
def test_spectrum_of_flat_boxes(k, a, b):
    # every column is one point, so T0 = 0 and the head is empty
    S = box_set(k, a, b, 1)
    spec = vertical_spectrum(S)
    assert spec.T0 == 0 and spec.head.size == 0
    assert spectrum_count(spec, 1) == spectrum_by_differences(S, 1)[0] == 2 * S.size


def test_cross_run_pairs_in_chunks_stay_bounded():
    # 40 columns of 300 points at square w: each holds 44,850 cross-run
    # pairs, too few for the bitset route, and all hold about 7 chunks
    rows = np.zeros((40 * 300, 3), dtype=np.int64)
    rows[:, 0] = np.repeat(np.arange(40), 300)
    rows[:, 2] = np.tile(np.arange(300) ** 2, 40)
    S = FiniteSet(1, rows)
    assert not _bitset_columns(S).any() and 40 * 300 * 299 // 2 > 6 * _CHUNK_PAIRS
    tracemalloc.start()
    try:
        spec = vertical_spectrum(S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 << 20  # all pairs at once would take over 150 MiB
    assert np.array_equal(spec.head, spectrum_by_differences(S, spec.T0))


def _face_rows(window: KeyWindow, seed: int) -> np.ndarray:
    """Rows inside the window with every coordinate in turn on its lower and
    its upper face, the others uniform, plus both corners."""
    rng = np.random.default_rng(seed)
    lows, highs = window.lows, window.highs
    rows = [lows, highs]
    for c in range(len(lows)):
        for bound in (lows[c], highs[c]):
            block = rng.integers(lows, highs + 1, size=(20, len(lows)))
            block[:, c] = bound
            rows.append(block)
    return np.vstack(rows)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_key_window_step_matches_generator_step(k):
    rng = np.random.default_rng(k)
    for trial in range(5):
        lows = rng.integers(-6, 3, size=2 * k + 1)
        window = KeyWindow(lows, lows + rng.integers(1, 5, size=2 * k + 1))
        rows = _face_rows(window, trial)
        for j in range(2 * k):
            stepped = generator_step(k, rows, j)
            inside = window.contains(stepped)
            assert not inside.all()  # the upper face of the moved coordinate leaves
            moved = window.step(rows, window.pack(rows), j)
            assert np.array_equal(moved, window.pack(stepped[inside]))


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
