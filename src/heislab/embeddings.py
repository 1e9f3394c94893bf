"""Finite metric spaces and exact least-distortion L1 embeddings.

A ``MetricSpace`` wraps a validated distance matrix.  ``c1_distortion``
computes the exact minimum L1 distortion by linear programming over the
cut cone: every L1 embedding of an n-point space is a nonnegative
combination of cut semimetrics, so minimizing the expansion bound t
subject to non-contraction over all pairs is an LP whose optimum is the
distortion.  The certificate is a weighted family of cuts plus the dual
multipliers of both constraint groups.

Negative type is certified spectrally: d is of negative type iff the
doubly centered matrix -(1/2) J d J is positive semidefinite, in which
case the centered Gram factorization reconstructs points whose squared
Euclidean distances reproduce d.  A failure is certified by a zero-sum
vector x with x.d.x > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cayley import ball
from .errors import ConvergenceError, ValidationError
from .group import quotient_rows
from .rng import Rng, substream_seeds, uniform_matrix
from .simplex import solve_lp

_C1_MAX_POINTS = 16
_DEMO_MAX_POINTS = 1024  # largest built-in metric; MetricSpace's check is O(n^3)
_TOL = 1e-9  # MetricSpace's symmetry, diagonal and triangle slack, relative
_NEG_TYPE_TOL = 1e-8  # least centered Gram eigenvalue still negative type, relative
_SEARCH_FLOOR = 1.01  # least distortion a search draw must reach
_SEARCH_TRIES = 6000  # draws before a search gives up
_SEARCH_BLOCK = 500  # draws screened at a time; divides _SEARCH_TRIES
_FACET_TOL = 1e-9  # cut-cone facet slack still read as distortion 1, relative
# every facet of the cut cone CUT_n for n = 5, 6 is a hypermetric inequality
# sum_{i<j} b_i b_j d_ij <= 0 with b a permutation of one of these (Deza &
# Laurent, Geometry of Cuts and Metrics, 1997): 40 facets at n = 5, 210 at 6
_FACET_PATTERNS = {
    5: ((1, 1, -1, 0, 0), (1, 1, 1, -1, -1)),
    6: ((1, 1, -1, 0, 0, 0), (1, 1, 1, -1, -1, 0), (2, 1, 1, -1, -1, -1),
        (1, 1, 1, 1, -1, -2)),
}


def upper_triangle_text(*mats: np.ndarray) -> str:
    """First line n, then the upper-triangle rows of each n x n matrix."""
    n = mats[0].shape[0]
    lines = [str(n)]
    for M in mats:
        for i in range(n - 1):
            lines.append(" ".join(f"{v:.17g}" for v in M[i, i + 1 :]))
    return "\n".join(lines) + "\n"


def parse_upper_triangles(text: str, count: int, max_n: int) -> list[np.ndarray]:
    """Inverse of ``upper_triangle_text``: ``count`` symmetric matrices.
    A point count above ``max_n`` is refused before any entry is read."""
    head = text.split(None, 1)
    if not head:
        raise ValidationError("empty matrix file")
    try:
        n = int(head[0])
    except ValueError:
        n = -1
    if n < 0:
        raise ValidationError(f"bad point count {head[0]!r}")
    if n > max_n:
        raise ValidationError(f"this command reads at most {max_n} points from a file, got {n}")
    toks = text.split()
    need = n * (n - 1) // 2
    if len(toks) != 1 + count * need:
        raise ValidationError(
            f"expected {count * need} upper-triangle entries for n={n}, "
            f"got {len(toks) - 1}"
        )
    try:
        vals = np.array([float(t) for t in toks[1:]]).reshape(count, need)
    except ValueError:
        raise ValidationError("non-numeric matrix entry") from None
    return [_symmetric(n, row) for row in vals]


def _symmetric(n: int, row: np.ndarray) -> np.ndarray:
    """The symmetric n x n matrix with zero diagonal whose upper triangle,
    in lexicographic pair order, is ``row``."""
    M = np.zeros((n, n))
    p, q = np.triu_indices(n, 1)
    M[p, q] = M[q, p] = row
    return M


def triangle_slacks(d: np.ndarray) -> np.ndarray:
    """Per point k, max over i, j of d[i, j] - (d[i, k] + d[k, j]); a
    positive entry is a triangle inequality violated through k."""
    return np.array([(d - (d[:, [k]] + d[[k], :])).max() for k in range(len(d))])


class MetricSpace:
    """Validated symmetric distance matrix on points 0..n-1."""

    def __init__(self, d):
        d = np.array(d, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValidationError("distance matrix must be square")
        n = d.shape[0]
        if n == 0:
            raise ValidationError("empty metric space")
        if not np.all(np.isfinite(d)):
            raise ValidationError("distances must be finite")
        scale = max(1.0, float(np.abs(d).max()))
        if np.abs(d - d.T).max() > _TOL * scale:
            raise ValidationError("distance matrix must be symmetric")
        d = (d + d.T) / 2.0
        if np.abs(np.diag(d)).max() > _TOL * scale:
            raise ValidationError("diagonal must be zero")
        np.fill_diagonal(d, 0.0)
        off = d[~np.eye(n, dtype=bool)]
        if n > 1 and off.min() <= 0:
            raise ValidationError("distinct points must be at positive distance")
        bad = np.flatnonzero(triangle_slacks(d) > _TOL * scale)
        if len(bad):
            raise ValidationError(f"triangle inequality fails through point {bad[0]}")
        self.d = d
        self.n = n

    # -- pair bookkeeping: lexicographic (p, q), p < q ------------------

    def pairs(self) -> list[tuple[int, int]]:
        return [(p, q) for p in range(self.n) for q in range(p + 1, self.n)]

    def pair_distances(self) -> np.ndarray:
        iu = np.triu_indices(self.n, 1)
        return self.d[iu]

    # -- serialization: first line n, then upper-triangle rows ----------

    def to_text(self) -> str:
        return upper_triangle_text(self.d)

    @classmethod
    def from_text(cls, text: str, max_n: int) -> "MetricSpace":
        (d,) = parse_upper_triangles(text, 1, max_n)
        return cls(d)

    def restrict(self, indices) -> "MetricSpace":
        idx = np.asarray(indices, dtype=np.int64)
        return MetricSpace(self.d[np.ix_(idx, idx)])

    def subsample_farthest(self, m: int):
        """Greedy farthest-point subsample of m points from point 0; returns
        (indices, space)."""
        if not 1 <= m <= self.n:
            raise ValidationError("subsample size out of range")
        chosen = [0]
        mind = self.d[0].copy()
        while len(chosen) < m:
            mind[chosen] = -1.0
            nxt = int(np.argmax(mind))
            chosen.append(nxt)
            mind = np.minimum(mind, self.d[nxt])
        idx = np.array(sorted(chosen), dtype=np.int64)
        return idx, self.restrict(idx)


# -- constructors --------------------------------------------------------


def path_metric(n: int) -> MetricSpace:
    idx = np.arange(n, dtype=float)
    return MetricSpace(np.abs(idx[:, None] - idx[None, :]))


def cycle_metric(n: int) -> MetricSpace:
    idx = np.arange(n)
    gap = np.abs(idx[:, None] - idx[None, :])
    return MetricSpace(np.minimum(gap, n - gap).astype(float))


def complete_bipartite_metric(a: int, b: int) -> MetricSpace:
    """Shortest-path metric of the complete bipartite graph on a + b points."""
    if min(a, b) < 1:
        raise ValidationError(f"bipartite sides must be >= 1, got {a} and {b}")
    n = a + b
    side = np.array([0] * a + [1] * b)
    d = np.where(side[:, None] != side[None, :], 1.0, 2.0)
    np.fill_diagonal(d, 0.0)
    return MetricSpace(d)


def random_metric(n: int, seed: int) -> MetricSpace:
    """Random metric with entries uniform in [1, 2], so triangles hold."""
    if n < 1:
        raise ValidationError(f"a metric needs at least one point, got {n}")
    return MetricSpace(_symmetric(n, 1.0 + Rng(seed).uniforms(n * (n - 1) // 2)))


def ball_metric(k: int, r: int) -> MetricSpace:
    """Word metric restricted to the radius-r ball, its points in the
    ball's coordinate order.

    Distances come from a single radius-2r table: d(g, h) is the distance
    of g^{-1} h from the identity, and that quotient stays within radius 2r.
    B_r projects onto the l1 ball of radius r in Z^2k, whose point count
    sum_i 2^i C(2k, i) C(r, i) refuses a ball over the cap before its search.
    """
    lower = 0
    for i in range(min(2 * k, r) + 1):
        lower += 2**i * math.comb(2 * k, i) * math.comb(r, i)
        if lower > _DEMO_MAX_POINTS:
            raise ValidationError(
                f"a ball metric has at most {_DEMO_MAX_POINTS} points, got at least {lower}"
            )
    small = ball(k, r)
    if small.size > _DEMO_MAX_POINTS:
        raise ValidationError(
            f"a ball metric has at most {_DEMO_MAX_POINTS} points, got {small.size}"
        )
    big = ball(k, 2 * r)
    pts = small.points.rows
    n = len(pts)
    d = np.zeros((n, n))
    for i in range(n - 1):
        pos = big.points.locate(quotient_rows(k, pts[i], pts[i + 1 :]))
        if pos.min() < 0:
            raise ValidationError("radius-2r table misses a pairwise quotient")
        d[i, i + 1 :] = d[i + 1 :, i] = big.dists[pos]
    return MetricSpace(d)


# -- negative type -------------------------------------------------------


@dataclass
class NegativeTypeReport:
    is_negative_type: bool
    min_eigenvalue: float
    witness: np.ndarray | None
    witness_value: float | None
    reconstruction_error: float | None


def is_negative_type(ms: MetricSpace) -> NegativeTypeReport:
    """Spectral test of negative type with a certificate either way.

    Positive case: the centered Gram matrix factors into points whose
    squared Euclidean distances reproduce d (reconstruction_error small).
    Negative case: witness x has sum(x) = 0 and x.d.x = witness_value > 0.
    """
    n = ms.n
    D = ms.d
    J = np.eye(n) - np.full((n, n), 1.0 / n)
    K = -0.5 * (J @ D @ J)
    K = (K + K.T) / 2.0
    w, V = np.linalg.eigh(K)
    scale = max(1.0, float(np.trace(K)))
    ok = bool(w.min() >= -_NEG_TYPE_TOL * scale)
    if ok:
        X = V * np.sqrt(np.clip(w, 0.0, None))
        sq = np.square(X[:, None, :] - X[None, :, :]).sum(axis=2)
        err = float(np.abs(sq - D).max())
        return NegativeTypeReport(True, float(w.min()), None, None, err)
    v = V[:, int(np.argmin(w))]
    v = v - v.mean()
    v /= np.linalg.norm(v)
    return NegativeTypeReport(False, float(w.min()), v, float(v @ D @ v), None)


# -- cut measures and the distortion LP ----------------------------------


def cut_sides(masks, n: int) -> np.ndarray:
    """(#masks) x n matrix of 0.0/1.0: entry [c, i] is bit i of masks[c]."""
    masks = np.asarray(masks, dtype=np.uint32)
    shifts = np.arange(n, dtype=np.uint32)
    return ((masks[:, None] >> shifts[None, :]) & 1).astype(float)


def cut_pair_matrix(masks, n: int) -> np.ndarray:
    """(#pairs) x (#masks) matrix of 0.0/1.0: does cut c separate pair p < q.

    Pairs come in lexicographic (upper-triangle) order.  The result is in
    C order, since the layout fixes the summation order of products with it.
    """
    B = cut_sides(masks, n)
    p, q = np.triu_indices(n, 1)
    return np.ascontiguousarray((B[:, p] != B[:, q]).T, dtype=float)


@dataclass
class CutMeasure:
    """Weighted cuts on n points; bit i of mask = point i on the S side.

    The last point never appears in S: each cut is stored with its side
    not containing point n-1, which fixes one representative per
    partition.
    """

    n: int
    entries: list[tuple[int, float]] = field(default_factory=list)

    def embedding(self) -> np.ndarray:
        """n x (#cuts) matrix whose L1 row distances realize the cut metric."""
        masks = [mask for mask, _ in self.entries]
        weights = np.array([w for _, w in self.entries])
        # C order: l1_matrix sums along rows, and the layout fixes the order
        return np.ascontiguousarray(cut_sides(masks, self.n).T * weights)

    def l1_matrix(self) -> np.ndarray:
        X = self.embedding()
        return np.abs(X[:, None, :] - X[None, :, :]).sum(axis=2)


@dataclass
class DistortionReport:
    distortion: float
    cuts: CutMeasure
    pairs: list[tuple[int, int]]
    noncontraction_duals: np.ndarray  # mu >= 0, sum(mu * d) = distortion
    expansion_duals: np.ndarray  # nu >= 0, sum(nu * d) = 1
    iterations: int
    exact: bool

    def replay(self, ms: MetricSpace) -> tuple[float, float]:
        """(min, max) of embedded distance over original distance."""
        emb = self.cuts.l1_matrix()
        iu = np.triu_indices(ms.n, 1)
        ratios = emb[iu] / ms.d[iu]
        return float(ratios.min()), float(ratios.max())


def c1_distortion(ms: MetricSpace, refine: bool | None = None) -> DistortionReport:
    """Exact minimum distortion of any L1 embedding, via the cut-cone LP.

    Variables: one weight per cut (sides not containing the last point)
    plus the expansion bound t.  For every pair, the weighted cut metric
    must be >= d (non-contraction) and <= t*d (expansion).  Minimizing t
    yields the distortion together with a realizing cut measure.
    """
    n = ms.n
    if n > _C1_MAX_POINTS:
        raise ValidationError(
            f"distortion LP supports at most {_C1_MAX_POINTS} points, got {n}"
        )
    if n == 1:
        return DistortionReport(
            1.0, CutMeasure(1, []), [], np.zeros(0), np.zeros(0), 0, True
        )
    if refine is None:
        refine = n <= 10

    masks = np.arange(1, 1 << (n - 1), dtype=np.uint32)
    ncuts = len(masks)
    pairs = ms.pairs()
    P = len(pairs)
    dvec = ms.pair_distances()

    delta = cut_pair_matrix(masks, n)

    # columns: cut weights then t
    A = np.zeros((2 * P, ncuts + 1))
    b = np.zeros(2 * P)
    senses = [">="] * P + ["<="] * P
    A[:P, :ncuts] = delta
    b[:P] = dvec
    A[P:, :ncuts] = delta
    A[P:, ncuts] = -dvec
    c = np.zeros(ncuts + 1)
    c[ncuts] = 1.0

    res = solve_lp(c, A, b, senses, refine=refine)
    if res.status != "optimal":
        raise ConvergenceError(f"distortion LP ended with status {res.status}")

    entries = [
        (int(masks[j]), float(res.x[j]))
        for j in range(ncuts)
        if res.x[j] > 1e-12
    ]
    mu = np.maximum(res.duals[:P], 0.0)
    nu = np.maximum(-res.duals[P:], 0.0)
    return DistortionReport(
        float(res.objective),
        CutMeasure(n, entries),
        pairs,
        mu,
        nu,
        res.iterations,
        res.exact,
    )


def _cut_cone_facets(n: int) -> np.ndarray:
    """(facets x pairs) matrix of CUT_n's facets for n in _FACET_PATTERNS:
    row b holds b_i b_j at pair (i, j), with the b in lexicographic order."""
    B = np.indices((5,) * n).reshape(n, -1).T - 2  # every b in {-2..2}^n
    keys = np.sort(B, axis=1)
    keep = np.zeros(len(B), dtype=bool)
    for pattern in _FACET_PATTERNS[n]:
        keep |= (keys == np.sort(pattern)).all(axis=1)
    B = B[keep]
    p, q = np.triu_indices(n, 1)
    return (B[:, p] * B[:, q]).astype(float)


def _in_cut_cone(D: np.ndarray, facets: np.ndarray) -> np.ndarray:
    """Per row of D, the pair distances of one metric: does it meet every
    row of ``facets``, the facet matrix of its cut cone, to within
    _FACET_TOL of its largest distance, so that it embeds in L1 with
    distortion 1?"""
    return (D @ facets.T).max(axis=1) <= _FACET_TOL * D.max(axis=1)


def negative_type_with_distortion(n: int, count: int, seed: int) -> list[MetricSpace]:
    """Random negative-type spaces whose L1 distortion reaches 1.01.

    Draws up to _SEARCH_TRIES metrics with entries in [1, 2] (triangle
    inequalities hold for free), _SEARCH_BLOCK at a time, and keeps in draw
    order those certified to be of negative type whose float distortion LP
    lands at or above the floor.  Deterministic in ``seed``.  Every metric
    on at most 4 points embeds isometrically in L1 (Deza & Laurent, 1997),
    so no draw with n <= 4 can reach the floor.  For n <= 6 the draws of a
    block that meet every facet of the cut cone have distortion 1 and are
    dropped together without an LP; the LP would drop them too.
    """
    if n <= 4:
        raise ValidationError(
            f"a search needs at least 5 points, got {n}: every metric on at "
            "most 4 points embeds isometrically in L1"
        )
    if n > _C1_MAX_POINTS:
        raise ValidationError(
            f"a search supports at most {_C1_MAX_POINTS} points, got {n}"
        )
    facets = _cut_cone_facets(n) if n in _FACET_PATTERNS else None
    out: list[MetricSpace] = []
    for start in range(0, _SEARCH_TRIES, _SEARCH_BLOCK):
        # draw t is random_metric(n, substream seed t of seed)
        seeds = substream_seeds(seed, start, _SEARCH_BLOCK)
        D = 1.0 + uniform_matrix(seeds, n * (n - 1) // 2)
        if facets is not None:
            D = D[~_in_cut_cone(D, facets)]
        for row in D:
            ms = MetricSpace(_symmetric(n, row))
            if not is_negative_type(ms).is_negative_type:
                continue
            if c1_distortion(ms, refine=False).distortion < _SEARCH_FLOOR:
                continue
            out.append(ms)
            if len(out) == count:
                return out
    raise ValidationError(
        f"only {len(out)} of {count} draws met the distortion floor"
    )
