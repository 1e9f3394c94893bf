"""Independent computations that the checks compare heislab's output with.

Nothing here imports heislab.  The group law, the Cayley-graph search,
the boundary counts, the documented generators of seeded inputs and
the linear programs are written out again from their definitions; the
linear programs are solved with scipy's HiGHS, not with heislab's
simplex.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import deque
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog
from scipy.special import polygamma

# -- the rank-k discrete Heisenberg group, elements (x, y, w) as flat tuples --


def mul(k: int, g: tuple, h: tuple) -> tuple:
    """(x, y, w) * (x', y', w') = (x + x', y + y', w + w' + x . y')."""
    dot = sum(g[i] * h[k + i] for i in range(k))
    return tuple(g[i] + h[i] for i in range(2 * k)) + (g[2 * k] + h[2 * k] + dot,)


def inverse(k: int, g: tuple) -> tuple:
    dot = sum(g[i] * g[k + i] for i in range(k))
    return tuple(-v for v in g[: 2 * k]) + (-g[2 * k] + dot,)


def generators(k: int) -> list:
    """a_1, b_1, ..., a_k, b_k, then their inverses in the same order."""
    gens = []
    for sign in (1, -1):
        for i in range(k):
            a = [0] * (2 * k + 1)
            a[i] = sign
            b = [0] * (2 * k + 1)
            b[k + i] = sign
            gens += [tuple(a), tuple(b)]
    return gens


def right_mul_rows(k: int, rows: np.ndarray, h: tuple) -> np.ndarray:
    """The group law applied to every row g of an (m, 2k+1) array: g * h."""
    hv = np.asarray(h, dtype=np.int64)
    out = rows + hv
    out[:, 2 * k] += rows[:, :k] @ hv[k : 2 * k]
    return out


def _pack(k: int, rows: np.ndarray) -> np.ndarray:
    """Injective int64 key of each row, fields of 62 // (2k+1) bits."""
    bits = 62 // (2 * k + 1)
    half = 1 << (bits - 1)
    if rows.size and int(np.abs(rows).max()) >= half:
        raise ValueError("coordinates too large for packed keys")
    key = np.zeros(len(rows), dtype=np.int64)
    for j in range(2 * k + 1):
        key = (key << bits) | (rows[:, j] + half)
    return key


def bfs_distances(k: int, radius: int | None = None, targets=()) -> dict:
    """Word distance from the identity for every element up to ``radius``.

    Breadth-first search of the Cayley graph, one level at a time: the
    next level is every g * s of the frontier that was not seen before.
    With ``targets`` the search continues past ``radius`` until every
    target has been reached.
    """
    gens = generators(k)
    frontier = np.zeros((1, 2 * k + 1), dtype=np.int64)
    seen = _pack(k, frontier)
    levels = [frontier]
    pending = {tuple(t) for t in targets} - {(0,) * (2 * k + 1)}
    r = 0
    while len(frontier) and ((radius is not None and r < radius) or pending):
        r += 1
        nbrs = np.concatenate([right_mul_rows(k, frontier, s) for s in gens])
        keys, first = np.unique(_pack(k, nbrs), return_index=True)
        fresh = ~np.isin(keys, seen, assume_unique=True)
        frontier = nbrs[first[fresh]]
        seen = np.union1d(seen, keys[fresh])
        levels.append(frontier)
        pending -= set(map(tuple, frontier.tolist()))
    return {tuple(row): d for d, lv in enumerate(levels) for row in lv.tolist()}


# -- the seeded generator documented in heislab.rng (splitmix64) ----------------

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix:
    """out(i) = mix(seed + (i + 1) * golden); uniform = (out >> 11) * 2^-53."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self.counter = 0

    def uniform(self) -> float:
        z = _mix64(self.seed + (self.counter + 1) * _GOLDEN)
        self.counter += 1
        return (z >> 11) * 2.0**-53

    def substream_seed(self, i: int) -> int:
        return _mix64(self.seed + ((1 << 62) + i + 1) * _GOLDEN)


# -- finite lattice sets from their spec strings --------------------------------


def random_blob(k: int, size: int, seed: int) -> set:
    """The documented FIFO growth: accept a candidate with probability 0.7."""
    rng = SplitMix(seed)
    gens = generators(k)
    start = (0,) * (2 * k + 1)
    members = {start}
    frontier = deque(mul(k, start, s) for s in gens)
    while len(members) < size:
        cand = frontier.popleft()
        if cand in members:
            continue
        if rng.uniform() < 0.7:
            members.add(cand)
            frontier.extend(nb for nb in (mul(k, cand, s) for s in gens) if nb not in members)
        else:
            frontier.append(cand)
    return members


_SPEC = re.compile(r"^(box|ball|column|random_blob|singleton)(?:\((.*)\))?$")


def set_from_spec(k: int, spec: str) -> np.ndarray:
    """Rows (x, y, w) of the set a spec names; random blobs need their seed."""
    m = _SPEC.match(spec.replace(" ", ""))
    if not m:
        raise ValueError(f"unknown set spec {spec!r}")
    kind = m.group(1)
    a = [int(v) for v in m.group(2).split(",")] if m.group(2) else []
    if kind == "box":
        pts = [xs + ys + (w,)
               for xs in itertools.product(range(a[0]), repeat=k)
               for ys in itertools.product(range(a[1]), repeat=k)
               for w in range(a[2])]
    elif kind == "ball":
        pts = list(bfs_distances(k, a[0]))
    elif kind == "column":
        pts = [(0,) * (2 * k) + (w,) for w in range(a[0])]
    elif kind == "singleton":
        pts = [(0,) * (2 * k + 1)]
    else:
        pts = list(random_blob(k, a[0], a[1]))
    return np.array(sorted(pts), dtype=np.int64).reshape(-1, 2 * k + 1)


# -- boundaries counted pair by pair ------------------------------------------


def horizontal_boundary(k: int, rows: np.ndarray) -> int:
    """|bd_h|: pairs (g, g s) with g inside, g s outside, s a generator."""
    members = _pack(k, rows)
    return sum(int(np.count_nonzero(~np.isin(_pack(k, right_mul_rows(k, rows, s)), members)))
               for s in generators(k))


def vertical_boundaries(k: int, rows: np.ndarray) -> tuple[int, list]:
    """(T0, [|bd_v^t| for t = 1..T0]): pairs (g, g c^(+-t)) leaving the set.

    T0 is the largest w-span of a column; beyond it every member leaves
    in both directions.  Membership of g c^(+-t) is read from a dense
    table indexed by column and w.
    """
    _, col = np.unique(rows[:, : 2 * k], axis=0, return_inverse=True)
    col = col.ravel()
    w = rows[:, 2 * k]
    ncol = int(col.max()) + 1
    wmin = np.full(ncol, np.iinfo(np.int64).max)
    wmax = np.full(ncol, np.iinfo(np.int64).min)
    np.minimum.at(wmin, col, w)
    np.maximum.at(wmax, col, w)
    T0 = int((wmax - wmin).max())
    lo = int(w.min()) - T0
    width = int(w.max()) + T0 - lo + 1
    table = np.zeros(ncol * width, dtype=bool)
    flat = col * width + (w - lo)
    table[flat] = True
    counts = []
    for t in range(1, T0 + 1):
        up = right_mul_rows(k, rows, (0,) * (2 * k) + (t,))[:, 2 * k] - w  # = t
        dn = right_mul_rows(k, rows, (0,) * (2 * k) + (-t,))[:, 2 * k] - w  # = -t
        counts.append(int(np.count_nonzero(~table[flat + up]))
                      + int(np.count_nonzero(~table[flat + dn])))
    return T0, counts


def tail_sq(size: int, T0: int) -> float:
    """sum_{t > T0} (2 size)^2 / t^2, with the trigamma function."""
    return 4.0 * size * size * float(polygamma(1, T0 + 1))


def vertical_perimeter(size: int, T0: int, counts: list) -> float:
    head = sum(Fraction(c * c, t * t) for t, c in enumerate(counts, 1))
    return math.sqrt(float(head) + tail_sq(size, T0))


# -- finite metrics --------------------------------------------------------------


def random_metric(n: int, seed: int) -> np.ndarray:
    rng = SplitMix(seed)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = 1.0 + rng.uniform()
    return d


def cycle_metric(n: int) -> np.ndarray:
    gap = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return np.minimum(gap, n - gap).astype(float)


def path_metric(n: int) -> np.ndarray:
    return np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)


def bipartite_metric(a: int, b: int) -> np.ndarray:
    side = np.array([0] * a + [1] * b)
    d = np.where(side[:, None] != side[None, :], 1.0, 2.0)
    np.fill_diagonal(d, 0.0)
    return d


def ball_metric(k: int, r: int) -> np.ndarray:
    """Word metric on the radius-r ball, points in lexicographic order."""
    pts = sorted(bfs_distances(k, r))
    table = bfs_distances(k, 2 * r)
    n = len(pts)
    d = np.zeros((n, n))
    for i in range(n):
        gi = inverse(k, pts[i])
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = table[mul(k, gi, pts[j])]
    return d


def farthest_subsample(d: np.ndarray, m: int) -> np.ndarray:
    """Greedy farthest-point traversal from point 0, lowest index on ties."""
    chosen = [0]
    mind = d[0].copy()
    while len(chosen) < m:
        mind[chosen] = -1.0
        nxt = int(np.argmax(mind))
        chosen.append(nxt)
        mind = np.minimum(mind, d[nxt])
    idx = np.array(sorted(chosen))
    return d[np.ix_(idx, idx)]


def is_negative_type(d: np.ndarray, tol: float = 1e-8) -> bool:
    """-(1/2) J d J is positive semidefinite (J the centering projection)."""
    n = len(d)
    J = np.eye(n) - 1.0 / n
    K = -0.5 * J @ d @ J
    K = (K + K.T) / 2.0
    return bool(np.linalg.eigvalsh(K).min() >= -tol * max(1.0, float(np.trace(K))))


def cut_matrix(n: int) -> tuple[np.ndarray, list]:
    """delta[pair, cut] = 1 when the cut separates the pair; cuts keep n-1 outside."""
    pairs = list(itertools.combinations(range(n), 2))
    masks = np.arange(1, 1 << (n - 1))
    side = (masks[None, :] >> np.arange(n)[:, None]) & 1  # point x cut
    delta = np.array([side[p] ^ side[q] for p, q in pairs], dtype=float)
    return delta, pairs


def l1_distortion(d: np.ndarray) -> float:
    """min t such that some cut measure w >= 0 has d <= sum w delta <= t d."""
    n = len(d)
    if n < 2:
        return 1.0
    delta, pairs = cut_matrix(n)
    dv = np.array([d[p, q] for p, q in pairs])
    ncut = delta.shape[1]
    c = np.zeros(ncut + 1)
    c[-1] = 1.0
    A = np.vstack([np.hstack([-delta, np.zeros((len(pairs), 1))]),
                   np.hstack([delta, -dv[:, None]])])
    b = np.concatenate([-dv, np.zeros(len(pairs))])
    res = linprog(c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed on the cut-cone LP: {res.message}")
    return float(res.fun)


def search_metric(n: int, seed: int, floor: float = 1.01) -> np.ndarray:
    """First random metric (substream t of seed) of negative type with
    L1 distortion at least ``floor``: the documented ``search:N,SEED``."""
    parent = SplitMix(seed)
    for t in range(6000):
        d = random_metric(n, parent.substream_seed(t))
        if is_negative_type(d) and l1_distortion(d) >= floor:
            return d
    raise RuntimeError("search found no metric")


def demo_metric(demo: str) -> np.ndarray:
    name, _, rest = demo.partition(":")
    a = [int(v) for v in rest.split(",")]
    if name == "random":
        return random_metric(*a)
    if name == "cycle":
        return cycle_metric(*a)
    if name == "path":
        return path_metric(*a)
    if name == "bipartite":
        return bipartite_metric(*a)
    if name == "ball":
        return ball_metric(*a)
    if name == "search":
        return search_metric(*a)
    raise ValueError(f"unknown demo {demo!r}")


# -- sparsest cut -----------------------------------------------------------------


def random_instance(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Capacities (density 0.7) then demands (density 0.5), weights uniform."""
    rng = SplitMix(seed)
    C = np.zeros((n, n))
    D = np.zeros((n, n))
    for M, dens in ((C, 0.7), (D, 0.5)):
        for i in range(n):
            for j in range(i + 1, n):
                if rng.uniform() < dens:
                    M[i, j] = M[j, i] = rng.uniform()
    if D.sum() == 0:
        D[0, 1] = D[1, 0] = 1.0
    return C, D


def sparsest_cut(C: np.ndarray, D: np.ndarray) -> float:
    """min over bipartitions of cut capacity / cut demand, enumerated."""
    n = len(C)
    best = math.inf
    for bits in itertools.product((0, 1), repeat=n - 1):
        side = bits + (0,)
        if not any(side):
            continue
        cap = dem = 0.0
        for p, q in itertools.combinations(range(n), 2):
            if side[p] != side[q]:
                cap += C[p, q]
                dem += D[p, q]
        if dem > 0:
            best = min(best, cap / dem)
    return best


def metric_lp(C: np.ndarray, D: np.ndarray) -> float:
    """min sum C d over semimetrics d with sum D d = 1, every triangle row."""
    n = len(C)
    pairs = list(itertools.combinations(range(n), 2))
    idx = {pq: i for i, pq in enumerate(pairs)}
    key = lambda p, q: idx[(min(p, q), max(p, q))]  # noqa: E731
    rows = []
    for i, j in pairs:
        for k in range(n):
            if k not in (i, j):
                row = np.zeros(len(pairs))
                row[key(i, j)] += 1.0
                row[key(i, k)] -= 1.0
                row[key(j, k)] -= 1.0
                rows.append(row)
    c = np.array([C[p, q] for p, q in pairs])
    a_eq = np.array([[D[p, q] for p, q in pairs]])
    res = linprog(c, A_ub=np.array(rows), b_ub=np.zeros(len(rows)), A_eq=a_eq,
                  b_eq=[1.0], bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed on the metric LP: {res.message}")
    return float(res.fun)


def max_triangle_violation(d: np.ndarray) -> float:
    """max over i, j, k of d[i, j] - d[i, k] - d[k, j] (positive = violated)."""
    n = len(d)
    worst = -math.inf
    for i, j, k in itertools.permutations(range(n), 3):
        worst = max(worst, d[i, j] - d[i, k] - d[k, j])
    return worst
