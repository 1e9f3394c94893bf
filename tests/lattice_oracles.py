"""Independent boundary counts and ball memberships, used as oracles,
with the lattice constructions that only the tests use.

Each count works member by member on coordinate tuples, apart from the
kernel in ``heislab.perimeter`` or ``heislab.poincare`` that it checks;
ball membership is decided one row at a time, apart from the shared
search of ``heislab.cayley``, with word-length bounds on Python ints,
apart from the int64 block bounds of ``heislab.cayley``.  The standard
generators are built as ``DiscreteElement``s, apart from the row action
``generator_step``.
"""

import math
from math import fsum

import numpy as np

from heislab.cayley import word_distance
from heislab.errors import ValidationError
from heislab.group import DiscreteElement
from heislab.perimeter import FiniteSet


def spectrum_count(spec, t: int) -> int:
    """|bd_v^t S| read off a vertical spectrum: its head up to T0, 2|S| beyond."""
    return int(spec.head[t - 1]) if t <= spec.T0 else 2 * spec.size


def _unit(k: int, i: int, sign: int) -> tuple:
    e = [0] * k
    e[i] = sign
    return tuple(e)


def generators(k: int) -> tuple:
    """The 4k standard generators, in the canonical order

    a_1, b_1, ..., a_k, b_k, a_1^-1, b_1^-1, ..., a_k^-1, b_k^-1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    zero = (0,) * k
    gens = []
    for sign in (1, -1):
        for i in range(k):
            gens.append(DiscreteElement(k, _unit(k, i, sign), zero, 0))
            gens.append(DiscreteElement(k, zero, _unit(k, i, sign), 0))
    return tuple(gens)


def element_from_text(text: str) -> DiscreteElement:
    """Inverse of DiscreteElement.to_text."""
    parts = text.strip().split(";")
    if len(parts) != 4:
        raise ValueError(f"malformed element text: {text!r}")
    k = int(parts[0])
    x = tuple(int(v) for v in parts[1].split(",")) if parts[1] else ()
    y = tuple(int(v) for v in parts[2].split(",")) if parts[2] else ()
    return DiscreteElement(k, x, y, int(parts[3]))


def set_from_lines(lines) -> FiniteSet:
    """Inverse of FiniteSet.to_text, given its lines."""
    els = [element_from_text(ln) for ln in lines if ln.strip()]
    if not els:
        raise ValidationError("no elements in input")
    return FiniteSet(els[0].k, [el.coords() for el in els])


def embedded(S: FiniteSet, k_new: int) -> FiniteSet:
    """S inside a higher-rank lattice (new coordinates 0)."""
    if k_new < S.k:
        raise ValidationError("can only embed into larger rank")
    k, r = S.k, S.rows
    pad = np.zeros((S.size, k_new - k), dtype=np.int64)
    rows = np.hstack([r[:, :k], pad, r[:, k : 2 * k], pad, r[:, 2 * k :]])
    return FiniteSet(k_new, rows)


def sublevel_set(phi, u: int) -> FiniteSet:
    """Finite representative of the sublevel set {phi < u}.

    For u <= 0 this is literally {phi < u}; for u > 0 that set is
    co-finite, so the finite complement {phi >= u} is returned instead.
    Both have the same boundary pairs, which is what level
    decompositions consume.
    """
    if not phi.is_integer_valued():
        raise ValidationError("sublevel sets require integer-valued phi")
    rows = phi.S.rows[phi.vals < u if u <= 0 else phi.vals >= u]
    if len(rows) == 0:
        raise ValidationError("level set is empty")
    return FiniteSet(phi.k, rows)


def coset_partition(A, S: FiniteSet) -> dict:
    """Partition S by cosets of the subgroup generated by the generator
    pairs {a_i, b_i : i in A} (1-based indices).

    Two elements share a piece iff their coordinates agree outside A;
    the central direction always lies in the subgroup, so w never enters
    the invariant.  Keys are ((x_j)_{j not in A}, (y_j)_{j not in A}).
    """
    k = S.k
    idx = sorted({int(i) for i in A})
    if not idx or idx[0] < 1 or idx[-1] > k:
        raise ValidationError("A must be a nonempty subset of 1..k")
    outside = [j for j in range(k) if (j + 1) not in idx]
    m = len(outside)
    labels = S.rows[:, outside + [k + j for j in outside]].tolist()
    pieces: dict = {}
    for i, lab in enumerate(labels):
        pieces.setdefault(tuple(lab), []).append(i)
    return {
        (lab[:m], lab[m:]): FiniteSet(k, S.rows[mem]) for lab, mem in pieces.items()
    }


def columns(S: FiniteSet) -> list:
    """Sorted w-values of each column, as slices of the sorted rows."""
    xy = S.rows[:, : 2 * S.k]
    cuts = np.flatnonzero(np.any(xy[1:] != xy[:-1], axis=1)) + 1
    return np.split(S.rows[:, 2 * S.k], cuts)


def vertical_t_count(S, t: int) -> int:
    """|bd_v^t S| by the column-gap formula 2(|S| - #{w in S : w + t in S})."""
    if t < 1:
        raise ValidationError("vertical jump must be >= 1")
    matches = 0
    for ws in columns(S):
        matches += int(np.intersect1d(ws + t, ws, assume_unique=True).size)
    return 2 * (S.size - matches)


def spectrum_by_differences(S: FiniteSet, t_max: int) -> np.ndarray:
    """|bd_v^t S| for t = 1..t_max, from a bincount of every pairwise w
    difference inside each column."""
    pairs = np.zeros(t_max + 1, dtype=np.int64)
    for ws in columns(S):
        d = np.subtract.outer(ws, ws).ravel()
        pairs += np.bincount(d[(d > 0) & (d <= t_max)], minlength=t_max + 1)
    return 2 * (S.size - pairs[1:])


def vertical_t_count_direct(S, t: int) -> int:
    """|bd_v^t S| counted pair by pair over memberships (independent route)."""
    members = set(S)
    k = S.k
    count = 0
    for tup in members:
        up = tup[: 2 * k] + (tup[2 * k] + t,)
        dn = tup[: 2 * k] + (tup[2 * k] - t,)
        if up not in members:
            count += 1
        if dn not in members:
            count += 1
    return count


def horizontal_perimeter_direct(S) -> int:
    """|bd_h S| pair by pair: g in S, s a generator, g * s not in S,
    with the product taken by the group law of DiscreteElement."""
    members = set(S)
    k = S.k
    count = 0
    for t in members:
        g = DiscreteElement(k, t[:k], t[k : 2 * k], t[2 * k])
        for s in generators(k):
            if (g * s).coords() not in members:
                count += 1
    return count


def scalar_central_word_upper_bound(m: int) -> int:
    """Word-length upper bound for c^m on Python ints: the commutator
    rectangle [a_1^u, b_1^q] spells c^(u q) in 2(u + q) letters, with
    u = ceil(sqrt(|m|)), plus a remainder rectangle."""
    m = abs(m)
    if m == 0:
        return 0
    u = math.isqrt(m)
    if u * u < m:
        u += 1
    q, rem = divmod(m, u)
    bound = 2 * (u + q)
    if rem:
        bound += 2 * rem + 2
    return bound


def scalar_word_upper_bound(k: int, row) -> int:
    """Word-length upper bound of one coordinate row on Python ints."""
    x, y, w = row[:k], row[k : 2 * k], row[2 * k]
    dot = sum(a * b for a, b in zip(x, y))
    # a-letters first leaves central residue w - x.y, b-letters first leaves w
    return sum(map(abs, row[: 2 * k])) + min(
        scalar_central_word_upper_bound(w - dot), scalar_central_word_upper_bound(w)
    )


def in_ball_per_row(k: int, rows, r: int) -> np.ndarray:
    """Membership of each row in B_r, one row at a time: a word-length
    upper bound of at most r, else its own word_distance search."""
    out = []
    for h in np.asarray(rows, dtype=np.int64).tolist():
        out.append(scalar_word_upper_bound(k, h) <= r or word_distance(k, h, r) is not None)
    return np.array(out, dtype=bool)


def _l1(v) -> float:
    if isinstance(v, np.ndarray):
        return float(np.abs(v).sum())
    return abs(v)


def vertical_sums_direct(k: int, values: dict):
    """(A, M) of a function given as a dict from coordinate tuples to
    nonzero values (scalars, or vectors measured in l1), column by column:
    A[t - 1] = sum_h |phi(h c^t) - phi(h)| over pairs with h or h c^t in
    the support, for t = 1..T0 (the largest column span), and the
    beyond-span constant M = 2 sum |phi|."""
    cols: dict = {}
    for t, v in values.items():
        cols.setdefault(t[: 2 * k], {})[t[2 * k]] = v
    zero = 0 * next(iter(values.values()))
    T0 = max(max(ws) - min(ws) for ws in cols.values())
    A = [0.0] * (T0 + 1)  # index by t, A[0] unused
    for ws in cols.values():
        keys = set(ws)
        lo, hi = min(keys), max(keys)
        for t in range(1, min(T0, hi - lo) + 1):
            s = 0.0
            for w in keys:
                s += _l1(ws.get(w + t, zero) - ws[w])
                if w - t not in keys:
                    s += _l1(ws[w])
            A[t] += s
        col_mass = 2.0 * fsum(_l1(v) for v in ws.values())
        for t in range(hi - lo + 1, T0 + 1):
            A[t] += col_mass
    M = 2.0 * fsum(_l1(v) for v in values.values())
    return A[1:], M
