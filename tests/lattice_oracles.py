"""Independent boundary counts and ball memberships, used as oracles.

Each count works member by member on coordinate tuples, apart from the
kernel in ``heislab.perimeter`` or ``heislab.poincare`` that it checks;
ball membership is decided one row at a time, apart from the shared
search of ``heislab.cayley``.
"""

from math import fsum

import numpy as np

from heislab.cayley import word_distance, word_upper_bound
from heislab.errors import ValidationError
from heislab.group import DiscreteElement, generators
from heislab.perimeter import element_from_row


def vertical_t_count(S, t: int) -> int:
    """|bd_v^t S| by the column-gap formula 2(|S| - #{w in S : w + t in S})."""
    if t < 1:
        raise ValidationError("vertical jump must be >= 1")
    matches = 0
    for ws in S.columns():
        matches += int(np.intersect1d(ws + t, ws, assume_unique=True).size)
    return 2 * (S.size - matches)


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


def in_ball_per_row(k: int, rows, r: int) -> np.ndarray:
    """Membership of each row in B_r, one row at a time: a word-length
    upper bound of at most r, else its own word_distance search."""
    out = []
    for h in np.asarray(rows, dtype=np.int64).tolist():
        el = element_from_row(k, h)
        out.append(word_upper_bound(el) <= r or word_distance(el, r) is not None)
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
