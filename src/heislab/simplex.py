"""Dense two-phase revised simplex for small linear programs.

Solves  min c.x  s.t.  A x (<= | >= | =) b,  x >= 0.

Pricing is Dantzig by default and falls back to Bland's rule after a
stall, which guarantees termination on degenerate problems.  The basis
system is re-solved each iteration (problems here are small), pricing is
vectorized over all columns.  Duals follow the convention of the
minimization form: >= rows get nonnegative multipliers, <= rows
nonpositive ones, and c.x* = y.b at optimality.

``refine=True`` certifies the final basis over the input's floats taken
exactly, as the binary rationals they are: the basic solution, objective
and duals come from fraction-free integer elimination, and optimality is
checked exactly for every reduced cost a float error bound cannot clear;
if one is exactly negative the float loop resumes from that column.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

_TOL_RC = 1e-9
_TOL_RATIO = 1e-10
_STALL = 60


@dataclass
class LpResult:
    status: str  # optimal | infeasible | unbounded | iteration_cap
    x: np.ndarray | None = None
    objective: float | None = None
    duals: np.ndarray | None = None
    iterations: int = 0
    exact: bool = False


class _Tableau:
    def __init__(self, A: np.ndarray, b: np.ndarray, c: np.ndarray, n_struct: int):
        self.A = A
        self.b = b
        self.c = c
        self.n_struct = n_struct  # structural + slack columns; artificials after
        self.m, self.n = A.shape
        self.basis = None
        self.iterations = 0

    def run(self, allow, max_iter: int) -> str:
        """Iterate to optimality over the allowed columns."""
        stall = 0
        last_obj = np.inf
        while True:
            if self.iterations >= max_iter:
                return "iteration_cap"
            B = self.A[:, self.basis]
            xb = np.linalg.solve(B, self.b)
            y = np.linalg.solve(B.T, self.c[self.basis])
            red = self.c - y @ self.A
            red[~allow] = np.inf
            red[self.basis] = np.inf
            obj = float(self.c[self.basis] @ xb)
            stall = stall + 1 if obj >= last_obj - 1e-13 * (1 + abs(obj)) else 0
            last_obj = min(last_obj, obj)
            if stall <= _STALL:
                j = int(np.argmin(red))
                if red[j] >= -_TOL_RC * (1.0 + abs(obj)):
                    return "optimal"
            else:
                # Bland: lowest-index improving column, immune to cycling
                neg = np.flatnonzero(red < -_TOL_RC * (1.0 + abs(obj)))
                if len(neg) == 0:
                    return "optimal"
                j = int(neg[0])
            if not self.pivot_on(j, B, xb):
                return "unbounded"

    def pivot_on(self, j: int, B=None, xb=None) -> bool:
        """One pivot with entering column j; False if no leave exists."""
        if B is None:
            B = self.A[:, self.basis]
            xb = np.linalg.solve(B, self.b)
        d = np.linalg.solve(B, self.A[:, j])
        pos = d > _TOL_RATIO
        if not np.any(pos):
            return False
        ratios = np.full(self.m, np.inf)
        ratios[pos] = xb[pos] / d[pos]
        rmin = float(np.min(ratios))
        cand = np.flatnonzero(ratios <= rmin + _TOL_RATIO)
        # leaving tie-break by lowest basis column index (Bland-compatible)
        leave = int(cand[np.argmin(self.basis[cand])])
        self.basis[leave] = j
        self.iterations += 1
        return True


def solve_lp(
    c,
    A,
    b,
    senses,
    max_iter: int = 20000,
    refine: bool = False,
) -> LpResult:
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    senses = list(senses)
    if len(senses) != m or len(b) != m or len(c) != n:
        raise ValueError("inconsistent LP dimensions")

    A = A.copy()
    flip = np.zeros(m, dtype=bool)
    for i in range(m):
        if b[i] < 0:
            A[i] *= -1.0
            b[i] *= -1.0
            flip[i] = True
            senses[i] = {"<=": ">=", ">=": "<=", "=": "="}[senses[i]]

    slack_cols = []
    art_rows = []
    for i, s in enumerate(senses):
        if s == "<=":
            slack_cols.append((i, 1.0))
        elif s == ">=":
            slack_cols.append((i, -1.0))
            art_rows.append(i)
        elif s == "=":
            art_rows.append(i)
        else:
            raise ValueError(f"bad sense {s!r}")

    n_slack = len(slack_cols)
    n_art = len(art_rows)
    N = n + n_slack + n_art
    full = np.zeros((m, N))
    full[:, :n] = A
    for j, (i, sgn) in enumerate(slack_cols):
        full[i, n + j] = sgn
    for j, i in enumerate(art_rows):
        full[i, n + n_slack + j] = 1.0

    tab = _Tableau(full, b, np.zeros(N), n + n_slack)
    basis = np.empty(m, dtype=np.int64)
    art_of_row = {i: n + n_slack + j for j, i in enumerate(art_rows)}
    for j, (i, sgn) in enumerate(slack_cols):
        if sgn > 0:
            basis[i] = n + j
    for i in range(m):
        if i in art_of_row:
            basis[i] = art_of_row[i]
    tab.basis = basis

    if n_art:
        tab.c = np.zeros(N)
        tab.c[n + n_slack :] = 1.0
        allow = np.ones(N, dtype=bool)
        status = tab.run(allow, max_iter)
        if status != "optimal":
            return LpResult(status, iterations=tab.iterations)
        B = full[:, tab.basis]
        xb = np.linalg.solve(B, b)
        if float(tab.c[tab.basis] @ xb) > 1e-7 * (1.0 + float(np.abs(b).sum())):
            return LpResult("infeasible", iterations=tab.iterations)

    tab.c = np.zeros(N)
    tab.c[:n] = c
    allow = np.ones(N, dtype=bool)
    allow[n + n_slack :] = False  # artificials may linger basic at zero
    status = tab.run(allow, max_iter)
    if status != "optimal":
        return LpResult(status, iterations=tab.iterations)

    if refine:
        for _ in range(40):
            res = _exact_from_basis(full, b, tab.c, tab.basis, n, flip, allow)
            if res is None or res[0] == "degenerate":
                break  # keep the float answer
            if res[0] == "ok":
                _, x_ex, obj_ex, y_ex = res
                x = np.array([float(v) for v in x_ex[:n]])
                duals = np.array([float(v) for v in y_ex])
                return LpResult(
                    "optimal", x, float(obj_ex), duals, tab.iterations, exact=True
                )
            # an exactly-improving column slipped past float pricing: pivot on it
            if not tab.pivot_on(int(res[1])):
                break

    B = full[:, tab.basis]
    xb = np.linalg.solve(B, b)
    x_full = np.zeros(N)
    x_full[tab.basis] = xb
    y = np.linalg.solve(B.T, tab.c[tab.basis])
    y = np.where(flip, -y, y)
    return LpResult(
        "optimal",
        x_full[:n],
        float(c @ x_full[:n]),
        y,
        tab.iterations,
    )


def _dyadic(values):
    """Integers a and a shift s with values == a / 2**s exactly: every float
    is a binary rational p / 2**e."""
    ratios = [float(v).as_integer_ratio() for v in values]
    s = max(q.bit_length() for _, q in ratios) - 1
    return [p << (s + 1 - q.bit_length()) for p, q in ratios], s


def _exact_from_basis(full, b, cost, basis, n, flip, allow):
    """Exact solve of the basis system plus exact optimality check, on the
    floats of the input taken as the binary rationals they are.

    Each basic column, with its cost, is scaled by a power of two to
    integers, so B' = B D and c' = D c_B; then B' x' = 2**sb b gives
    x_B = D x' / 2**sb and B'^T y = c' gives y itself.  Reduced costs are
    screened in float; only columns the forward error bound does not clear
    are checked exactly.  Returns ("ok", x_full, objective, duals) when the
    basis is exactly optimal, ("enter", j) for the lowest-index column with
    an exactly negative reduced cost, ("degenerate", None) when the basic
    solution is exactly infeasible, or None when the basis matrix is singular.
    """
    m = len(b)
    cols = [_dyadic(full[:, j].tolist() + [cost[j]]) for j in basis]
    bb, sb = _dyadic(b.tolist())
    xs = _int_solve([list(r) for r in zip(*(a[:m] for a, _ in cols))], bb)
    if xs is None:
        return None
    if any(v < 0 for v in xs):
        return ("degenerate", None)
    yT = _int_solve([a[:m] for a, _ in cols], [a[m] for a, _ in cols])
    if yT is None:
        return None
    x_full = [Fraction(0)] * full.shape[1]
    for v, j, (_, s) in zip(xs, basis, cols):
        x_full[j] = v * Fraction(1 << s, 1 << sb)
    obj = sum(Fraction(cost[j]) * x_full[j] for j in basis if j < n)
    # |fl(red) - red| <= (m+1) u (|c| + |y||A|) for u = 2^-53, plus u |y||A| from
    # rounding y; tiny covers underflow, and a non-finite bound clears nothing
    yf = np.array([float(v) for v in yT])
    red = cost - yf @ full
    bound = (m + 2) * 2.0**-52 * (np.abs(cost) + np.abs(yf) @ np.abs(full))
    clear = (red >= bound + np.finfo(float).tiny) & np.isfinite(bound)
    clear[basis] = True
    den = lcm(*(v.denominator for v in yT))
    supp = [i for i, v in enumerate(yT) if v]
    Y = [yT[i].numerator * (den // yT[i].denominator) for i in supp]
    for j in np.flatnonzero(allow & ~clear):
        a, _ = _dyadic(full[supp, j].tolist() + [cost[j]])
        if a[-1] * den < sum(yi * ai for yi, ai in zip(Y, a)):
            return ("enter", int(j))
    duals = [(-y if f else y) for y, f in zip(yT, flip)]
    return ("ok", x_full, obj, duals)


def _int_solve(rows, rhs):
    """Solve rows . x = rhs for integer rows by fraction-free Gauss-Jordan
    elimination, dividing each updated row by the gcd of its entries; rows
    with a zero in the pivot column are skipped.  None if singular."""
    m = len(rhs)
    aug = [r + [v] for r, v in zip(rows, rhs)]
    free = list(range(m))
    pivots = []
    for k in range(m):
        live = [i for i in free if aug[i][k]]
        if not live:
            return None
        r = min(live, key=lambda i: len(aug[i]) - aug[i].count(0))  # sparsest
        free.remove(r)
        pivots.append(r)
        prow = aug[r]
        p = prow[k]
        for i in range(m):
            f = aug[i][k]
            if f and i != r:
                row = [p * a - f * c for a, c in zip(aug[i], prow)]
                g = gcd(*row)
                aug[i] = [a // g for a in row] if g > 1 else row
    return [Fraction(aug[r][m], aug[r][k]) for k, r in enumerate(pivots)]
