"""Dense two-phase revised simplex for small linear programs.

Solves  min c.x  s.t.  A x (<= | >= | =) b,  x >= 0.

Pricing is Dantzig's rule.  The first stall (_STALL pivots without
progress) shifts the right-hand side, b <- b + B.delta for a small fixed
delta > 0, so that every basic value is strictly positive and Dantzig
pivots progress again (Wolfe, 1963).  At the shifted optimum the given b
comes back; reduced costs do not depend on b, so the basis stays dual
feasible, and dual simplex pivots by Bland's rule clear any negative basic
value before a last pricing pass.  Bland's rule is the last resort, for a
second stall, and guarantees termination.  In phase 2 an artificial still
basic at zero blocks every column that would move it.  The basis
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

from .rng import Rng

_TOL_RC = 1e-9
_TOL_RATIO = 1e-10
_STALL = 60
_PERTURB = 1e-7  # rhs shift after a stall, relative to 1 + max |b|
_MAX_ITER = 20000  # pivots of both phases before a solve stops short


@dataclass
class LpResult:
    status: str  # optimal | infeasible | unbounded | iteration_cap | numerical
    x: np.ndarray | None = None
    objective: float | None = None
    duals: np.ndarray | None = None
    iterations: int = 0
    exact: bool = False


class _Tableau:
    def __init__(self, A: np.ndarray, b: np.ndarray, basis: np.ndarray):
        self.A, self.b, self.basis = A, b, basis
        self.m, self.n = A.shape
        self.c = np.zeros(self.n)
        self.iterations = 0

    def run(self, allow, max_iter: int) -> str:
        """Iterate to optimality over the allowed columns."""
        stall, last_obj = 0, np.inf
        b0, shifted = None, False  # b0: the rhs as given, while shifted
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
            if stall > _STALL and not shifted:
                # raise each allowed basic value by its own small amount
                u = Rng(7).uniforms(self.m)
                delta = _PERTURB * (1.0 + np.abs(self.b).max()) * (1.0 + u)
                delta[~allow[self.basis]] = 0.0
                b0, self.b = self.b, self.b + B @ delta
                shifted, stall, last_obj = True, 0, np.inf
                continue
            if stall <= _STALL:
                j = int(np.argmin(red))
                optimal = red[j] >= -_TOL_RC * (1.0 + abs(obj))
            else:
                # Bland: lowest-index improving column, immune to cycling
                neg = np.flatnonzero(red < -_TOL_RC * (1.0 + abs(obj)))
                optimal = len(neg) == 0
                j = int(neg[0]) if len(neg) else -1
            if optimal:
                if b0 is None:
                    return "optimal"
                # reduced costs do not depend on b: restore it, then price again
                self.b, b0 = b0, None
                status = self._dual_cleanup(allow, max_iter)
                if status is not None:
                    return status
                continue
            if not self.pivot_on(j, allow, B, xb):
                return "unbounded"

    def _dual_cleanup(self, allow, max_iter: int) -> str | None:
        """Dual simplex pivots by Bland's rule until no basic value is
        negative and no phase-2 artificial positive; None, or the status to
        stop with.  The entering column keeps every reduced cost >= 0."""
        tol = 1e-9 * (1.0 + np.abs(self.b).max())
        while True:
            B = self.A[:, self.basis]
            xb = np.linalg.solve(B, self.b)
            art = ~allow[self.basis]
            bad = np.flatnonzero((xb < -tol) | (art & (xb > tol)))
            if len(bad) == 0:
                return None
            if self.iterations >= max_iter:
                return "iteration_cap"
            r = int(bad[np.argmin(self.basis[bad])])
            row = np.linalg.solve(B.T, np.eye(self.m)[r]) @ self.A
            g = row if xb[r] > 0 else -row  # raising x_j, g_j > 0, moves x_r back
            y = np.linalg.solve(B.T, self.c[self.basis])
            red = np.maximum(self.c - y @ self.A, 0.0)
            cand = allow & (g > _TOL_RATIO)
            cand[self.basis] = False
            if not np.any(cand):
                return "numerical"
            ratios = np.full(self.n, np.inf)
            ratios[cand] = red[cand] / g[cand]
            j = int(np.flatnonzero(ratios <= np.min(ratios) + _TOL_RATIO)[0])
            self.basis[r] = j
            self.iterations += 1

    def pivot_on(self, j: int, allow, B=None, xb=None) -> bool:
        """One pivot with entering column j; False if no leave exists.  A
        basic column not allowed (a phase-2 artificial) blocks at ratio 0."""
        if B is None:
            B = self.A[:, self.basis]
            xb = np.linalg.solve(B, self.b)
        d = np.linalg.solve(B, self.A[:, j])
        pos = d > _TOL_RATIO
        held = ~allow[self.basis] & (d < -_TOL_RATIO)
        if not np.any(pos | held):
            return False
        ratios = np.full(self.m, np.inf)
        ratios[pos] = xb[pos] / d[pos]
        ratios[held] = 0.0
        rmin = float(np.min(ratios))
        cand = np.flatnonzero(ratios <= rmin + _TOL_RATIO)
        # leaving tie-break by lowest basis column index (Bland-compatible)
        leave = int(cand[np.argmin(self.basis[cand])])
        self.basis[leave] = j
        self.iterations += 1
        return True


def solve_lp(c, A, b, senses, refine: bool = False) -> LpResult:
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    senses = list(senses)
    if len(senses) != m or len(b) != m or len(c) != n:
        raise ValueError("inconsistent LP dimensions")
    for s in senses:
        if s not in ("<=", ">=", "="):
            raise ValueError(f"bad sense {s!r}")

    flip = b < 0  # rows negated so that b >= 0
    A, b = np.where(flip[:, None], -A, A), np.where(flip, -b, b)
    swap = {"<=": ">=", ">=": "<=", "=": "="}
    senses = [swap[s] if f else s for s, f in zip(senses, flip)]
    slack_cols = [(i, 1.0 if s == "<=" else -1.0) for i, s in enumerate(senses) if s != "="]
    art_rows = [i for i, s in enumerate(senses) if s != "<="]

    n_slack = len(slack_cols)
    n_art = len(art_rows)
    N = n + n_slack + n_art
    full = np.zeros((m, N))
    full[:, :n] = A
    basis = np.empty(m, dtype=np.int64)  # <= slacks and artificials
    for j, (i, sgn) in enumerate(slack_cols):
        full[i, n + j] = sgn
        if sgn > 0:
            basis[i] = n + j
    for j, i in enumerate(art_rows):
        full[i, n + n_slack + j] = 1.0
        basis[i] = n + n_slack + j
    tab = _Tableau(full, b, basis)

    allow = np.ones(N, dtype=bool)
    if n_art:
        tab.c[n + n_slack :] = 1.0
        status = tab.run(allow, _MAX_ITER)
        if status != "optimal":
            return LpResult(status, iterations=tab.iterations)
        B = full[:, tab.basis]
        xb = np.linalg.solve(B, b)
        if float(tab.c[tab.basis] @ xb) > 1e-7 * (1.0 + float(np.abs(b).sum())):
            return LpResult("infeasible", iterations=tab.iterations)

    tab.c = np.zeros(N)
    tab.c[:n] = c
    allow[n + n_slack :] = False  # artificials may linger basic at zero
    status = tab.run(allow, _MAX_ITER)
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
            if not tab.pivot_on(int(res[1]), allow):
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
