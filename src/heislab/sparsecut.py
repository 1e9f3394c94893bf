"""Non-uniform sparsest cut: exact optimum, LP and SDP relaxations.

An ``Instance`` holds symmetric capacity and demand matrices.  The
optimum ratio min_S cap(S, S^c) / dem(S, S^c) is computed by vectorized
enumeration of cut sides.  Two relaxations bracket it from below:

* ``lp_relaxation`` minimizes the capacity functional over all metrics
  normalized to unit demand, adding violated triangle rows lazily.
* ``gl_sdp`` restricts further to metrics of negative type, parametrized
  by a centered Gram matrix K with squared distances K_pp + K_qq - 2K_pq.
  The cone program is solved by a two-block ADMM: an affine projection
  (normalization, centering, triangle rows with slacks; KKT system
  factored once) alternating with projection onto PSD x nonnegative
  orthant, with over-relaxation and residual balancing.

``duality_harness`` turns an optimal embedding LP certificate for a
negative-type space into an instance whose sparsest-cut optimum provably
exceeds the SDP bound by the space's L1 distortion: capacities pay the
expansion multipliers, demands pay the non-contraction multipliers, and
the space's own metric is an SDP-feasible point of value one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embeddings import (
    DistortionReport,
    MetricSpace,
    c1_distortion,
    is_negative_type,
)
from .errors import ConvergenceError, ValidationError
from .rng import Rng
from .simplex import solve_lp

_OPT_MAX_POINTS = 24


def _check_weight_matrix(M, n: int, name: str) -> np.ndarray:
    M = np.array(M, dtype=float)
    if M.shape != (n, n):
        raise ValidationError(f"{name} must be {n}x{n}")
    if not np.all(np.isfinite(M)):
        raise ValidationError(f"{name} must be finite")
    if np.abs(M - M.T).max() > 1e-12 * max(1.0, np.abs(M).max()):
        raise ValidationError(f"{name} must be symmetric")
    M = (M + M.T) / 2.0
    if M.min() < 0:
        raise ValidationError(f"{name} must be nonnegative")
    if np.abs(np.diag(M)).max() > 0:
        raise ValidationError(f"{name} must have zero diagonal")
    return M


class Instance:
    """Capacities C and demands D on point pairs of {0..n-1}."""

    def __init__(self, C, D):
        C = np.asarray(C, dtype=float)
        n = C.shape[0] if C.ndim == 2 else 0
        if n < 2:
            raise ValidationError("instance needs at least two points")
        self.C = _check_weight_matrix(C, n, "capacity matrix")
        self.D = _check_weight_matrix(D, n, "demand matrix")
        if self.D.sum() <= 0:
            raise ValidationError("total demand must be positive")
        self.n = n

    def to_text(self) -> str:
        lines = [str(self.n)]
        for M in (self.C, self.D):
            for i in range(self.n - 1):
                lines.append(" ".join(f"{v:.17g}" for v in M[i, i + 1 :]))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Instance":
        toks = text.split()
        if not toks:
            raise ValidationError("empty instance file")
        try:
            n = int(toks[0])
        except ValueError:
            raise ValidationError(f"bad point count {toks[0]!r}") from None
        need = n * (n - 1) // 2
        if len(toks) != 1 + 2 * need:
            raise ValidationError(
                f"expected {2 * need} weight entries for n={n}, got {len(toks) - 1}"
            )
        mats = []
        pos = 1
        for _ in range(2):
            M = np.zeros((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    try:
                        v = float(toks[pos])
                    except ValueError:
                        raise ValidationError("non-numeric weight entry") from None
                    M[i, j] = M[j, i] = v
                    pos += 1
            mats.append(M)
        return cls(mats[0], mats[1])

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_text())

    @classmethod
    def load(cls, path) -> "Instance":
        with open(path) as fh:
            return cls.from_text(fh.read())


def random_instance(
    n: int, seed: int, cap_density: float = 0.7, dem_density: float = 0.5
) -> Instance:
    """Random instance; entry present with the given density, weight in (0,1)."""
    rng = Rng(seed)
    C = np.zeros((n, n))
    D = np.zeros((n, n))
    for M, dens in ((C, cap_density), (D, dem_density)):
        for i in range(n):
            for j in range(i + 1, n):
                if rng.uniform() < dens:
                    M[i, j] = M[j, i] = rng.uniform()
    if D.sum() == 0:
        D[0, 1] = D[1, 0] = 1.0
    return Instance(C, D)


# -- exact optimum ---------------------------------------------------------


@dataclass
class OptResult:
    value: float
    mask: int  # side not containing point n-1, bit i = point i
    cut_capacity: float
    cut_demand: float


def opt_bruteforce(inst: Instance, chunk: int = 1 << 18) -> OptResult:
    """Minimum cut ratio over all 2^(n-1) - 1 proper sides."""
    n = inst.n
    if n > _OPT_MAX_POINTS:
        raise ValidationError(
            f"exhaustive optimum supports at most {_OPT_MAX_POINTS} points"
        )
    best = np.inf
    best_mask = 0
    best_cap = best_dem = 0.0
    total = (1 << (n - 1)) - 1
    shifts = np.arange(n, dtype=np.uint32)
    for start in range(1, total + 1, chunk):
        masks = np.arange(start, min(start + chunk, total + 1), dtype=np.uint32)
        B = ((masks[:, None] >> shifts[None, :]) & 1).astype(float)
        cap = ((B @ inst.C) * (1.0 - B)).sum(axis=1)
        dem = ((B @ inst.D) * (1.0 - B)).sum(axis=1)
        ok = dem > 0
        if not np.any(ok):
            continue
        ratios = np.where(ok, cap / np.where(ok, dem, 1.0), np.inf)
        j = int(np.argmin(ratios))
        if ratios[j] < best:
            best = float(ratios[j])
            best_mask = int(masks[j])
            best_cap = float(cap[j])
            best_dem = float(dem[j])
    if not np.isfinite(best):
        raise ValidationError("no cut separates any demand pair")
    return OptResult(best, best_mask, best_cap, best_dem)


# -- LP relaxation over the metric cone ------------------------------------


@dataclass
class LpRelaxResult:
    value: float
    metric: np.ndarray  # realizing distance matrix, unit total demand
    iterations: int
    triangle_rows: int


def _pair_index(n: int) -> dict[tuple[int, int], int]:
    idx = {}
    c = 0
    for p in range(n):
        for q in range(p + 1, n):
            idx[(p, q)] = c
            c += 1
    return idx


def lp_relaxation(inst: Instance, tol: float = 1e-9) -> LpRelaxResult:
    """min <C, d> over metrics d with <D, d> = 1, by lazy triangle rows."""
    n = inst.n
    idx = _pair_index(n)
    P = len(idx)
    iu = np.triu_indices(n, 1)
    cvec = inst.C[iu]
    dvec = inst.D[iu]

    triples = [
        (i, j, k)
        for k in range(n)
        for i in range(n)
        for j in range(i + 1, n)
        if i != k and j != k
    ]

    def triple_row(t):
        i, j, k = t
        row = np.zeros(P)
        row[idx[(i, j)]] = 1.0
        row[idx[(min(i, k), max(i, k))]] = -1.0
        row[idx[(min(j, k), max(j, k))]] = -1.0
        return row

    rows = [dvec]
    rhs = [1.0]
    senses = ["="]
    active: list[tuple[int, int, int]] = []
    iters = 0
    for _ in range(len(triples) + 2):
        res = solve_lp(cvec, np.array(rows), np.array(rhs), senses)
        if res.status != "optimal":
            raise ConvergenceError(f"relaxation LP ended with status {res.status}")
        iters += res.iterations
        x = res.x
        scale = max(1.0, float(np.abs(x).max()))
        violated = []
        for t in triples:
            if t in active:
                continue
            i, j, k = t
            v = (
                x[idx[(i, j)]]
                - x[idx[(min(i, k), max(i, k))]]
                - x[idx[(min(j, k), max(j, k))]]
            )
            if v > tol * scale:
                violated.append((v, t))
        if not violated:
            d = np.zeros((n, n))
            d[iu] = x
            return LpRelaxResult(float(res.objective), d + d.T, iters, len(active))
        violated.sort(reverse=True)
        for _, t in violated:
            rows.append(triple_row(t))
            rhs.append(0.0)
            senses.append("<=")
            active.append(t)
    raise ConvergenceError("triangle row generation failed to close")


# -- negative-type SDP relaxation by two-block ADMM --------------------------


@dataclass
class SdpResult:
    value: float
    gram: np.ndarray
    metric: np.ndarray  # squared-distance matrix of the polished point
    iterations: int
    converged: bool
    residuals: dict = field(default_factory=dict)


def _laplacian(W: np.ndarray) -> np.ndarray:
    return np.diag(W.sum(axis=1)) - W


def _triangle_operators(n: int):
    """Symmetric matrices T with <T, K> = 2(K_ik + K_jk - K_ij - K_kk)."""
    ops = []
    for k in range(n):
        for i in range(n):
            for j in range(i + 1, n):
                if i == k or j == k:
                    continue
                T = np.zeros((n, n))
                T[i, k] += 1.0
                T[k, i] += 1.0
                T[j, k] += 1.0
                T[k, j] += 1.0
                T[i, j] -= 1.0
                T[j, i] -= 1.0
                T[k, k] -= 2.0
                ops.append(T)
    return ops


def gl_sdp(
    inst: Instance,
    rho: float = 1.0,
    alpha: float = 1.6,
    max_iter: int = 20000,
    abstol: float = 1e-9,
    reltol: float = 1e-8,
) -> SdpResult:
    """Negative-type relaxation: min <C, d> over d = squared distances of a
    centered Gram matrix, unit total demand, triangle inequalities kept."""
    n = inst.n
    LC = _laplacian(inst.C)
    LD = _laplacian(inst.D)
    tris = _triangle_operators(n)
    R = len(tris)
    nk = n * n
    dim = nk + R

    # affine rows: normalization, centering, triangle + slack
    m_rows = 1 + n + R
    E = np.zeros((m_rows, dim))
    e = np.zeros(m_rows)
    E[0, :nk] = LD.ravel()
    e[0] = 1.0
    for i in range(n):
        S = np.zeros((n, n))
        S[i, :] += 0.5
        S[:, i] += 0.5
        E[1 + i, :nk] = S.ravel()
    for r, T in enumerate(tris):
        E[1 + n + r, :nk] = T.ravel()
        E[1 + n + r, nk + r] = 1.0

    M = E @ E.T
    M[np.diag_indices_from(M)] += 1e-12
    Minv = np.linalg.inv(M)
    cobj = np.zeros(dim)
    cobj[:nk] = LC.ravel()

    def affine_project(v, rho_now):
        mu = Minv @ (E @ (v - cobj / rho_now) - e)
        return v - cobj / rho_now - E.T @ mu

    # start at the scaled equilateral configuration; it satisfies everything
    c0 = 1.0 / (2.0 * inst.D[np.triu_indices(n, 1)].sum())
    K0 = c0 * (np.eye(n) - np.full((n, n), 1.0 / n))
    z = np.zeros(dim)
    z[:nk] = K0.ravel()
    for r, T in enumerate(tris):
        z[nk + r] = -float((T * K0).sum())
    u = np.zeros(dim)

    converged = False
    it = 0
    x = z.copy()
    for it in range(1, max_iter + 1):
        x = affine_project(z - u, rho)
        xhat = alpha * x + (1.0 - alpha) * z
        z_old = z
        w = xhat + u
        Kw = w[:nk].reshape(n, n)
        Kw = (Kw + Kw.T) / 2.0
        ev, V = np.linalg.eigh(Kw)
        Kp = (V * np.clip(ev, 0.0, None)) @ V.T
        z = np.empty(dim)
        z[:nk] = Kp.ravel()
        z[nk:] = np.clip(w[nk:], 0.0, None)
        u = u + xhat - z

        if it % 10 == 0 or it == max_iter:
            r_norm = float(np.linalg.norm(x - z))
            s_norm = float(rho * np.linalg.norm(z - z_old))
            eps_pri = np.sqrt(dim) * abstol + reltol * max(
                np.linalg.norm(x), np.linalg.norm(z)
            )
            eps_dual = np.sqrt(dim) * abstol + reltol * rho * np.linalg.norm(u)
            if r_norm <= eps_pri and s_norm <= eps_dual:
                converged = True
                break
            if it % 100 == 0:
                if r_norm > 10.0 * s_norm and rho < 1e4:
                    rho *= 2.0
                    u /= 2.0
                elif s_norm > 10.0 * r_norm and rho > 1e-4:
                    rho /= 2.0
                    u *= 2.0

    K = z[:nk].reshape(n, n)
    K = (K + K.T) / 2.0
    norm_val = float((LD * K).sum())
    if norm_val <= 0:
        raise ConvergenceError("splitting iteration collapsed the demand functional")
    K = K / norm_val
    diag = np.diag(K)
    d = diag[:, None] + diag[None, :] - 2.0 * K
    np.fill_diagonal(d, 0.0)
    value = float((LC * K).sum())

    tri_viol = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if i < j and i != k and j != k:
                    tri_viol = max(tri_viol, d[i, j] - d[i, k] - d[k, j])
    ev = np.linalg.eigvalsh(K)
    residuals = {
        "primal": float(np.linalg.norm(x - z)),
        "dual": float(rho * np.linalg.norm(z - z_old)),
        "triangle": float(tri_viol),
        "normalization": abs(float((LD * K).sum()) - 1.0),
        "min_eigenvalue": float(ev.min()),
        "centering": float(np.abs(K @ np.ones(n)).max()),
    }
    return SdpResult(value, K, d, it, converged, residuals)


# -- the distortion-to-gap harness ------------------------------------------


@dataclass
class HarnessReport:
    distortion: float
    instance: Instance
    opt: OptResult
    cut_margin: float  # min over cuts of capacity/D* - demand functional
    sdp_feasible_value: float  # value of the space's own metric in the SDP
    sdp: SdpResult
    gap_lower_bound: float


def duality_harness(
    ms: MetricSpace, rep: DistortionReport | None = None
) -> HarnessReport:
    """Instance on which the cut optimum beats the SDP by the L1 distortion.

    With mu, nu the optimal multipliers of the distortion LP and t* the
    distortion: capacities t* nu and demands mu give every cut ratio at
    least t* (complementary slackness makes each cut pay more against nu
    than against mu), while the space's own metric, scaled to unit
    demand, is SDP-feasible with value sum(nu d) = 1.
    """
    if rep is None:
        rep = c1_distortion(ms, refine=True)
    nt = is_negative_type(ms)
    if not nt.is_negative_type:
        raise ValidationError("harness needs a space of negative type")
    n = ms.n
    tstar = rep.distortion
    C = np.zeros((n, n))
    D = np.zeros((n, n))
    for (p, q), m, v in zip(rep.pairs, rep.noncontraction_duals, rep.expansion_duals):
        C[p, q] = C[q, p] = tstar * v
        D[p, q] = D[q, p] = m
    inst = Instance(C, D)

    # exhaustive check: sum(delta nu) >= sum(delta mu) on every cut
    masks = np.arange(1, 1 << (n - 1), dtype=np.uint32)
    delta = np.zeros((len(rep.pairs), len(masks)))
    for row, (p, q) in enumerate(rep.pairs):
        bp = (masks >> p) & 1
        bq = (masks >> q) & 1 if q < n - 1 else np.zeros_like(bp)
        delta[row] = (bp ^ bq).astype(float)
    margin = float(
        np.min(rep.expansion_duals @ delta - rep.noncontraction_duals @ delta)
    )

    opt = opt_bruteforce(inst)
    dvec = ms.pair_distances()
    dem_on_metric = float(rep.noncontraction_duals @ dvec)  # = t*
    feas = ms.d / dem_on_metric
    iu = np.triu_indices(n, 1)
    sdp_feasible_value = float(C[iu] @ feas[iu])  # = sum(nu d) = 1
    sdp = gl_sdp(inst)
    # certified bound: the feasible point caps the SDP optimum from above
    return HarnessReport(
        tstar, inst, opt, margin, sdp_feasible_value, sdp,
        opt.value / sdp_feasible_value,
    )
