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
    MetricSpace,
    c1_distortion,
    cut_pair_matrix,
    cut_sides,
    is_negative_type,
    parse_upper_triangles,
    upper_triangle_text,
)
from .errors import ConvergenceError, ValidationError
from .rng import Rng
from .simplex import solve_lp

_OPT_MAX_POINTS = 24
_LP_MAX_POINTS = 16  # lp_relaxation took 44 s at 16 points
_SDP_MAX_POINTS = 20  # gl_sdp's KKT system grows as n^6: 0.5 GiB at 20 points
_OPT_CHUNK = 1 << 18  # cut sides weighed per vectorized block
_CAP_DENSITY, _DEM_DENSITY = 0.7, 0.5  # random_instance's chance of each entry
_TRIANGLE_TOL = 1e-9  # a triangle row is added once violated by this, relative
# gl_sdp's ADMM: starting penalty, over-relaxation, stopping tolerances
_SDP_RHO, _SDP_ALPHA, _SDP_ABSTOL, _SDP_RELTOL = 1.0, 1.6, 1e-9, 1e-8


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
        return upper_triangle_text(self.C, self.D)

    @classmethod
    def from_text(cls, text: str) -> "Instance":
        C, D = parse_upper_triangles(text, 2, _OPT_MAX_POINTS)
        return cls(C, D)


def random_instance(n: int, seed: int) -> Instance:
    """Random instance: a capacity present with chance 0.7 and a demand
    with chance 0.5, each weight uniform in (0,1)."""
    if n < 2:
        raise ValidationError("instance needs at least two points")
    if n > _OPT_MAX_POINTS:
        raise ValidationError(
            f"random instances have at most {_OPT_MAX_POINTS} points, the most "
            f"any solver takes, got {n}"
        )
    u = Rng(seed).stream()
    C = np.zeros((n, n))
    D = np.zeros((n, n))
    for M, dens in ((C, _CAP_DENSITY), (D, _DEM_DENSITY)):
        for i in range(n):
            for j in range(i + 1, n):
                if next(u) < dens:
                    M[i, j] = M[j, i] = next(u)
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


def opt_bruteforce(inst: Instance) -> OptResult:
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
    for start in range(1, total + 1, _OPT_CHUNK):
        masks = np.arange(start, min(start + _OPT_CHUNK, total + 1), dtype=np.uint32)
        B = cut_sides(masks, n)
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


def _triangles(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Upper-triangle positions (ij, ik, jk) of the pairs of every triangle
    inequality d_ij <= d_ik + d_jk, i < j, k not in {i, j}; k varies
    slowest, then i, then j.

    For a fixed i, the position of the pair {i, k} increases with k, so
    (ij, ik) sorts the triangles as (i, j, k) does.
    """
    p, q = np.triu_indices(n, 1)
    pos = np.zeros((n, n), dtype=np.int64)
    pos[p, q] = pos[q, p] = np.arange(len(p))
    k = np.repeat(np.arange(n), len(p))
    i, j = np.tile(p, n), np.tile(q, n)
    keep = (i != k) & (j != k)
    i, j, k = i[keep], j[keep], k[keep]
    return pos[i, j], pos[i, k], pos[j, k]


def lp_relaxation(inst: Instance) -> LpRelaxResult:
    """min <C, d> over metrics d with <D, d> = 1, by lazy triangle rows."""
    n = inst.n
    if n > _LP_MAX_POINTS:
        raise ValidationError(
            f"LP relaxation supports at most {_LP_MAX_POINTS} points, got {n}"
        )
    iu = np.triu_indices(n, 1)
    cvec = inst.C[iu]
    dvec = inst.D[iu]
    P = len(dvec)
    ij, ik, jk = _triangles(n)
    R = len(ij)

    A = dvec[None, :]
    rhs = np.ones(1)
    senses = ["="]
    active = np.zeros(R, dtype=bool)
    iters = 0
    for _ in range(R + 2):
        res = solve_lp(cvec, A, rhs, senses)
        if res.status != "optimal":
            raise ConvergenceError(f"relaxation LP ended with status {res.status}")
        iters += res.iterations
        x = res.x
        scale = max(1.0, float(np.abs(x).max()))
        v = x[ij] - x[ik] - x[jk]
        new = np.flatnonzero(~active & (v > _TRIANGLE_TOL * scale))
        if len(new) == 0:
            d = np.zeros((n, n))
            d[iu] = x
            return LpRelaxResult(
                float(res.objective), d + d.T, iters, int(active.sum())
            )
        # largest violation first, ties broken by (i, j, k) descending
        new = new[np.lexsort((ik[new], ij[new], v[new]))[::-1]]
        rows = np.zeros((len(new), P))
        at = np.arange(len(new))
        rows[at, ij[new]] = 1.0
        rows[at, ik[new]] = -1.0
        rows[at, jk[new]] = -1.0
        A = np.vstack([A, rows])
        rhs = np.concatenate([rhs, np.zeros(len(new))])
        senses += ["<="] * len(new)
        active[new] = True
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


def _capacity_components(C: np.ndarray) -> np.ndarray:
    """Per point, the least point of its component in the graph of the
    pairs with positive capacity."""
    n = len(C)
    adj = (C > 0) | np.eye(n, dtype=bool)
    label = np.arange(n)
    while True:
        new = np.where(adj, label[None, :], n).min(axis=1)
        if np.array_equal(new, label):
            return label
        label = new


def gl_sdp(inst: Instance, max_iter: int = 20000) -> SdpResult:
    """Negative-type relaxation: min <C, d> over d = squared distances of a
    centered Gram matrix, unit total demand, triangle inequalities kept.

    When a demand pair lies across two components of the capacity graph,
    the optimum is 0 and needs no iteration: the cut metric of the first
    such pair's component is negative type, carries no capacity, and is
    returned after 0 iterations.
    """
    if max_iter < 1:
        raise ValidationError(f"max_iter must be >= 1, got {max_iter}")
    n = inst.n
    if n > _SDP_MAX_POINTS:
        raise ValidationError(
            f"SDP relaxation supports at most {_SDP_MAX_POINTS} points, got {n}"
        )
    LC = _laplacian(inst.C)
    LD = _laplacian(inst.D)
    ij, ik, jk = _triangles(n)
    p, q = np.triu_indices(n, 1)

    def result(K, it, converged, primal, dual):
        K = (K + K.T) / 2.0
        norm_val = float((LD * K).sum())
        if norm_val <= 0:
            raise ConvergenceError("splitting iteration collapsed the demand functional")
        K = K / norm_val
        diag = np.diag(K)
        d = diag[:, None] + diag[None, :] - 2.0 * K
        np.fill_diagonal(d, 0.0)
        value = float((LC * K).sum())

        dvec = d[p, q]
        tri_viol = max(0.0, float((dvec[ij] - dvec[ik] - dvec[jk]).max(initial=0.0)))
        ev = np.linalg.eigvalsh(K)
        residuals = {
            "primal": primal,
            "dual": dual,
            "triangle": tri_viol,
            "normalization": abs(float((LD * K).sum()) - 1.0),
            "min_eigenvalue": float(ev.min()),
            "centering": float(np.abs(K @ np.ones(n)).max()),
        }
        return SdpResult(value, K, d, it, converged, residuals)

    label = _capacity_components(inst.C)
    cross = np.flatnonzero((inst.D[p, q] > 0) & (label[p] != label[q]))
    if len(cross):
        side = (label == label[p[cross[0]]]).astype(float)
        v = side - side.sum() / n
        res = result(np.outer(v, v), 0, True, 0.0, 0.0)
        # exactly 0: d vanishes inside each component, C across them
        res.value = float(inst.C[p, q] @ res.metric[p, q])
        return res

    R = len(ij)
    nk = n * n
    dim = nk + R

    # row r of G reads the squared distance of pair r off vec(K), so a
    # triangle row d_ij - d_ik - d_jk is 2(K_ik + K_jk - K_ij - K_kk)
    at = np.arange(len(p))
    G = np.zeros((len(p), nk))
    G[at, p * n + p] = G[at, q * n + q] = 1.0
    G[at, p * n + q] = G[at, q * n + p] = -1.0

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
    E_tri = E[1 + n :]
    E_tri[:, :nk] = G[ij] - G[ik] - G[jk]
    E_tri[:, nk:] = np.eye(R)

    M = E @ E.T
    M[np.diag_indices_from(M)] += 1e-12
    Minv = np.linalg.inv(M)
    cobj = np.zeros(dim)
    cobj[:nk] = LC.ravel()

    def affine_project(v, rho_now):
        mu = Minv @ (E @ (v - cobj / rho_now) - e)
        return v - cobj / rho_now - E.T @ mu

    # start at the scaled equilateral configuration; it satisfies everything
    c0 = 1.0 / (2.0 * inst.D[p, q].sum())
    K0 = c0 * (np.eye(n) - np.full((n, n), 1.0 / n))
    z = np.zeros(dim)
    z[:nk] = K0.ravel()
    z[nk:] = -(E_tri[:, :nk] * K0.ravel()).sum(axis=1)
    u = np.zeros(dim)

    rho, alpha = _SDP_RHO, _SDP_ALPHA
    converged = False
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
            eps_pri = np.sqrt(dim) * _SDP_ABSTOL + _SDP_RELTOL * max(
                np.linalg.norm(x), np.linalg.norm(z)
            )
            eps_dual = np.sqrt(dim) * _SDP_ABSTOL + _SDP_RELTOL * rho * np.linalg.norm(u)
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

    return result(
        z[:nk].reshape(n, n), it, converged,
        float(np.linalg.norm(x - z)), float(rho * np.linalg.norm(z - z_old)),
    )


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


def duality_harness(ms: MetricSpace) -> HarnessReport:
    """Instance on which the cut optimum beats the SDP by the L1 distortion.

    With mu, nu the optimal multipliers of the distortion LP and t* the
    distortion: capacities t* nu and demands mu give every cut ratio at
    least t* (complementary slackness makes each cut pay more against nu
    than against mu), while the space's own metric, scaled to unit
    demand, is SDP-feasible with value sum(nu d) = 1.
    """
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
    delta = cut_pair_matrix(np.arange(1, 1 << (n - 1)), n)
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
