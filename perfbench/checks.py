"""Checks of every command's output files against ``oracle``.

Each check reads what one command wrote into its output directory and
returns a list of problems; an empty list means the output is right.
No check compares with a stored copy of earlier output.  Tolerances
are relative to the size of the values compared and are stated beside
each comparison.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import oracle

_EPS = 2.0**-52


def _close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


def _rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# -- lattice --------------------------------------------------------------------


def _check_set(k: int, spec: str, size: int, h: int, v: float, verr: float,
               where: str) -> tuple[list, tuple]:
    """Compare one set's reported perimeters with pair-by-pair counts."""
    rows = oracle.set_from_spec(k, spec)
    problems = []
    if size != len(rows):
        problems.append(f"{where}: size {size}, counted {len(rows)}")
    h_ref = oracle.horizontal_boundary(k, rows)
    if h != h_ref:
        problems.append(f"{where}: h_perim {h}, counted {h_ref}")
    T0, counts = oracle.vertical_boundaries(k, rows)
    v_ref = oracle.vertical_perimeter(len(rows), T0, counts)
    # the reported error bound plus the rounding of the square root here
    if abs(v - v_ref) > verr + 4 * _EPS * v_ref:
        problems.append(f"{where}: v_perim {v!r}, rebuilt {v_ref!r} (v_error {verr!r})")
    return problems, (rows, T0, counts, h_ref, v_ref)


def check_isoperim(params: dict, out: Path) -> list:
    k = params["k"]
    table = _rows(out / "ratios.csv")
    if table[0][:7] != ["set_id", "spec", "size", "h_perim", "v_perim", "v_error", "ratio"]:
        return [f"ratios.csv header {table[0]}"]
    problems = []
    worst = (0.0, "")
    for row in table[1:]:
        set_id, spec = row[0], row[1]
        size, h = int(row[2]), int(row[3])
        v, verr, ratio = float(row[4]), float(row[5]), float(row[6])
        found, (rows, T0, counts, h_ref, v_ref) = _check_set(k, spec, size, h, v, verr, set_id)
        problems += found
        if not abs(ratio - v_ref / h_ref) <= (verr + 8 * _EPS * v_ref) / h_ref:
            problems.append(f"{set_id}: ratio {ratio!r}, rebuilt {v_ref / h_ref!r}")
        if ratio > worst[0]:
            worst = (ratio, set_id)
    summary = json.loads((out / "summary.json").read_text())
    if summary["n_sets"] != len(table) - 1:
        problems.append(f"summary n_sets {summary['n_sets']}, rows {len(table) - 1}")
    if summary["max_ratio"] != worst[0] or summary["argmax_set_id"] != worst[1]:
        problems.append(f"summary max_ratio {summary['max_ratio']} at {summary['argmax_set_id']}")
    if len(table) == 2:  # a single set also gets its exact spectrum
        spec_rows = _rows(out / "spectrum.csv")
        got = [int(c) for t, c in spec_rows[1:-1]]
        if [int(t) for t, _ in spec_rows[1:-1]] != list(range(1, T0 + 1)) or got != counts:
            problems.append("spectrum.csv counts differ from the pair-by-pair counts")
        tail_row = spec_rows[-1]
        tail_ref = oracle.tail_sq(len(rows), T0)
        # heislab's own bound on its tail: 2 eps (T0 + 2) per term of pi^2/6 - sum
        if tail_row[0] != "tail" or not _close(float(tail_row[1]), tail_ref,
                                               rel=4 * _EPS * (T0 + 2) * (T0 + 1) + 1e-15):
            problems.append(f"spectrum.csv tail {tail_row}, trigamma gives {tail_ref!r}")
    return problems


def check_growth(params: dict, out: Path) -> list:
    k, r_max, zp = params["k"], params["r_max"], params["z_powers"]
    targets = [(0,) * (2 * k) + (t,) for t in range(1, zp + 1)]
    dist = oracle.bfs_distances(k, r_max, targets)
    per_radius = np.bincount([d for d in dist.values() if d <= r_max], minlength=r_max + 1)
    cumulative = np.cumsum(per_radius)
    problems = []
    rows = _rows(out / "growth.csv")
    if rows[0] != ["r", "count", "normalized"] or len(rows) != r_max + 2:
        return [f"growth.csv has {len(rows)} rows, header {rows[0]}"]
    for r, (rr, count, norm) in enumerate(rows[1:]):
        want = int(cumulative[r])
        denom = float(r ** (2 * k + 2)) if r else 1.0
        if int(rr) != r or int(count) != want or float(norm) != want / denom:
            problems.append(f"growth row {r}: {count},{norm}; BFS gives {want}")
    zrows = _rows(out / "z_powers.csv")
    got = [(int(t), int(d)) for t, d in zrows[1:]]
    want = [(t, dist[(0,) * (2 * k) + (t,)]) for t in range(1, zp + 1)]
    if got != want:
        problems.append(f"z_powers.csv {got}, BFS gives {want}")
    return problems


def check_poincare(params: dict, out: Path) -> list:
    obj = json.loads((out / "poincare.json").read_text())
    ind, co = obj["indicator"], obj["coarea"]
    problems, (_, _, _, h_ref, v_ref) = _check_set(
        params["k"], params["set"], obj["size"], ind["h_perim"], ind["v_perim"],
        ind["v_error"], "indicator")
    if co["rhs_total"] != co["rhs_levels"] or not co["rhs_exact"]:
        problems.append(f"coarea rhs {co['rhs_total']} != sum over levels {co['rhs_levels']}")
    if not co["lhs_total"] <= co["lhs_levels"] + obj["function"]["lhs_err"]:
        problems.append(f"coarea lhs {co['lhs_total']} > sum over levels {co['lhs_levels']}")
    # the indicator's vertical functional is the vertical perimeter
    if abs(ind["lhs"] - v_ref) > ind["lhs_err"] + ind["v_error"] + 4 * _EPS * v_ref:
        problems.append(f"indicator lhs {ind['lhs']!r}, v_perim {v_ref!r}")
    if ind["rhs"] != 2 * h_ref:
        problems.append(f"indicator rhs {ind['rhs']}, 2 h_perim = {2 * h_ref}")
    loc = obj["local"]
    if loc is None or not (loc["lhs"] >= 0 and loc["rhs"] >= 0):
        problems.append(f"local window {loc}")
    return problems


# -- montecarlo -----------------------------------------------------------------

# a Monte Carlo value may sit this many standard errors from the exact one;
# the chance that one of 62 scales does so by luck is below 1e-4
_MC_SIGMAS = 5.0


def check_box_profile(params: dict, out: Path) -> list:
    k, r = params["k"], params["r"]
    grid = np.linspace(params["s_min"], params["s_max"], params["steps"])
    exact = [(2 * r) ** (2 * k) * 2 * min(4.0**s, 2 * r * r) / 2.0**s for s in grid]
    problems = []
    for name in ("profile.csv", "profile_mc.csv"):
        rows = _rows(out / name)
        if rows[0] != ["s", "value", "stderr"] or len(rows) != len(grid) + 1:
            problems.append(f"{name}: header {rows[0]}, {len(rows) - 1} rows")
            continue
        for (s, value, se), s_ref, want in zip(rows[1:], grid, exact):
            s, value, se = float(s), float(value), float(se)
            if not _close(s, float(s_ref), rel=1e-12, abs_=1e-12):
                problems.append(f"{name}: scale {s}, grid has {s_ref}")
            elif name == "profile.csv" and (se != 0.0 or not _close(value, want, rel=1e-12)):
                problems.append(f"profile.csv at s={s}: {value!r}, closed form {want!r}")
            elif name == "profile_mc.csv" and not (se > 0 and abs(value - want) <= _MC_SIGMAS * se):
                problems.append(f"profile_mc.csv at s={s}: {value} +- {se}, closed form {want}")
    plot = (out / "plot.gp").read_text()
    if '"profile.csv"' not in plot or '"profile_mc.csv"' not in plot:
        problems.append("plot.gp does not plot both CSVs")
    return problems


def check_nm(params: dict, out: Path) -> list:
    obj = json.loads((out / "nm.json").read_text())
    problems = []
    nm, se = obj["nm"], obj["stderr"]
    if obj["n_lines"] != params["lines"] or not 0 <= obj["lines_hit"] <= params["lines"]:
        problems.append(f"n_lines {obj['n_lines']}, lines_hit {obj['lines_hit']}")
    if not _close(obj["resolution"], params["radius"] / params["steps"], rel=1e-15):
        problems.append(f"resolution {obj['resolution']}")
    if nm < 0 or se < 0:
        problems.append(f"negative nm {nm} or stderr {se}")
    if params["expect"] == "monotone" and not nm <= 3 * se:
        problems.append(f"monotone region: nm {nm} > 3 stderr {se}")
    if params["expect"] == "nonmonotone" and not nm >= 5 * se:
        problems.append(f"two-slab region: nm {nm} < 5 stderr {se}")
    weights = sum(row["count"] for row in obj["histogram"])
    if weights + obj["censored"] != obj["runs"]:
        problems.append(f"histogram {weights} + censored {obj['censored']} != runs {obj['runs']}")
    return problems


def check_voxelize(params: dict, out: Path) -> list:
    k, R, h = params["k"], params["R"], params["h"]
    lines = (out / "voxels.txt").read_text().split()
    cells = set()
    for line in lines:
        rank, xs, ys, w = line.split(";")
        if int(rank) != k or len(xs.split(",")) != k or len(ys.split(",")) != k:
            return [f"malformed element {line!r}"]
        cells.add((xs, ys, int(w)))
    problems = []
    if len(cells) != len(lines):
        problems.append("voxels.txt repeats an element")
    volume = 2 ** (2 * k - 2) * R ** (2 * k + 2) / math.factorial(2 * k + 2)
    ratio = len(lines) * h ** (2 * k + 2) / volume
    # cell-boundary error shrinks like h/R: 0.89 at h/R = 0.083, 0.98 at 0.033
    if abs(ratio - 1.0) > 2.0 * h / R:
        problems.append(f"voxel volume / quasi-ball volume = {ratio:.4f}, allowed 1 +- {2 * h / R:.3f}")
    return problems


# -- cutcone --------------------------------------------------------------------


def check_c1(params: dict, out: Path) -> list:
    obj = json.loads((out / "c1.json").read_text())
    d = oracle.demo_metric(params["demo"])
    if params["subsample"] is not None and params["subsample"] < len(d):
        d = oracle.farthest_subsample(d, params["subsample"])
    n = len(d)
    problems = []
    if obj["n"] != n:
        return [f"n = {obj['n']}, metric has {n} points"]
    value = obj["value"]
    ref = oracle.l1_distortion(d)
    if not _close(value, ref, rel=1e-7):
        problems.append(f"distortion {value!r}, HiGHS gives {ref!r}")
    if params["expect"] is not None and not _close(value, params["expect"], rel=1e-9):
        problems.append(f"distortion {value!r}, known value {params['expect']!r}")
    # replay: the reported cut measure embeds with ratios in [1, value]
    delta, pairs = oracle.cut_matrix(n)
    w = np.zeros(delta.shape[1])
    for cut in obj["cuts"]:
        w[cut["mask"] - 1] += cut["weight"]
    dv = np.array([d[p, q] for p, q in pairs])
    ratios = (delta @ w) / dv
    lo, hi = obj["replay_min_ratio"], obj["replay_max_ratio"]
    if not (_close(ratios.min(), lo, rel=1e-9) and _close(ratios.max(), hi, rel=1e-9)):
        problems.append(f"replay ratios [{lo}, {hi}], recomputed [{ratios.min()}, {ratios.max()}]")
    if not (lo >= 1 - 1e-9 and hi <= value * (1 + 1e-9)):
        problems.append(f"replay ratios [{lo}, {hi}] outside [1, {value}]")
    # LP duality: the multipliers price d at the distortion and at one
    mu = np.array(obj["noncontraction_duals"])
    nu = np.array(obj["expansion_duals"])
    if not (_close(mu @ dv, value, rel=1e-6) and _close(nu @ dv, 1.0, rel=1e-6)):
        problems.append(f"duals price d at {mu @ dv} and {nu @ dv}")
    return problems


# -- sparsest -------------------------------------------------------------------


def _load_instance(path: Path) -> tuple[np.ndarray, np.ndarray]:
    toks = path.read_text().split()
    n = int(toks[0])
    vals = iter(float(v) for v in toks[1:])
    mats = []
    for _ in range(2):
        M = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                M[i, j] = M[j, i] = next(vals)
        mats.append(M)
    return mats[0], mats[1]


def _check_sdp(C: np.ndarray, D: np.ndarray, sdp: dict, where: str) -> list:
    """Replay the Gram certificate: PSD, centered, its metric, its value."""
    problems = []
    K = np.array(sdp["certificate"]["gram"])
    d = np.array(sdp["certificate"]["metric"])
    res = sdp["residuals"]
    scale = max(1.0, float(np.trace(K)))
    ev = float(np.linalg.eigvalsh(K).min())
    if ev < -1e-8 * scale or not _close(ev, res["min_eigenvalue"], rel=1e-6, abs_=1e-12 * scale):
        problems.append(f"{where}: Gram min eigenvalue {ev!r}, reported {res['min_eigenvalue']!r}")
    if float(np.abs(K.sum(axis=1)).max()) > 1e-6 * scale:
        problems.append(f"{where}: Gram matrix is not centered")
    diag = np.diag(K)
    d_ref = diag[:, None] + diag[None, :] - 2 * K
    np.fill_diagonal(d_ref, 0.0)
    if float(np.abs(d - d_ref).max()) > 1e-12 * scale:
        problems.append(f"{where}: certificate metric is not the Gram metric")
    tri = oracle.max_triangle_violation(d)
    if tri > res["triangle"] + 1e-12 * scale:
        problems.append(f"{where}: triangle violation {tri!r} > reported {res['triangle']!r}")
    iu = np.triu_indices(len(C), 1)
    if not _close(float(D[iu] @ d[iu]), 1.0, rel=0, abs_=res["normalization"] + 1e-12):
        problems.append(f"{where}: demand on the metric is {float(D[iu] @ d[iu])!r}")
    if not _close(float(C[iu] @ d[iu]), sdp["value"], rel=1e-9, abs_=1e-12):
        problems.append(f"{where}: value {sdp['value']!r}, capacity on the metric {C[iu] @ d[iu]!r}")
    if not sdp["converged"]:
        problems.append(f"{where}: not converged")
    return problems


def _check_opt(C: np.ndarray, D: np.ndarray, block: dict, where: str) -> tuple[list, float]:
    ref = oracle.sparsest_cut(C, D)
    problems = []
    if not _close(block["value"], ref, rel=1e-9, abs_=1e-12):
        problems.append(f"{where}: opt {block['value']!r}, enumeration gives {ref!r}")
    cert = block["certificate"]
    side = [(cert["mask"] >> i) & 1 for i in range(len(C))]
    cap = sum(C[p, q] for p in range(len(C)) for q in range(p) if side[p] != side[q])
    dem = sum(D[p, q] for p in range(len(C)) for q in range(p) if side[p] != side[q])
    if not (_close(cap, cert["cut_capacity"], rel=1e-12, abs_=1e-15)
            and _close(dem, cert["cut_demand"], rel=1e-12, abs_=1e-15)):
        problems.append(f"{where}: mask {cert['mask']} cuts {cap}/{dem}, reported "
                        f"{cert['cut_capacity']}/{cert['cut_demand']}")
    return problems, ref


def check_sparsest_cut(params: dict, out: Path) -> list:
    obj = json.loads((out / "sparsest_cut.json").read_text())
    C, D = _load_instance(out / "instance.txt")
    C_ref, D_ref = oracle.random_instance(params["n"], params["seed"])
    if not (np.array_equal(C, C_ref) and np.array_equal(D, D_ref)):
        return ["instance.txt differs from the documented random instance"]
    problems, opt = _check_opt(C, D, obj["opt"], "opt")
    lp, sdp = obj["lp"], obj["sdp"]
    lp_ref = oracle.metric_lp(C, D)
    if not _close(lp["value"], lp_ref, rel=1e-7, abs_=1e-10):
        problems.append(f"lp {lp['value']!r}, HiGHS with every triangle row gives {lp_ref!r}")
    metric = np.array(lp["certificate"]["metric"])
    iu = np.triu_indices(len(C), 1)
    if (oracle.max_triangle_violation(metric) > 1e-9 * max(1.0, metric.max())
            or not _close(float(D[iu] @ metric[iu]), 1.0, rel=1e-9)
            or not _close(float(C[iu] @ metric[iu]), lp["value"], rel=1e-9, abs_=1e-12)):
        problems.append("lp certificate metric is not a unit-demand semimetric of its value")
    problems += _check_sdp(C, D, sdp, "sdp")
    # lp <= sdp <= opt, up to what the SDP residuals allow
    res = sdp["residuals"]
    slack = (1e-6 * max(1.0, opt) + C[iu].sum() * res["triangle"]
             + opt * res["normalization"] + res["primal"] + res["dual"])
    if not (lp["value"] - slack <= sdp["value"] <= opt + slack):
        problems.append(f"order lp {lp['value']!r} <= sdp {sdp['value']!r} <= opt {opt!r} fails")
    return problems


def check_duality(params: dict, out: Path) -> list:
    obj = json.loads((out / "duality.json").read_text())
    C, D = _load_instance(out / "instance.txt")
    d = oracle.demo_metric(params["demo"])
    problems = []
    t_ref = oracle.l1_distortion(d)
    if not _close(obj["distortion"], t_ref, rel=1e-7):
        problems.append(f"distortion {obj['distortion']!r}, HiGHS gives {t_ref!r}")
    found, opt = _check_opt(C, D, obj["opt"], "opt")
    problems += found
    # every cut pays at least the distortion: opt >= t*
    if opt < obj["distortion"] * (1 - 1e-7) or obj["cut_margin"] < -1e-9:
        problems.append(f"opt {opt!r} below distortion {obj['distortion']!r}")
    # the space's own metric, at unit demand, is SDP-feasible with value 1
    iu = np.triu_indices(len(C), 1)
    scaled = d[iu] / float(D[iu] @ d[iu])
    if not (_close(float(C[iu] @ scaled), obj["sdp_feasible_value"], rel=1e-9)
            and _close(obj["sdp_feasible_value"], 1.0, rel=1e-6)):
        problems.append(f"feasible point value {obj['sdp_feasible_value']!r}")
    if not _close(obj["gap_lower_bound"], opt / obj["sdp_feasible_value"], rel=1e-9):
        problems.append(f"gap bound {obj['gap_lower_bound']!r}")
    problems += _check_sdp(C, D, obj["sdp"], "sdp")
    res = obj["sdp"]["residuals"]
    slack = 1e-6 + C[iu].sum() * res["triangle"] + res["normalization"] + res["primal"] + res["dual"]
    if not obj["sdp"]["value"] <= obj["sdp_feasible_value"] + slack:
        problems.append(f"sdp {obj['sdp']['value']!r} above a feasible value")
    return problems


CHECKS = {
    "isoperim": check_isoperim,
    "growth": check_growth,
    "poincare": check_poincare,
    "box_profile": check_box_profile,
    "nm": check_nm,
    "voxelize": check_voxelize,
    "c1": check_c1,
    "sparsest_cut": check_sparsest_cut,
    "duality": check_duality,
}
