"""Command-line front end.

Every subcommand computes one study artifact into ``--out-dir``.  All
numeric output is formatted so that reruns with the same flags produce
byte-identical files; ``run_record.json`` differs only in ``wall_time_s``.

A command is ``cmd_*(args, out) -> (params, summary)``: it writes its
data files through ``out`` and returns its configuration and a one-line
summary.  The frame in ``main`` does the rest: it pins the BLAS pool to
one thread, creates ``out``, writes ``run_record.json`` from params and
the names ``out`` wrote, prints the summary and sets the exit code.

Exit codes: 0 success, 2 bad input, 3 resource cap exceeded,
4 iterative solver failed to converge (results are still written).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import chain
from pathlib import Path

import numpy as np

from .cayley import ball, growth_table, z_power_distance
from .continuum import (
    Box,
    box_profile_knee,
    box_profile_l2,
    box_vertical_profile,
    mc_vertical_profile,
    parse_region,
    profile_l2_norm,
    voxelize,
)
from .embeddings import (
    MetricSpace,
    ball_metric,
    c1_distortion,
    complete_bipartite_metric,
    cycle_metric,
    is_negative_type,
    negative_type_with_distortion,
    path_metric,
    random_metric,
)
from .errors import ConvergenceError, ResourceCapError, ValidationError
from .lines import nonmonotonicity
from .parallel import one_blas_thread, shared_pool
from .perimeter import (
    default_corpus,
    horizontal_perimeter,
    parse_set_spec,
    vertical_perimeter,
    vertical_spectrum,
)
from .poincare import LatticeFunction, coarea, local_poincare
from .records import format_value, run_record
from .sparsecut import (
    Instance,
    duality_harness,
    gl_sdp,
    lp_relaxation,
    opt_bruteforce,
    random_instance,
)

_F = format_value


class _OutDir:
    """A command's output directory; notes the name of every file it writes."""

    def __init__(self, path):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.names: list[str] = []
        self.unconverged: str | None = None  # exit 4 once everything is written

    def lines(self, name: str, lines) -> None:
        self.names.append(name)
        with open(self.path / name, "w") as fh:
            for line in lines:
                fh.write(line + "\n")

    def text(self, name: str, text: str) -> None:
        self.names.append(name)
        with open(self.path / name, "w") as fh:
            fh.write(text)

    def csv(self, name: str, header: str, rows) -> None:
        self.lines(name, chain([header], (",".join(row) for row in rows)))

    def json(self, name: str, obj) -> None:
        self.text(name, json.dumps(obj, indent=2, sort_keys=True) + "\n")


# -- growth ------------------------------------------------------------------


def cmd_growth(args, out) -> tuple[dict, str]:
    b = ball(args.k, args.r_max, args.mem_cap_mib)
    rows = growth_table(b)
    out.csv(
        "growth.csv",
        "r,count,normalized",
        ([str(r), str(c), _F(norm)] for r, c, norm in rows),
    )
    if args.z_powers > 0:
        zrows = []
        for t in range(1, args.z_powers + 1):
            zrows.append([str(t), str(z_power_distance(args.k, t, mem_cap_mib=args.mem_cap_mib))])
        out.csv("z_powers.csv", "t,distance", zrows)
    if args.dump_ball:
        out.lines("ball.txt", (f"{el.to_text()} {dist}" for el, dist in b.elements()))
    params = {
        "k": args.k,
        "r_max": args.r_max,
        "z_powers": args.z_powers,
        "dump_ball": args.dump_ball,
        "mem_cap_mib": args.mem_cap_mib,
    }
    r, count, norm = rows[-1]
    return params, f"growth: |B_{r}| = {count} at k={args.k}, normalized {norm:.6g}"


# -- isoperim ----------------------------------------------------------------


def _lq_head(spec, q: float) -> float:
    # head terms only: the flat 2|S| tail is dropped, so this is a lower
    # bound for q > 1 and is reported as exploratory
    total = sum((float(c) / t) ** q for t, c in enumerate(spec.head.tolist(), 1))
    return total ** (1.0 / q)


def cmd_isoperim(args, out) -> tuple[dict, str]:
    entries = []
    if args.corpus:
        for set_id, spec, S in default_corpus(args.k, args.seed):
            entries.append((f"corpus{set_id}", spec, S))
    for i, spec in enumerate(args.set or []):
        entries.append((f"set{i}", spec, parse_set_spec(args.k, spec, seed=args.seed)))
    if not entries:
        raise ValidationError("nothing to analyze: pass --set and/or --corpus")

    header = "set_id,spec,size,h_perim,v_perim,v_error,ratio"
    if args.lq is not None:
        header += ",lq_head"
    rows = []
    worst = (0.0, "", "")
    for set_id, spec, S in entries:
        h = horizontal_perimeter(S)
        vspec = vertical_spectrum(S)
        v, verr = vspec.perimeter()
        ratio = v / h
        row = [set_id, f'"{spec}"', str(S.size), str(h), _F(v), _F(verr), _F(ratio)]
        if args.lq is not None:
            row.append(_F(_lq_head(vspec, args.lq)))
        rows.append(row)
        if ratio > worst[0]:
            worst = (ratio, set_id, spec)
    out.csv("ratios.csv", header, rows)
    out.json(
        "summary.json",
        {
            "n_sets": len(entries),
            "max_ratio": worst[0],
            "argmax_set_id": worst[1],
            "argmax_spec": worst[2],
        },
    )

    if len(entries) == 1:  # vspec is still the one set's spectrum
        srows = [[str(t), str(int(c))] for t, c in enumerate(vspec.head.tolist(), 1)]
        srows.append(["tail", _F(vspec.tail_sq)])
        out.csv("spectrum.csv", "t,count", srows)

    params = {
        "k": args.k,
        "seed": args.seed,
        "corpus": args.corpus,
        "set": ";".join(args.set or []),
        "lq": "" if args.lq is None else args.lq,
    }
    return params, (
        f"isoperim: {len(entries)} set(s), max ratio {worst[0]:.6g} "
        f"at {worst[1]} = {worst[2]}"
    )


# -- box-profile ---------------------------------------------------------------


_PLOT_TEMPLATE = """\
set datafile separator ","
set logscale y
set xlabel "s"
set ylabel "profile"
set key top right
plot {series}
"""


def _plot_script(series: list[tuple[str, str]]) -> str:
    # series: (csv file name, title); column 2 = value, column 3 = stderr
    parts = [
        f'"{name}" using 1:2 with lines title "{title}"' for name, title in series
    ]
    if len(series) > 1:
        name, title = series[1]
        parts.append(
            f'"{name}" using 1:2:3 with yerrorbars title "{title} stderr"'
        )
    return _PLOT_TEMPLATE.format(series=", \\\n     ".join(parts))


def cmd_box_profile(args, out) -> tuple[dict, str]:
    grid = np.linspace(args.s_min, args.s_max, args.steps)
    exact = box_vertical_profile(args.k, args.r, grid)
    rows = [[_F(float(s)), _F(float(v)), "0"] for s, v in zip(grid, exact)]
    out.csv("profile.csv", "s,value,stderr", rows)
    series = [("profile.csv", "closed form")]
    if args.mc_samples > 0:
        mc = mc_vertical_profile(
            Box(args.k, args.r), grid, args.mc_samples, args.seed, args.workers
        )
        mrows = [[_F(p.s), _F(p.value), _F(p.stderr)] for p in mc]
        out.csv("profile_mc.csv", "s,value,stderr", mrows)
        series.append(("profile_mc.csv", "monte carlo"))
    out.text("plot.gp", _plot_script(series))
    params = {
        "k": args.k,
        "r": args.r,
        "s_min": args.s_min,
        "s_max": args.s_max,
        "steps": args.steps,
        "mc_samples": args.mc_samples,
        "seed": args.seed,
        "workers": args.workers,
    }
    l2_closed = box_profile_l2(args.k, args.r)
    l2_grid = profile_l2_norm(grid, np.asarray(exact, dtype=float))
    return params, (
        f"box-profile: knee at s = {box_profile_knee(args.r):.6g}, "
        f"l2 closed form {l2_closed:.6g}, grid quadrature {l2_grid:.6g}"
    )


# -- nm ------------------------------------------------------------------------


def cmd_nm(args, out) -> tuple[dict, str]:
    region = parse_region(args.region)
    rep = nonmonotonicity(
        region, args.radius, args.lines, args.seed, args.steps, args.workers
    )
    hist = rep.histogram
    z = rep.value / rep.stderr if rep.stderr > 0 else None
    obj = {
        "kind": "nonmonotonicity",
        "region": args.region,
        "ball": rep.radius,
        "n_lines": rep.n_lines,
        "resolution": rep.step,
        "nm": rep.value,
        "stderr": rep.stderr,
        "z_score": z,
        "lines_hit": int(np.count_nonzero(rep.per_line)),
        "histogram": [
            {"j": j, "count": w} for j, w in sorted(hist.classes.items())
        ],
        "censored": hist.censored,
        "runs": hist.runs,
    }
    out.json("nm.json", obj)
    params = {
        "region": args.region,
        "radius": args.radius,
        "lines": args.lines,
        "steps": args.steps,
        "seed": args.seed,
        "workers": args.workers,
    }
    ztext = "n/a" if z is None else f"{z:.2f}"
    return params, f"nm: value {rep.value:.6g} +- {rep.stderr:.2g} (z = {ztext})"


# -- voxelize --------------------------------------------------------------------


def cmd_voxelize(args, out) -> tuple[dict, str]:
    region = parse_region(args.region)
    S = voxelize(region, args.h, args.samples_per_cell, args.seed, args.workers)
    out.lines("voxels.txt", S.to_lines())
    params = {
        "region": args.region,
        "h": args.h,
        "samples_per_cell": args.samples_per_cell,
        "seed": args.seed,
        "workers": args.workers,
    }
    vol = S.size * args.h ** (2 * region.k + 2)
    return params, f"voxelize: {S.size} cells at h = {args.h:g}, volume estimate {vol:.6g}"


# -- metric inputs -----------------------------------------------------------------


def _demo_metric(text: str) -> MetricSpace:
    """Built-in metric spaces: path:N, cycle:N, bipartite:A,B, ball:K,R,
    random:N,SEED, search:N,SEED (negative type with distortion > 1)."""
    name, _, rest = text.partition(":")
    try:
        a = [int(v) for v in rest.split(",")] if rest else []
    except ValueError:
        raise ValidationError(f"bad demo arguments {rest!r}") from None
    try:
        if name == "path":
            return path_metric(*a)
        if name == "cycle":
            return cycle_metric(*a)
        if name == "bipartite":
            return complete_bipartite_metric(*a)
        if name == "ball":
            return ball_metric(*a)[0]
        if name == "random":
            return random_metric(*a)
        if name == "search":
            if len(a) != 2:
                raise ValidationError("search takes N,SEED")
            return negative_type_with_distortion(a[0], 1, a[1])[0][0]
    except TypeError:
        raise ValidationError(f"wrong argument count for demo {name!r}") from None
    raise ValidationError(f"unknown demo metric {name!r}")


def _read_input(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read input file: {exc}") from None


def _load_metric(args) -> tuple[MetricSpace, str]:
    if args.metric is not None:
        return MetricSpace.from_text(_read_input(args.metric)), f"file:{args.metric}"
    return _demo_metric(args.demo), f"demo:{args.demo}"


# -- c1 -----------------------------------------------------------------------------


def cmd_c1(args, out) -> tuple[dict, str]:
    ms, source = _load_metric(args)
    if args.subsample is not None:
        if args.subsample < ms.n:
            _, ms = ms.subsample_farthest(args.subsample)
        source += f"|subsample:{args.subsample}"
    refine = {"auto": None, "on": True, "off": False}[args.refine]
    rep = c1_distortion(ms, refine=refine)
    lo, hi = rep.replay(ms) if ms.n > 1 else (1.0, 1.0)
    nt = is_negative_type(ms)
    obj = {
        "kind": "c1_distortion",
        "source": source,
        "n": ms.n,
        "value": rep.distortion,
        "exact": rep.exact,
        "iterations": rep.iterations,
        "negative_type": nt.is_negative_type,
        "cuts": [{"mask": m, "weight": w} for m, w in rep.cuts.entries],
        "noncontraction_duals": [float(v) for v in rep.noncontraction_duals],
        "expansion_duals": [float(v) for v in rep.expansion_duals],
        "replay_min_ratio": lo,
        "replay_max_ratio": hi,
    }
    out.json("c1.json", obj)
    params = {"source": source, "refine": args.refine}
    tag = "exact" if rep.exact else "float"
    return params, f"c1: distortion {rep.distortion:.9g} ({tag}), {len(rep.cuts.entries)} cuts"


# -- sparsest-cut --------------------------------------------------------------------


def _metric_residuals(inst: Instance, d: np.ndarray) -> dict:
    # replayed feasibility of a metric certificate: worst triangle slack
    # (positive = violated) and the unit-demand normalization error
    tri = 0.0
    for a in range(inst.n):
        tri = max(tri, float((d - (d[:, [a]] + d[[a], :])).max()))
    return {
        "triangle": tri,
        "normalization": abs(float((inst.D * d).sum()) / 2.0 - 1.0),
    }


def _opt_block(inst: Instance, res) -> dict:
    replay = res.cut_capacity / res.cut_demand
    return {
        "kind": "opt",
        "value": res.value,
        "certificate": {
            "mask": res.mask,
            "cut_capacity": res.cut_capacity,
            "cut_demand": res.cut_demand,
        },
        "residuals": {"objective_replay": abs(replay - res.value)},
        "iterations": (1 << (inst.n - 1)) - 1,
        "converged": True,
    }


def _lp_block(inst: Instance, lp) -> dict:
    res = _metric_residuals(inst, lp.metric)
    res["objective_replay"] = abs(
        float((inst.C * lp.metric).sum()) / 2.0 - lp.value
    )
    return {
        "kind": "lp",
        "value": lp.value,
        "certificate": {"metric": [[float(v) for v in row] for row in lp.metric]},
        "residuals": res,
        "iterations": lp.iterations,
        "converged": True,
    }


def _sdp_block(sdp) -> dict:
    return {
        "kind": "sdp",
        "value": sdp.value,
        "certificate": {
            "gram": [[float(v) for v in row] for row in sdp.gram],
            "metric": [[float(v) for v in row] for row in sdp.metric],
        },
        "residuals": {key: float(v) for key, v in sorted(sdp.residuals.items())},
        "iterations": sdp.iterations,
        "converged": sdp.converged,
    }


def _flag_unconverged(out: _OutDir, sdp) -> None:
    if not sdp.converged:
        out.unconverged = (
            f"sdp stopped at {sdp.iterations} iterations without meeting tolerances"
        )


def _load_instance(args) -> tuple[Instance, str]:
    if args.instance is not None:
        return Instance.from_text(_read_input(args.instance)), f"file:{args.instance}"
    try:
        n, seed = (int(v) for v in args.random.split(","))
    except ValueError:
        raise ValidationError("--random takes N,SEED") from None
    return random_instance(n, seed), f"random:{n},{seed}"


def cmd_sparsest_cut(args, out) -> tuple[dict, str]:
    inst, source = _load_instance(args)
    obj = {"kind": "sparsest_cut", "source": source, "n": inst.n}
    want = ("lp", "sdp", "opt") if args.solver == "all" else (args.solver,)
    if "opt" in want:
        obj["opt"] = _opt_block(inst, opt_bruteforce(inst))
    if "lp" in want:
        obj["lp"] = _lp_block(inst, lp_relaxation(inst))
    if "sdp" in want:
        sdp = gl_sdp(inst, max_iter=args.sdp_max_iter)
        obj["sdp"] = _sdp_block(sdp)
        _flag_unconverged(out, sdp)
    if "opt" in obj and "lp" in obj and obj["lp"]["value"] > 0:
        obj["lp_gap"] = obj["opt"]["value"] / obj["lp"]["value"]
    if "opt" in obj and "sdp" in obj and obj["sdp"]["value"] > 0:
        obj["sdp_gap"] = obj["opt"]["value"] / obj["sdp"]["value"]

    out.text("instance.txt", inst.to_text())
    out.json("sparsest_cut.json", obj)
    params = {"source": source, "solver": args.solver, "sdp_max_iter": args.sdp_max_iter}
    parts = [
        f"{key} {obj[key]['value']:.9g}" for key in ("opt", "lp", "sdp") if key in obj
    ]
    return params, f"sparsest-cut: n = {inst.n}, " + ", ".join(parts)


# -- duality ---------------------------------------------------------------------------


def cmd_duality(args, out) -> tuple[dict, str]:
    ms, source = _load_metric(args)
    rep = duality_harness(ms)
    obj = {
        "kind": "duality_harness",
        "source": source,
        "n": ms.n,
        "distortion": rep.distortion,
        "opt": _opt_block(rep.instance, rep.opt),
        "cut_margin": rep.cut_margin,
        "sdp_feasible_value": rep.sdp_feasible_value,
        "sdp": _sdp_block(rep.sdp),
        "gap_lower_bound": rep.gap_lower_bound,
    }
    out.text("instance.txt", rep.instance.to_text())
    out.json("duality.json", obj)
    _flag_unconverged(out, rep.sdp)
    return {"source": source}, (
        f"duality: distortion {rep.distortion:.9g}, cut optimum {rep.opt.value:.9g}, "
        f"certified gap >= {rep.gap_lower_bound:.9g}"
    )


# -- poincare ----------------------------------------------------------------------------


def cmd_poincare(args, out) -> tuple[dict, str]:
    S = parse_set_spec(args.k, args.set, seed=args.seed)
    # the indicator's sides are the perimeters: lhs = |bd_v S|, rhs = 2 |bd_h S|
    h = horizontal_perimeter(S)
    v, verr = vertical_perimeter(S)
    try:
        lo, hi = (int(x) for x in args.values.split(","))
    except ValueError:
        raise ValidationError("--values takes LO,HI") from None
    phi = LatticeFunction.random_integer(S, lo, hi, args.seed)
    co = coarea(phi)
    fun = co.sides
    obj = {
        "kind": "poincare",
        "k": args.k,
        "set": args.set,
        "size": S.size,
        "indicator": {
            "lhs": v,
            "lhs_err": verr,
            "rhs": float(2 * h),
            "v_perim": v,
            "v_error": verr,
            "h_perim": h,
        },
        "function": {
            "lo": lo,
            "hi": hi,
            "seed": args.seed,
            "support": phi.S.size,
            "lhs": fun.lhs,
            "lhs_err": fun.lhs_err,
            "rhs": fun.rhs,
        },
        "coarea": {
            "lhs_total": co.lhs_total,
            "lhs_levels": co.lhs_levels,
            "rhs_total": co.rhs_total,
            "rhs_levels": co.rhs_levels,
            "rhs_exact": co.rhs_exact,
            "n_levels": len(co.levels),
        },
        "local": None,
    }
    if args.local is not None:
        loc = local_poincare(phi, args.local, args.alpha, args.mem_cap_mib)
        obj["local"] = {"n": loc.n, "alpha": loc.alpha, "lhs": loc.lhs, "rhs": loc.rhs}
    out.json("poincare.json", obj)
    params = {
        "k": args.k,
        "set": args.set,
        "seed": args.seed,
        "values": args.values,
        "local": "" if args.local is None else args.local,
        "alpha": args.alpha,
        "mem_cap_mib": args.mem_cap_mib,
    }
    return params, (
        f"poincare: indicator lhs {v:.6g} vs rhs {float(2 * h):.6g}, "
        f"function lhs {fun.lhs:.6g} vs rhs {fun.rhs:.6g}"
    )


# -- parser -------------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="heislab",
        description="Perimeters, profiles, and cut relaxations on Heisenberg lattices.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(fn=fn)
        sp.add_argument("--out-dir", required=True, help="directory for output files")
        return sp

    def add_metric_input(sp):
        group = sp.add_mutually_exclusive_group(required=True)
        group.add_argument("--metric", help="distance file: n then upper-triangle rows")
        group.add_argument(
            "--demo",
            help="path:N | cycle:N | bipartite:A,B | ball:K,R | random:N,SEED | search:N,SEED",
        )

    sp = add("growth", cmd_growth, "ball sizes of the word metric")
    sp.add_argument("--k", type=int, default=1, help="lattice rank (default 1)")
    sp.add_argument("--r-max", type=int, required=True, help="largest radius")
    sp.add_argument(
        "--z-powers",
        type=int,
        default=0,
        help="also tabulate word distances of the central powers 1..N",
    )
    sp.add_argument(
        "--dump-ball",
        action="store_true",
        help="write every ball element with its distance to ball.txt",
    )
    sp.add_argument("--mem-cap-mib", type=float, default=4096.0)

    sp = add("isoperim", cmd_isoperim, "perimeter ratios of finite sets")
    sp.add_argument("--k", type=int, default=2, help="lattice rank (default 2)")
    sp.add_argument(
        "--set",
        action="append",
        metavar="SPEC",
        help="box(a,b,h) | ball(r) | column(h) | random_blob(size[,seed]) | singleton",
    )
    sp.add_argument("--corpus", action="store_true", help="analyze the standard corpus")
    sp.add_argument("--seed", type=int, default=20260816)
    sp.add_argument(
        "--lq",
        type=float,
        default=None,
        help="exploratory: head-only vertical sum with exponent q instead of 2",
    )

    sp = add("box-profile", cmd_box_profile, "vertical profile of a coordinate box")
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--r", type=float, required=True, help="box half-width")
    sp.add_argument("--s-min", type=float, default=-2.0)
    sp.add_argument("--s-max", type=float, default=8.0)
    sp.add_argument("--steps", type=int, default=41, help="grid points (default 41)")
    sp.add_argument("--mc-samples", type=int, default=0, help="also sample each scale")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--workers", type=int, default=1)

    sp = add("nm", cmd_nm, "line-averaged nonmonotonicity of a region")
    sp.add_argument(
        "--region",
        required=True,
        help="quasi-ball:k=2,R=4 | box:k=2,r=2 | halfspace-cap:... | two-slab:...",
    )
    sp.add_argument("--radius", type=float, required=True, help="observation ball")
    sp.add_argument("--lines", type=int, default=2000)
    sp.add_argument("--steps", type=int, default=120, help="grid pitch = radius/steps")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--workers", type=int, default=1)

    sp = add("voxelize", cmd_voxelize, "lattice approximation of a region")
    sp.add_argument("--region", required=True)
    sp.add_argument("--h", type=float, required=True, help="cell scale")
    sp.add_argument("--samples-per-cell", type=int, default=9)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--workers", type=int, default=1)

    sp = add("c1", cmd_c1, "exact minimum distortion into L1")
    add_metric_input(sp)
    sp.add_argument(
        "--subsample",
        type=int,
        default=None,
        metavar="M",
        help="farthest-point subsample to M points before the LP",
    )
    sp.add_argument("--refine", choices=("auto", "on", "off"), default="auto")

    sp = add("sparsest-cut", cmd_sparsest_cut, "cut optimum vs LP and SDP bounds")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--instance", help="file: n, capacity rows, demand rows")
    group.add_argument("--random", metavar="N,SEED", help="random instance")
    sp.add_argument("--solver", choices=("lp", "sdp", "opt", "all"), default="all")
    sp.add_argument("--sdp-max-iter", type=int, default=20000)

    sp = add("duality", cmd_duality, "distortion-to-gap instance for a metric space")
    add_metric_input(sp)

    sp = add("poincare", cmd_poincare, "vertical-vs-horizontal functional identities")
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--set", required=True, metavar="SPEC", help="support set spec")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--values", default="0,3", metavar="LO,HI", help="integer value range")
    sp.add_argument("--local", type=int, default=None, help="localization radius n")
    sp.add_argument("--alpha", type=float, default=21.0, help="window inflation factor")
    sp.add_argument("--mem-cap-mib", type=float, default=4096.0)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with shared_pool(), one_blas_thread():
            t0 = time.monotonic()
            out = _OutDir(args.out_dir)
            params, summary = args.fn(args, out)
            out.json("run_record.json", run_record(args.command, params, out.names, t0))
            print(summary)
            if out.unconverged is not None:
                raise ConvergenceError(out.unconverged)
            return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
