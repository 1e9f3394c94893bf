"""Per-layer spans and counts, recorded from outside the program.

``Tracer.install`` replaces public functions of the heislab modules with
wrappers that add their wall time and counts to named metrics.  Every
module namespace that imported a function by name gets the wrapper too,
so calls from ``heislab.cli`` and between modules are seen.  A time
metric counts only its outermost active call, so nested calls of the
same layer are not counted twice.  ``cli.self_s`` is a command's wall
time minus the time spent inside any outermost wrapped call.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# metric name -> unit; this is also the order in which they are reported
PER_LAYER = {
    "cli.self_s": "s",
    "cayley.ball_s": "s",
    "cayley.ball_points": "count",
    "cayley.word_distance_s": "s",
    "cayley.word_distance_calls": "count",
    "group.mul_calls": "count",
    "perimeter.build_s": "s",
    "perimeter.points_built": "count",
    "perimeter.hperim_s": "s",
    "perimeter.hperim_calls": "count",
    "perimeter.hperim_points": "count",
    "perimeter.vperim_s": "s",
    "perimeter.vspectrum_calls": "count",
    "poincare.sides_s": "s",
    "poincare.coarea_s": "s",
    "poincare.coarea_levels": "count",
    "poincare.local_s": "s",
    "continuum.mc_profile_s": "s",
    "continuum.mc_samples": "count",
    "continuum.voxelize_s": "s",
    "continuum.voxels": "count",
    "lines.nm_s": "s",
    "lines.histogram_s": "s",
    "lines.lines_traced": "count",
    "rng.uniforms_calls": "count",
    "rng.uniforms_s": "s",
    "parallel.block_map_calls": "count",
    "parallel.block_map_s": "s",
    "simplex.solve_calls": "count",
    "simplex.solve_s": "s",
    "simplex.pivots": "count",
    "simplex.columns": "count",
    "simplex.refine_s": "s",
    "simplex.ms_per_pivot": "ms",
    "embeddings.c1_s": "s",
    "embeddings.negtype_s": "s",
    "embeddings.ball_metric_s": "s",
    "sparsecut.lp_s": "s",
    "sparsecut.lp_rounds": "count",
    "sparsecut.triangle_rows": "count",
    "sparsecut.sdp_s": "s",
    "sparsecut.sdp_iterations": "count",
    "sparsecut.opt_s": "s",
    "sparsecut.harness_s": "s",
}


def _arg(fn, name):
    """Extractor of one named argument, however the caller passed it."""
    sig = inspect.signature(fn)

    def get(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return get


class Tracer:
    def __init__(self):
        self.values = defaultdict(float)
        self.active = defaultdict(int)  # time metric -> open calls
        self.depth = 0  # open wrapped calls of any kind
        self.inside_s = 0.0  # time in outermost wrapped calls

    # -- wrappers ---------------------------------------------------------

    def timed(self, fn, time_key, count_key=None, extra=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = tracer.active[time_key] == 0
            top = tracer.depth == 0
            tracer.active[time_key] += 1
            tracer.depth += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer.depth -= 1
                tracer.active[time_key] -= 1
                if outermost:
                    tracer.values[time_key] += dt
                if top:
                    tracer.inside_s += dt
                if count_key is not None:
                    tracer.values[count_key] += 1
            if extra is not None:
                for key, inc in extra(args, kwargs, result).items():
                    tracer.values[key] += inc
            return result

        return wrapper

    def counted(self, fn, count_key):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.values[count_key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap the layer boundaries of every heislab module."""
        from heislab import (
            cayley, continuum, embeddings, group, lines, parallel, perimeter,
            poincare, rng, simplex, sparsecut,
        )

        t = self
        spans = []  # (owner, attribute, wrapper factory)

        def fn(owner, name, factory):
            spans.append((owner, name, factory))

        fn(cayley, "ball", lambda f: t.timed(
            f, "cayley.ball_s", extra=lambda a, k, r: {"cayley.ball_points": r.size}))
        fn(cayley, "word_distance", lambda f: t.timed(
            f, "cayley.word_distance_s", "cayley.word_distance_calls"))
        fn(group.DiscreteElement, "__mul__", lambda f: t.counted(f, "group.mul_calls"))

        fn(perimeter.FiniteSet, "__init__", lambda f: t.timed(
            f, "perimeter.build_s",
            extra=lambda a, k, r: {"perimeter.points_built": a[0].size}))
        for name in ("box_set", "ball_set", "column_set", "random_blob",
                     "parse_set_spec", "default_corpus"):
            fn(perimeter, name, lambda f: t.timed(f, "perimeter.build_s"))
        hp_set = _arg(perimeter.horizontal_perimeter, "S")
        fn(perimeter, "horizontal_perimeter", lambda f: t.timed(
            f, "perimeter.hperim_s", "perimeter.hperim_calls",
            extra=lambda a, k, r: {"perimeter.hperim_points": hp_set(a, k).size}))
        fn(perimeter, "vertical_perimeter", lambda f: t.timed(f, "perimeter.vperim_s"))
        fn(perimeter, "vertical_spectrum", lambda f: t.timed(
            f, "perimeter.vperim_s", "perimeter.vspectrum_calls"))

        fn(poincare, "poincare_sides", lambda f: t.timed(f, "poincare.sides_s"))
        fn(poincare, "coarea", lambda f: t.timed(
            f, "poincare.coarea_s",
            extra=lambda a, k, r: {"poincare.coarea_levels": len(r.levels)}))
        fn(poincare, "local_poincare", lambda f: t.timed(f, "poincare.local_s"))

        mc_samples = _arg(continuum.mc_vertical_profile, "samples")
        mc_scales = _arg(continuum.mc_vertical_profile, "s_values")
        fn(continuum, "mc_vertical_profile", lambda f: t.timed(
            f, "continuum.mc_profile_s",
            extra=lambda a, k, r: {
                "continuum.mc_samples": mc_samples(a, k) * len(mc_scales(a, k))}))
        fn(continuum, "voxelize", lambda f: t.timed(
            f, "continuum.voxelize_s", extra=lambda a, k, r: {"continuum.voxels": r.size}))

        fn(lines, "nonmonotonicity", lambda f: t.timed(f, "lines.nm_s"))
        fn(lines, "interval_histogram", lambda f: t.timed(f, "lines.histogram_s"))
        fn(lines, "line_trace", lambda f: t.counted(f, "lines.lines_traced"))

        fn(rng.Rng, "uniforms", lambda f: t.timed(f, "rng.uniforms_s", "rng.uniforms_calls"))
        fn(rng, "uniform_matrix", lambda f: t.timed(f, "rng.uniforms_s", "rng.uniforms_calls"))

        fn(parallel, "block_map", lambda f: t.timed(
            f, "parallel.block_map_s", "parallel.block_map_calls"))

        lp_matrix = _arg(simplex.solve_lp, "A")

        def solve_extra(a, k, r):
            out = {"simplex.pivots": r.iterations,
                   "simplex.columns": len(lp_matrix(a, k)[0])}
            if t.active["sparsecut.lp_s"]:
                out["sparsecut.lp_rounds"] = 1
            return out

        fn(simplex, "solve_lp", lambda f: t.timed(
            f, "simplex.solve_s", "simplex.solve_calls", extra=solve_extra))
        fn(simplex, "_exact_from_basis", lambda f: t.timed(f, "simplex.refine_s"))

        fn(embeddings, "c1_distortion", lambda f: t.timed(f, "embeddings.c1_s"))
        fn(embeddings, "is_negative_type", lambda f: t.timed(f, "embeddings.negtype_s"))
        fn(embeddings, "ball_metric", lambda f: t.timed(f, "embeddings.ball_metric_s"))

        fn(sparsecut, "lp_relaxation", lambda f: t.timed(
            f, "sparsecut.lp_s",
            extra=lambda a, k, r: {"sparsecut.triangle_rows": r.triangle_rows}))
        fn(sparsecut, "gl_sdp", lambda f: t.timed(
            f, "sparsecut.sdp_s",
            extra=lambda a, k, r: {"sparsecut.sdp_iterations": r.iterations}))
        fn(sparsecut, "opt_bruteforce", lambda f: t.timed(f, "sparsecut.opt_s"))
        fn(sparsecut, "duality_harness", lambda f: t.timed(f, "sparsecut.harness_s"))

        modules = [m for name, m in sys.modules.items()
                   if name == "heislab" or name.startswith("heislab.")]
        for owner, name, factory in spans:
            orig = getattr(owner, name)
            wrapper = factory(orig)
            setattr(owner, name, wrapper)
            # names imported with "from .x import name" are separate bindings
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)

    # -- command boundary -------------------------------------------------

    def command_done(self, wall_s: float, inside_before: float) -> None:
        self.values["cli.self_s"] += wall_s - (self.inside_s - inside_before)

    def report(self, rounds: int) -> dict:
        """Per-layer metrics per round of the command list."""
        out = {}
        for name, unit in PER_LAYER.items():
            v = self.values.get(name, 0.0) / rounds
            if unit == "count" and float(v).is_integer():
                v = int(v)
            out[name] = {"value": v, "unit": unit}
        pivots = self.values.get("simplex.pivots", 0.0)
        ms = 1000.0 * self.values.get("simplex.solve_s", 0.0) / pivots if pivots else 0.0
        out["simplex.ms_per_pivot"] = {"value": ms, "unit": "ms"}
        return out
