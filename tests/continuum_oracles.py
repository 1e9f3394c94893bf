"""Continuum fixtures and the dilation law of vertical profiles, as oracles.

``Dilation`` is a region with no interval verdict, so it also exercises
the sampled fallback of every screened path.  ``scaling_check`` tests
profile(dil_t E)(rho) = t^(2k+1) profile(E)(rho - log2 t) through the
library's Monte Carlo profile, or for boxes in closed form.
"""

import math
from dataclasses import dataclass

import numpy as np

from heislab.continuum import Box, Region, box_vertical_profile, mc_vertical_profile
from heislab.errors import ValidationError


def quasi_ball_volume(k: int, R: float) -> float:
    """Volume of {sum|x| + sum|y| + 4 sqrt|z| <= R}."""
    return 2 ** (2 * k - 2) * R ** (2 * k + 2) / math.factorial(2 * k + 2)


@dataclass(frozen=True)
class Dilation(Region):
    base: Region = None
    t: float = 1.0

    def contains(self, pts):
        q = pts.copy()
        q[:, : 2 * self.k] /= self.t
        q[:, 2 * self.k] /= self.t * self.t
        return self.base.contains(q)

    def bounding_box(self):
        lo, hi = self.base.bounding_box()
        s = np.array([self.t] * (2 * self.k) + [self.t * self.t])
        return lo * s, hi * s


@dataclass
class ScalingCheck:
    lhs: float  # profile of the dilated region at rho
    rhs: float  # t^(2k+1) * profile of the base region at rho - log2 t
    residual: float
    stderr: float  # 0.0 on the closed-form box route

    @property
    def relative(self) -> float:
        if self.lhs == 0 and self.rhs == 0:
            return 0.0
        return self.residual / max(abs(self.rhs), 1e-300)


def scaling_check(
    region: Region,
    t: float,
    rhos,
    samples: int = 100_000,
    seed: int = 0,
    sampled: bool = False,
) -> list[ScalingCheck]:
    """The dilation law at each scale rho in rhos.

    A Box evaluates both sides in closed form, leaving a residual at
    rounding level for every t, unless sampled is set.  Otherwise both
    sides come from mc_vertical_profile with one seed, so the two runs
    share their uniforms scale by scale: the residual vanishes up to the
    rounding of the volume prefactor when t is a power of two (coordinate
    doubling is exact in floating point), and is a small multiple of
    stderr otherwise.
    """
    if t <= 0:
        raise ValidationError("dilation factor must be positive")
    shift = math.log2(t)
    factor = t ** (2 * region.k + 1)
    if isinstance(region, Box) and not sampled:
        out = []
        for rho in rhos:
            lhs = float(box_vertical_profile(region.k, t * region.r, rho))
            rhs = factor * float(box_vertical_profile(region.k, region.r, rho - shift))
            out.append(ScalingCheck(lhs, rhs, abs(lhs - rhs), 0.0))
        return out
    base = mc_vertical_profile(region, [rho - shift for rho in rhos], samples, seed)
    dil = mc_vertical_profile(Dilation(region.k, region, t), list(rhos), samples, seed)
    return [
        ScalingCheck(
            d.value,
            factor * b.value,
            abs(d.value - factor * b.value),
            math.hypot(d.stderr, factor * b.stderr),
        )
        for b, d in zip(base, dil)
    ]
