"""The continuous Heisenberg group in exponential coordinates, as an oracle.

Points are (x, y, z) with x, y in R^k and the group law

    u * v = u + v + (omega(u, v) / 2) e_z,
    omega(u, v) = sum_i (x_i(u) y_i(v) - y_i(u) x_i(v)).

The chart is linked to the integer (matrix) chart of
``heislab.group.DiscreteElement`` by w = z + (x . y) / 2, whose identity
and central powers the tests build here.  Lattice points
have integer x, y and z integral or half-integral according to the parity
of x . y.  The regions and line traces of ``heislab.continuum`` and
``heislab.lines`` work on coordinate arrays in this chart; the tests check
the chart itself against the discrete group law here.
"""

import math
from dataclasses import dataclass

from heislab.group import DiscreteElement


@dataclass(frozen=True, slots=True)
class ContinuousPoint:
    """Point (x, y, z) of the rank-k continuous group, exponential chart."""

    k: int
    x: tuple
    y: tuple
    z: float

    def __mul__(self, other: "ContinuousPoint") -> "ContinuousPoint":
        if self.k != other.k:
            raise ValueError("rank mismatch")
        x = tuple(a + b for a, b in zip(self.x, other.x))
        y = tuple(a + b for a, b in zip(self.y, other.y))
        z = self.z + other.z + 0.5 * omega(self, other)
        return ContinuousPoint(self.k, x, y, z)

    def inverse(self) -> "ContinuousPoint":
        return ContinuousPoint(
            self.k,
            tuple(-a for a in self.x),
            tuple(-a for a in self.y),
            -self.z,
        )

    def scaled(self, t: float) -> "ContinuousPoint":
        """Dilation (x, y, z) -> (t x, t y, t^2 z)."""
        return ContinuousPoint(
            self.k,
            tuple(t * a for a in self.x),
            tuple(t * a for a in self.y),
            t * t * self.z,
        )


def omega(u: ContinuousPoint, v: ContinuousPoint) -> float:
    """Standard symplectic form sum_i (x_i(u) y_i(v) - y_i(u) x_i(v))."""
    return sum(a * d - b * c for a, b, c, d in zip(u.x, u.y, v.x, v.y))


def identity(k: int) -> DiscreteElement:
    return DiscreteElement(k, (0,) * k, (0,) * k, 0)


def central(k: int, t: int = 1) -> DiscreteElement:
    """The central element c^t = (0, 0, t)."""
    return DiscreteElement(k, (0,) * k, (0,) * k, t)


def continuous_identity(k: int) -> ContinuousPoint:
    return ContinuousPoint(k, (0.0,) * k, (0.0,) * k, 0.0)


def z_power(k: int, t: float) -> ContinuousPoint:
    return ContinuousPoint(k, (0.0,) * k, (0.0,) * k, t)


def quasi_norm(p: ContinuousPoint) -> float:
    """Homogeneous quasi-norm sum |x_i| + sum |y_i| + 4 sqrt(|z|).

    Comparable with the Carnot-Caratheodory distance to the origin up to
    rank-dependent constants, and exactly 1-homogeneous under dilations.
    """
    s = sum(abs(a) for a in p.x) + sum(abs(a) for a in p.y)
    return s + 4.0 * math.sqrt(abs(p.z))


def to_matrix_coords(p: ContinuousPoint) -> tuple:
    """Exponential chart to matrix chart: (x, y, w) with w = z + (x . y) / 2."""
    dot = sum(a * b for a, b in zip(p.x, p.y))
    return p.x, p.y, p.z + 0.5 * dot


def to_exponential(x, y, w) -> ContinuousPoint:
    """Matrix chart to exponential chart: z = w - (x . y) / 2.

    Accepts real coordinates; lattice elements pass their fields through
    unchanged, so the round trip with to_lattice is exact on them.
    """
    xs = tuple(float(a) for a in x)
    ys = tuple(float(a) for a in y)
    if len(xs) != len(ys):
        raise ValueError("rank mismatch")
    dot = sum(a * b for a, b in zip(xs, ys))
    return ContinuousPoint(len(xs), xs, ys, float(w) - 0.5 * dot)


def to_lattice(p: ContinuousPoint, tol: float = 1e-9) -> DiscreteElement:
    """Exponential chart to matrix chart; fails off the lattice."""
    x = [round(a) for a in p.x]
    y = [round(a) for a in p.y]
    if any(abs(a - b) > tol for a, b in zip(p.x, x)) or any(
        abs(a - b) > tol for a, b in zip(p.y, y)
    ):
        raise ValueError("point is not a lattice point (x, y not integral)")
    dot = sum(a * b for a, b in zip(x, y))
    w = p.z + 0.5 * dot
    wi = round(w)
    if abs(w - wi) > tol:
        raise ValueError("point is not a lattice point (w not integral)")
    return DiscreteElement(p.k, tuple(x), tuple(y), int(wi))
