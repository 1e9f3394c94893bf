"""Heisenberg group arithmetic, discrete and continuous.

The discrete group of rank k lives on integer coordinates (x, y, w) with
x, y in Z^k, realized by (k+2) x (k+2) unitriangular integer matrices
whose first row carries x, last column carries y, and corner carries w.
Matrix multiplication gives the group law

    (x, y, w) * (x', y', w') = (x + x', y + y', w + w' + x . y')

with identity (0, 0, 0) and inverse (-x, -y, -w + x . y).

The continuous group uses exponential coordinates (x, y, z), x, y in R^k,
with

    u * v = u + v + (omega(u, v) / 2) e_z,
    omega(u, v) = sum_i (x_i(u) y_i(v) - y_i(u) x_i(v)).

The two charts are linked by w = z + (x . y) / 2.  Lattice points are the
subgroup generated by the standard horizontal generators; in exponential
coordinates they have integer x, y and z integral or half-integral
according to the parity of x . y.

All discrete coordinates are confined to signed 64-bit range; an
operation that would leave it raises OverflowError instead of wrapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


def _chk(v: int) -> int:
    if v < _I64_MIN or v > _I64_MAX:
        raise OverflowError(f"coordinate {v} leaves signed 64-bit range")
    return v


@dataclass(frozen=True, slots=True)
class DiscreteElement:
    """Group element (x, y, w) of the rank-k discrete Heisenberg group."""

    k: int
    x: tuple
    y: tuple
    w: int

    def __post_init__(self):
        if len(self.x) != self.k or len(self.y) != self.k:
            raise ValueError("coordinate tuples must have length k")

    def __mul__(self, other: "DiscreteElement") -> "DiscreteElement":
        if self.k != other.k:
            raise ValueError("rank mismatch")
        x = tuple(_chk(a + b) for a, b in zip(self.x, other.x))
        y = tuple(_chk(a + b) for a, b in zip(self.y, other.y))
        dot = 0
        for a, b in zip(self.x, other.y):
            dot = _chk(dot + _chk(a * b))
        w = _chk(_chk(self.w + other.w) + dot)
        return DiscreteElement(self.k, x, y, w)

    def inverse(self) -> "DiscreteElement":
        dot = 0
        for a, b in zip(self.x, self.y):
            dot = _chk(dot + _chk(a * b))
        return DiscreteElement(
            self.k,
            tuple(-a for a in self.x),
            tuple(-a for a in self.y),
            _chk(-self.w + dot),
        )

    def is_identity(self) -> bool:
        return self.w == 0 and not any(self.x) and not any(self.y)

    def scaled(self, t: int) -> "DiscreteElement":
        """Group dilation (x, y, w) -> (t x, t y, t^2 w), t integral."""
        return DiscreteElement(
            self.k,
            tuple(_chk(t * a) for a in self.x),
            tuple(_chk(t * a) for a in self.y),
            _chk(t * t * self.w),
        )

    def coords(self) -> tuple:
        return self.x + self.y + (self.w,)

    def to_text(self) -> str:
        return row_text(self.k, self.coords())

    @staticmethod
    def from_text(text: str) -> "DiscreteElement":
        parts = text.strip().split(";")
        if len(parts) != 4:
            raise ValueError(f"malformed element text: {text!r}")
        k = int(parts[0])
        x = tuple(int(v) for v in parts[1].split(",")) if parts[1] else ()
        y = tuple(int(v) for v in parts[2].split(",")) if parts[2] else ()
        w = int(parts[3])
        el = DiscreteElement(k, x, y, w)
        for v in el.coords():
            _chk(v)
        return el


def row_text(k: int, row) -> str:
    """Element text k;x1,..,xk;y1,..,yk;w of a coordinate row of ints."""
    xs = ",".join(map(str, row[:k]))
    ys = ",".join(map(str, row[k : 2 * k]))
    return f"{k};{xs};{ys};{row[2 * k]}"


def identity(k: int) -> DiscreteElement:
    return DiscreteElement(k, (0,) * k, (0,) * k, 0)


def central(k: int, t: int = 1) -> DiscreteElement:
    """The central element c^t = (0, 0, t)."""
    return DiscreteElement(k, (0,) * k, (0,) * k, _chk(t))


def _unit(k: int, i: int, sign: int) -> tuple:
    e = [0] * k
    e[i] = sign
    return tuple(e)


def generators(k: int) -> tuple:
    """The 4k standard generators, in the canonical order

    a_1, b_1, ..., a_k, b_k, a_1^-1, b_1^-1, ..., a_k^-1, b_k^-1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    zero = (0,) * k
    gens = []
    for sign in (1, -1):
        for i in range(k):
            gens.append(DiscreteElement(k, _unit(k, i, sign), zero, 0))
            gens.append(DiscreteElement(k, zero, _unit(k, i, sign), 0))
    return tuple(gens)


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
