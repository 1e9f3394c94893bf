"""Discrete Heisenberg group arithmetic.

The discrete group of rank k lives on integer coordinates (x, y, w) with
x, y in Z^k, realized by (k+2) x (k+2) unitriangular integer matrices
whose first row carries x, last column carries y, and corner carries w.
Matrix multiplication gives the group law

    (x, y, w) * (x', y', w') = (x + x', y + y', w + w' + x . y')

with identity (0, 0, 0) and inverse (-x, -y, -w + x . y).

The continuous group's regions (``heislab.continuum``) use exponential
coordinates (x, y, z), linked to this chart by w = z + (x . y) / 2.

All discrete coordinates are confined to signed 64-bit range; an
operation that would leave it raises OverflowError instead of wrapping.
"""

from __future__ import annotations

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

    def coords(self) -> tuple:
        return self.x + self.y + (self.w,)

    def to_text(self) -> str:
        return row_text(self.k, self.coords())


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
