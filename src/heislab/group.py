"""Discrete Heisenberg group arithmetic.

The discrete group of rank k lives on integer coordinates (x, y, w) with
x, y in Z^k, realized by (k+2) x (k+2) unitriangular integer matrices
whose first row carries x, last column carries y, and corner carries w.
Matrix multiplication gives the group law

    (x, y, w) * (x', y', w') = (x + x', y + y', w + w' + x . y')

with identity (0, 0, 0) and inverse (-x, -y, -w + x . y).

The library computes on int64 coordinate rows (x_1..x_k, y_1..y_k, w):
``quotient_rows`` forms g^-1 h for a whole block of rows h at once.
``DiscreteElement`` is the scalar form of the same law on Python ints.
Element text k;x1,..,xk;y1,..,yk;w comes from one format string per k,
``row_format``, which ``row_text`` fills for one row and
``perimeter.FiniteSet.to_text`` for a whole set.

The continuous group's regions (``heislab.continuum``) use exponential
coordinates (x, y, z), linked to this chart by w = z + (x . y) / 2.

All discrete coordinates are confined to signed 64-bit range; an
operation that would leave it raises OverflowError instead of wrapping.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

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

    def coords(self) -> tuple:
        return self.x + self.y + (self.w,)

    def to_text(self) -> str:
        return row_text(self.k, self.coords())


@functools.cache
def row_format(k: int) -> str:
    """str.format template of the element text k;x1,..,xk;y1,..,yk;w."""
    fields = ",".join(["{}"] * k)
    return f"{k};{fields};{fields};{{}}"


def row_text(k: int, row) -> str:
    """Element text of a coordinate row of ints."""
    return row_format(k).format(*row)


def quotient_rows(k: int, g, rows: np.ndarray) -> np.ndarray:
    """g^-1 h for every row h of a block of coordinate rows:

        (x_h - x_g, y_h - y_g, w_h - w_g - x_g . (y_h - y_g)).

    int64 arithmetic wraps modulo 2^64, so the result is exact wherever the
    true one fits; a float bound on every term finds the rows where it might
    not, and those are checked on Python ints, raising OverflowError.
    """
    g = np.asarray(g, dtype=np.int64)
    out = rows - g
    out[:, 2 * k] -= out[:, k : 2 * k] @ g[:k]
    size = np.abs(rows.astype(float)) + np.abs(g.astype(float))
    size[:, 2 * k] += size[:, k : 2 * k] @ np.abs(g[:k].astype(float))
    if size.max(initial=0.0) >= 2.0**62:
        exact = rows.astype(object) - g.astype(object)
        exact[:, 2 * k] -= exact[:, k : 2 * k] @ g[:k].astype(object)
        for v in exact.ravel():
            _chk(v)
    return out
