"""Metric spaces built only by the tests: point clouds and snowflakes."""

import numpy as np

from heislab.embeddings import MetricSpace
from heislab.errors import ValidationError


def from_points_l1(points) -> MetricSpace:
    pts = np.asarray(points, dtype=float)
    d = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    return MetricSpace(d)


def from_points_l2(points) -> MetricSpace:
    pts = np.asarray(points, dtype=float)
    diff = pts[:, None, :] - pts[None, :, :]
    return MetricSpace(np.sqrt((diff * diff).sum(axis=2)))


def snowflake(ms: MetricSpace, eps: float) -> MetricSpace:
    """Raise all distances to the power 1 - eps (0 <= eps < 1)."""
    if not 0.0 <= eps < 1.0:
        raise ValidationError("snowflake exponent parameter must be in [0, 1)")
    return MetricSpace(ms.d ** (1.0 - eps))
