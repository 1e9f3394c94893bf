"""Exception taxonomy shared by the library and the CLI exit codes."""

import math


class ValidationError(ValueError):
    """Malformed or out-of-contract input (CLI exit code 2)."""


class ResourceCapError(RuntimeError):
    """A computation refused to exceed its memory budget (CLI exit code 3)."""


class ConvergenceError(RuntimeError):
    """An iterative solver hit its cap without converging (CLI exit code 4)."""


def require_positive(value: float, what: str) -> float:
    """value, if it is a positive finite number; else a ValidationError."""
    if not (value > 0 and math.isfinite(value)):
        raise ValidationError(f"{what} must be positive and finite")
    return value
