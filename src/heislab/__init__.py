"""Computational lab for Heisenberg-group geometry and sparsest-cut relaxations.

Discrete side: group arithmetic, Cayley balls and word metrics,
horizontal/vertical perimeters of finite lattice sets, and the
functional (Poincare-type) identities that relate them.  Continuous
side: vertical perimeter profiles, cell approximations, and the
line-based nonmonotonicity functional.  Optimization side: cut-cone L1
distortion, negative-type tests, and the sparsest-cut OPT / LP / SDP
stack with the duality bridge between distortion and integrality gaps.
"""

__version__ = "0.1.0"

from .errors import ConvergenceError, ResourceCapError, ValidationError
from .group import DiscreteElement

__all__ = [
    "ConvergenceError",
    "DiscreteElement",
    "ResourceCapError",
    "ValidationError",
    "__version__",
]
