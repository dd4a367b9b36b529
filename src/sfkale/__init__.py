"""Scalar-flat Kahler ALE surfaces over cyclic and polyhedral quotients.

Exact resolution combinatorics (continued fractions, lattice chains,
invariant monomials, chart atlases), moduli-space dimension counts,
and a finite-difference verifier for explicit Kahler potentials.
"""

from . import errors, groups, hj, moduli
from .errors import *
from .groups import *
from .hj import *
from .moduli import *

# curvature needs numpy; it loads on first use of one of its names, so
# the exact layers and their CLI verbs start without numpy
_CURVATURE_NAMES = (
    "Potential",
    "SamplePlan",
    "CurvatureReport",
    "DecayEstimate",
    "flat",
    "eguchi_hanson",
    "burns",
    "custom_radial",
    "custom_general",
    "sample_points",
    "hermitian_hessian",
    "scalar_curvature",
    "metric_deviations",
    "verify_scalar_flat",
    "scalar_curvature_derivative",
    "decay_order",
    "weighted_sup_norm",
)


def __getattr__(name):
    if name not in _CURVATURE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import curvature

    return getattr(curvature, name)


__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *hj.__all__,
    *groups.__all__,
    *moduli.__all__,
    *_CURVATURE_NAMES,
    "__version__",
]
