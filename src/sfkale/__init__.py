"""Scalar-flat Kahler ALE surfaces over cyclic and polyhedral quotients.

Exact resolution combinatorics (continued fractions, lattice chains,
invariant monomials, chart atlases), moduli-space dimension counts,
and a finite-difference verifier for explicit Kahler potentials.
"""

from .errors import (
    ConditionViolationError,
    DegenerateMetricError,
    InsufficientDecadeError,
    InvalidPairError,
    SfkaleError,
    UnsupportedParameterError,
)
from .hj import (
    Chart,
    ChartAtlas,
    HJExpansion,
    LatticeChain,
    MonomialChain,
    chart_atlas,
    determinant_identity_holds,
    embedding_dimension,
    evaluate_fraction,
    format_monomial,
    hj_expand,
    invariant_monomials,
    lattice_chain,
    monomial_relation_holds,
    pairing,
    transition_cocycle_holds,
    transition_matrices,
)
from .groups import (
    GroupKind,
    GroupSpec,
    cyclic_group,
    format_group_spec,
    group_order,
    is_su2,
    parse_group_spec,
    validate_group,
)
from .moduli import (
    ModuliDimensions,
    ResolutionString,
    cyclic_moduli,
    deformation_dimension,
    family_dimension,
    moduli_report,
    noncyclic_moduli,
    resolution_string,
    riemenschneider_identities_hold,
    riemenschneider_sweep,
    table1_rows,
    table3_rows,
)
# curvature needs numpy; it loads on first use of one of its names, so
# the exact layers and their CLI verbs start without numpy
_CURVATURE_NAMES = frozenset({
    "CurvatureReport",
    "DecayEstimate",
    "Potential",
    "SamplePlan",
    "burns",
    "custom_general",
    "custom_radial",
    "decay_order",
    "eguchi_hanson",
    "flat",
    "hermitian_hessian",
    "metric_deviations",
    "sample_points",
    "scalar_curvature",
    "scalar_curvature_derivative",
    "verify_scalar_flat",
    "weighted_sup_norm",
})


def __getattr__(name):
    if name not in _CURVATURE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import curvature

    return getattr(curvature, name)


__version__ = "0.1.0"

__all__ = [
    "SfkaleError",
    "InvalidPairError",
    "ConditionViolationError",
    "UnsupportedParameterError",
    "DegenerateMetricError",
    "InsufficientDecadeError",
    "HJExpansion",
    "LatticeChain",
    "MonomialChain",
    "Chart",
    "ChartAtlas",
    "hj_expand",
    "evaluate_fraction",
    "embedding_dimension",
    "lattice_chain",
    "invariant_monomials",
    "chart_atlas",
    "pairing",
    "determinant_identity_holds",
    "monomial_relation_holds",
    "transition_matrices",
    "transition_cocycle_holds",
    "format_monomial",
    "GroupKind",
    "GroupSpec",
    "cyclic_group",
    "validate_group",
    "group_order",
    "is_su2",
    "format_group_spec",
    "parse_group_spec",
    "ResolutionString",
    "ModuliDimensions",
    "resolution_string",
    "deformation_dimension",
    "family_dimension",
    "cyclic_moduli",
    "noncyclic_moduli",
    "moduli_report",
    "table1_rows",
    "table3_rows",
    "riemenschneider_identities_hold",
    "riemenschneider_sweep",
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
    "__version__",
]
