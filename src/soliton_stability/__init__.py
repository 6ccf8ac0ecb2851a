"""Numerical verification engine for translator stability identities.

The package computes the geometry of chart-defined Lagrangian submanifolds of
complex Euclidean space, evaluates the translation-weighted area functional
and its first and second variations by independent routes, and certifies that
for closed-form (Lagrangian) variations the second variation collapses to a
nonnegative perfect-square integral.
"""

from .charts import (
    AmbientStructure,
    Chart,
    builtin_chart,
    chart_from_config,
    eval_jets,
    flat_lagrangian_plane,
    grim_reaper_cylinder,
    non_lagrangian_patch,
    perturbed_grim_reaper,
    standard_structure,
    uniform_grid,
)
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DomainError,
    EvaluationError,
    ExpressionError,
    ImmersionError,
    NotASolitonError,
    SolitonStabilityError,
    UnsupportedChartError,
)
from .geometry import (
    DiagnosticsReport,
    PointGeometry,
    curvature_tensor,
    kaehler_pullback,
    mean_curvature_vector,
    point_geometry,
    soliton_residual,
)
from .jets import Jet, constant, variables
from .quadrature import QuadratureGrid, tensor_rule
from .reports import (
    VariationReport,
    evaluate_variation,
    reports_to_csv,
    reports_to_json,
    run_variation_suite,
)
from .stability import (
    GridGeometry,
    first_variation,
    first_variation_fd,
    grid_geometry,
    integration_by_parts_report,
    prepare_variation,
    second_variation_divergence,
    second_variation_fd_oracle,
    second_variation_operator,
    second_variation_square,
    variation_scale,
)
from .variations import (
    OneFormField,
    ScalarField,
    covariant_calculus,
    default_support_box,
    generic_variation,
    hamiltonian_variation,
    lagrangian_defect,
    normal_field_from_form,
    random_generic_variation,
    random_hamiltonian_variation,
    random_polynomial_field,
    scalar_field_from_expression,
    variation_field_jets,
)
from .wirtinger import (
    CylinderIntegrals,
    closed_form_deviations,
    cylinder_stability_integrals,
    dirichlet_gap,
    dirichlet_ground_state,
)

__version__ = "0.1.0"
