"""Coadjoint-orbit character formulas and equivariant Szego kernel
asymptotics on complex projective space, verified against exact
Hardy-space models."""

from .groups import (
    AssumptionViolation,
    CompactGroup,
    HalfWeight,
    InvariantMetric,
    UnsupportedGroupError,
    ad_on_cartan_complement,
    adjoint_action,
    build_group,
    group_volumes,
    half_weight,
    haar_quadrature,
    trace_metric,
)
from .characters import (
    OrbitQuadrature,
    QuadratureDisagreement,
    exp_jacobian,
    kirillov_character,
    orbit_quadrature,
    orbit_volume,
    peter_weyl_projector_weight,
    scaled_dimension,
    weyl_character,
    weyl_dimension,
)
from .models import (
    ConeDistance,
    LocusSample,
    ProjectiveModel,
    build_model,
    MODEL_IDS,
    unit_point,
)
from .hardy import (
    IsotypicBasis,
    equivariant_kernel,
    equivariant_kernel_log,
    isotypic_basis,
    isotypic_dim,
    orbit_separation,
)
from .predictor import (
    Prediction,
    dimension_coefficient,
    gaussian_pair_exponent,
    leading_coefficient,
    predict_near_diagonal,
)
from .harness import ExperimentConfig, FitResult, Row, run_suite

__version__ = "0.1.0"
