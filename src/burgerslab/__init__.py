"""burgerslab: a spectral laboratory for spatially discretized stochastic
Burgers-type equations and the drift correction acquired in the limit of
asymmetric derivative discretizations."""

__version__ = "0.1.0"

from .spectral import (
    SpectralField,
    band_project,
    from_grid,
    project,
    sobolev_norm,
    sup_norm,
    to_grid,
)
from .schemes import (
    Scheme,
    apply_D_eps,
    apply_Delta_eps,
    apply_hatD,
    apply_Q_eps,
    derivative_symbol,
    finite_difference_scheme,
    galerkin_scheme,
    identity_scheme,
    load_scheme_file,
    validate,
)
from .nonlin import (
    PolynomialMap,
    apply_bilinear,
    apply_pointwise,
    evaluate,
    jacobian,
    laplacian,
    parse_polynomial_map,
)
from .correction import (
    LambdaResult,
    corrected_drift,
    lambda_closed_form,
    lambda_eps,
    lambda_eps_y,
    lambda_quadrature,
    sine_integral,
)
from .noise import (
    CoupledStationaryPair,
    derive_stream,
    sample_stationary_pair,
)
from .integrator import (
    BlowUpError,
    SimConfig,
    TrajectoryRecord,
    run_coupled,
    simulate,
)
from .estimators import (
    chain_rule_defect,
    expected_qv,
    negative_sobolev_distance,
    quadratic_variation,
    rate_fit,
    theta_eps,
    xi_eps,
)

__all__ = [
    "SpectralField",
    "band_project",
    "from_grid",
    "project",
    "sobolev_norm",
    "sup_norm",
    "to_grid",
    "Scheme",
    "apply_D_eps",
    "apply_Delta_eps",
    "apply_hatD",
    "apply_Q_eps",
    "derivative_symbol",
    "finite_difference_scheme",
    "galerkin_scheme",
    "identity_scheme",
    "load_scheme_file",
    "validate",
    "PolynomialMap",
    "apply_bilinear",
    "apply_pointwise",
    "evaluate",
    "jacobian",
    "laplacian",
    "parse_polynomial_map",
    "LambdaResult",
    "corrected_drift",
    "lambda_closed_form",
    "lambda_eps",
    "lambda_eps_y",
    "lambda_quadrature",
    "sine_integral",
    "CoupledStationaryPair",
    "derive_stream",
    "sample_stationary_pair",
    "BlowUpError",
    "SimConfig",
    "TrajectoryRecord",
    "run_coupled",
    "simulate",
    "chain_rule_defect",
    "expected_qv",
    "negative_sobolev_distance",
    "quadratic_variation",
    "rate_fit",
    "theta_eps",
    "xi_eps",
]
