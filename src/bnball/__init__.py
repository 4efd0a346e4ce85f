"""Radial sign-changing solutions of the Brezis-Nirenberg problem on the unit ball.

Shooting solver for -u'' - (n-1)/r u' = lam*u + |u|^(2*-2) u with u(1)=0,
targeting a prescribed number of nodal regions, plus the diagnostics that
verify the asymptotic laws of the least-energy sign-changing family as
lam -> 0 (concentration rates, bubble and Green-function limits, energy
quantization).
"""

from .bubble import Bubble, DimensionalConstants, bubble_eval, constants, lambda_1, normalized_mu, omega_n
from .model import (
    ConfigError,
    Error,
    FileIOError,
    NodalFeatures,
    Params,
)
from .ode import RadialProfile, integrate
from .shooting import (
    SignChangingSolution,
    SweepPoint,
    continuation_sweep,
    solve_nodal,
)
from .diagnostics import RadialNorms, Residuals, certify, radial_norms
from .green import green_at_center, green_gradient_at_center
from .transforms import (
    AbsorbedProfile,
    ScalingMap,
    absorbed_equation_residual,
    lambda_absorb,
    lambda_restore,
    norm_invariance_check,
    rescale_profile,
)
from .asymptotics import (
    SweepRecord,
    annulus_envelope_violation,
    bubble_deviation,
    build_record,
    center_envelope_violation,
    delta_of_epsilon,
    green_profile_gaps,
    rate_law_report,
    rescale_minus,
    rescale_plus,
    rescaled_envelope_violation,
)

__version__ = "0.1.0"

__all__ = [
    "AbsorbedProfile",
    "Bubble",
    "ConfigError",
    "DimensionalConstants",
    "Error",
    "FileIOError",
    "NodalFeatures",
    "Params",
    "RadialNorms",
    "RadialProfile",
    "Residuals",
    "ScalingMap",
    "SignChangingSolution",
    "SweepPoint",
    "SweepRecord",
    "absorbed_equation_residual",
    "annulus_envelope_violation",
    "bubble_deviation",
    "bubble_eval",
    "build_record",
    "center_envelope_violation",
    "certify",
    "constants",
    "continuation_sweep",
    "delta_of_epsilon",
    "green_at_center",
    "green_gradient_at_center",
    "green_profile_gaps",
    "integrate",
    "lambda_1",
    "lambda_absorb",
    "lambda_restore",
    "norm_invariance_check",
    "normalized_mu",
    "omega_n",
    "radial_norms",
    "rate_law_report",
    "rescale_minus",
    "rescale_plus",
    "rescale_profile",
    "rescaled_envelope_violation",
    "solve_nodal",
    "__version__",
]
