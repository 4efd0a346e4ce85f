"""Radial sign-changing solutions of the Brezis-Nirenberg problem on the unit ball.

Shooting solver for -u'' - (n-1)/r u' = lam*u + |u|^(2*-2) u with u(1)=0,
targeting a prescribed number of nodal regions, plus the diagnostics that
verify the asymptotic laws of the least-energy sign-changing family as
lam -> 0 (concentration rates, bubble and Green-function limits, energy
quantization).
"""

from .asymptotics import build_record, rate_law_report
from .model import ConfigError, Error, Params
from .ode import integrate
from .shooting import continuation_sweep, solve_nodal

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "Error",
    "Params",
    "build_record",
    "continuation_sweep",
    "integrate",
    "rate_law_report",
    "solve_nodal",
    "__version__",
]
