"""Changes of variables used throughout the solution analysis.

Two families: the inner rescaling y = M^beta r with amplitude division by
M, which fixes the height of a blow-up profile at 1 while preserving the
gradient and critical norms, and the lambda-absorbing scaling
rho = sqrt(lambda) r, w = lambda^{-(n-2)/4} u, which removes the linear
term from the radial equation.  Both are exact algebraic maps; everything
here is testable by round-trip and by quadrature identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import radial_norms
from .model import ConfigError, Params
from .ode import Event, RadialProfile

_KINDS = ("inner-plus", "inner-minus", "lambda-absorb")


@dataclass(frozen=True)
class ScalingMap:
    """A pure radial dilation r -> factor * r with its amplitude scaling.

    kind selects the family: the inner kinds use factor M^beta and divide
    amplitudes by M (parameter = M, the extremum height being normalized;
    inner-minus applies to the negative part), lambda-absorb uses factor
    sqrt(lambda) and divides amplitudes by lambda^{(n-2)/4}
    (parameter = lambda).
    """

    kind: str
    n: int
    parameter: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown scaling kind {self.kind!r}; want one of {_KINDS}")
        if not (math.isfinite(self.parameter) and self.parameter > 0.0):
            raise ConfigError(f"scaling parameter must be positive, got {self.parameter}")

    @property
    def radius_factor(self) -> float:
        if self.kind == "lambda-absorb":
            return math.sqrt(self.parameter)
        return self.parameter ** (2.0 / (self.n - 2.0))

    @property
    def value_factor(self) -> float:
        """Transformed amplitude = value_factor * original amplitude."""
        if self.kind == "lambda-absorb":
            return self.parameter ** (-(self.n - 2.0) / 4.0)
        return 1.0 / self.parameter

    def forward(self, r):
        return self.radius_factor * np.asarray(r, dtype=float)

    def inverse(self, y):
        return np.asarray(y, dtype=float) / self.radius_factor


def rescale_profile(profile: RadialProfile, M: float, params: Params | None = None) -> RadialProfile:
    """The inner rescaling of a whole profile: u~(y) = u(y M^{-beta}) / M.

    Valid for any radial function, not only solutions.  The rescaled
    profile solves the same equation with lambda replaced by
    lambda M^{-2 beta}, so that is the params it carries.
    """
    if params is None:
        params = profile.params
    smap = ScalingMap(kind="inner-plus", n=params.n, parameter=M)
    c = smap.radius_factor
    scaled_params = Params(n=params.n, lam=params.lam / (M * M) ** (2.0 / (params.n - 2.0)))
    events = []
    for e in profile.events:
        # zero crossings store u' there, derivative zeros store u
        factor = 1.0 / (M * c) if e.kind == "zero-crossing" else 1.0 / M
        events.append(Event(kind=e.kind, r=c * e.r, value=factor * e.value))

    def dense(y):
        r = np.asarray(y, dtype=float) / c
        return profile.u(r) / M, profile.du(r) / (M * c)

    return RadialProfile(
        params=scaled_params,
        a=profile.a / M,
        knots=c * profile.knots,
        values=profile.values / M,
        derivs=profile.derivs / (M * c),
        events=events,
        r_end=c * profile.r_end,
        dense=dense,
        steps=c * np.asarray(profile.steps, dtype=float),
        rtol=profile.rtol,
    )


@dataclass(frozen=True)
class AbsorbedProfile:
    """A profile in the lambda-free frame w(rho) = lambda^{-(n-2)/4} u(rho/sqrt(lambda)).

    rho, w, dw sample the image grid; w_at / dw_at evaluate anywhere in the
    image domain through the source profile, so no interpolation error is
    added by the transform itself.
    """

    source: RadialProfile
    params: Params
    rho: np.ndarray
    w: np.ndarray
    dw: np.ndarray

    @property
    def _map(self) -> ScalingMap:
        return ScalingMap(kind="lambda-absorb", n=self.params.n, parameter=self.params.lam)

    def w_at(self, rho):
        m = self._map
        return m.value_factor * self.source.u(m.inverse(rho))

    def dw_at(self, rho):
        m = self._map
        return m.value_factor / m.radius_factor * self.source.du(m.inverse(rho))


def lambda_absorb(profile: RadialProfile, params: Params | None = None) -> AbsorbedProfile:
    """Map a profile to the frame where the equation reads
    w'' + ((n-1)/rho) w' + w + |w|^{2*-2} w = 0."""
    if params is None:
        params = profile.params
    if params.lam <= 0.0:
        raise ConfigError(f"lambda-absorbing scale needs lambda > 0, got {params.lam}")
    smap = ScalingMap(kind="lambda-absorb", n=params.n, parameter=params.lam)
    rho = smap.forward(profile.knots)
    return AbsorbedProfile(
        source=profile,
        params=params,
        rho=rho,
        w=smap.value_factor * profile.values,
        dw=smap.value_factor / smap.radius_factor * profile.derivs,
    )


def lambda_restore(absorbed: AbsorbedProfile) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Invert lambda_absorb; returns (r, u, du) on the source grid."""
    smap = ScalingMap(
        kind="lambda-absorb", n=absorbed.params.n, parameter=absorbed.params.lam
    )
    r = smap.inverse(absorbed.rho)
    u = absorbed.w / smap.value_factor
    du = absorbed.dw * smap.radius_factor / smap.value_factor
    return r, u, du


def absorbed_equation_residual(absorbed: AbsorbedProfile, samples: int = 200) -> float:
    """Largest scaled defect of the lambda-free equation on interior points.

    w'' is formed by a five-point finite difference of the exact first
    derivative (step 1e-3 of the domain span), so the result mixes the
    integration error of the source profile with the difference-quotient
    truncation; for solution profiles both sit near 1e-9.  The defect at
    each point is scaled by the sum of the magnitudes of the equation's
    terms.
    """
    n = absorbed.params.n
    two_star = absorbed.params.two_star
    lo = float(absorbed.rho[0])
    hi = float(absorbed.rho[-1])
    h = 1e-3 * (hi - lo)
    rho = np.linspace(lo + 2.5 * h, hi - 2.5 * h, samples)
    w = np.asarray(absorbed.w_at(rho), dtype=float)
    dw = np.asarray(absorbed.dw_at(rho), dtype=float)
    d2w = (
        np.asarray(absorbed.dw_at(rho - 2 * h), dtype=float)
        - 8.0 * np.asarray(absorbed.dw_at(rho - h), dtype=float)
        + 8.0 * np.asarray(absorbed.dw_at(rho + h), dtype=float)
        - np.asarray(absorbed.dw_at(rho + 2 * h), dtype=float)
    ) / (12.0 * h)
    nonlin = np.abs(w) ** (two_star - 2.0) * w
    first = (n - 1.0) / rho * dw
    defect = d2w + first + w + nonlin
    scale = np.abs(d2w) + np.abs(first) + np.abs(w) + np.abs(nonlin)
    scale = np.where(scale == 0.0, 1.0, scale)
    return float(np.max(np.abs(defect) / scale))


def norm_invariance_check(
    profile: RadialProfile, M: float, params: Params | None = None
) -> tuple[float, float, float]:
    """Quadrature check of the inner rescaling's norm identities.

    Returns relative gaps for: gradient-norm equality, critical-norm
    equality, and the L2 scaling law |u|_2^2 = M^{-(2*-2)} |u~|_2^2.  Both
    sides are computed independently by radial quadrature.
    """
    if params is None:
        params = profile.params
    scaled = rescale_profile(profile, M, params)
    base = radial_norms(profile, params)
    img = radial_norms(scaled, scaled.params)

    def gap(lhs: float, rhs: float) -> float:
        scale = max(abs(lhs), abs(rhs))
        return abs(lhs - rhs) / scale if scale else 0.0

    return (
        gap(base.grad_sq, img.grad_sq),
        gap(base.crit_pow, img.crit_pow),
        gap(base.l2_sq, M ** (-(params.two_star - 2.0)) * img.l2_sq),
    )
