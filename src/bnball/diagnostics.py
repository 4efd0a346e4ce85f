"""Identity-based certification of computed radial profiles.

A claimed solution must sit on the Nehari manifold, satisfy the Pohozaev
flux identities on the nodal ball and annulus, and have a nonincreasing
radial energy density E(r) = u'(r)^2/2 + lambda*u(r)^2/2 + |u(r)|^{2*}/2*.
These are exact identities for true solutions, so their residuals measure
integration error rather than model error; the shooting layer rejects any
profile that fails one of them.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

import numpy as np

from .bubble import omega_n
from .model import (
    CertificationFailed,
    EmptyDomain,
    OutOfDomain,
    Params,
    UndefinedResidual,
)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

# Default bound on the relative Nehari and Pohozaev residuals.
RESIDUAL_TOL = 1e-6
# Largest rise of the energy density, relative to E at the innermost knot.
ENERGY_TOL = 1e-9


class RadialNorms(NamedTuple):
    grad_sq: float  # ||u||^2 = omega_n * int u'^2 r^{n-1}
    l2_sq: float  # |u|_2^2
    crit_pow: float  # |u|_{2*}^{2*}


@dataclasses.dataclass(frozen=True)
class Residuals:
    """Certification residuals of one profile, all relative to natural scales."""

    nehari: float
    pohozaev_ball: float
    pohozaev_annulus: float
    energy: float
    e_monotone_violation: float

    def __post_init__(self):
        for field in dataclasses.fields(self):
            if not math.isfinite(getattr(self, field.name)):
                raise CertificationFailed(f"non-finite residual field {field.name}")


def radial_norms(
    profile,
    params: Params,
    domain: tuple[float, float] | None = None,
) -> RadialNorms:
    """Gradient, L2, and critical-power norms over a radial subdomain.

    Volume integrals in polar form, omega_n * int g(r) r^{n-1} dr, taken by
    16-point Gauss-Legendre on each integrator step restricted to the
    domain.  The rule is exact for the dense output's polynomial pieces, so
    the only quadrature error comes from the non-polynomial |u|^{2*} factor
    and sits far below 1e-10 relative; it is also what makes the norms
    additive over disjoint subdomains.  Zero-crossing radii are inserted as
    extra panel boundaries because |u|^{2*} loses smoothness where u
    changes sign.
    """
    if domain is None:
        lo, hi = 0.0, float(profile.r_end)
    else:
        lo, hi = float(domain[0]), float(domain[1])
    if not lo < hi:
        raise EmptyDomain(f"empty radial domain [{lo:g}, {hi:g}]")
    span = max(1.0, abs(profile.r_end))
    if lo < -1e-12 * span or hi > profile.r_end + 1e-12 * span:
        raise OutOfDomain(
            f"domain [{lo:g}, {hi:g}] exceeds profile extent [0, {profile.r_end:g}]"
        )

    cuts = [np.asarray([lo, hi])]
    steps = np.asarray(profile.steps, dtype=float)
    cuts.append(steps[(steps > lo) & (steps < hi)])
    node_radii = np.asarray([e.r for e in profile.zero_crossings()], dtype=float)
    if node_radii.size:
        cuts.append(node_radii[(node_radii > lo) & (node_radii < hi)])
    breaks = np.unique(np.concatenate(cuts))

    half = 0.5 * np.diff(breaks)
    mid = 0.5 * (breaks[1:] + breaks[:-1])
    r = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()

    u, du = profile.u_du(r)
    meas = w * r ** (params.n - 1)
    wn = omega_n(params.n)
    return RadialNorms(
        grad_sq=float(wn * np.sum(du * du * meas)),
        l2_sq=float(wn * np.sum(u * u * meas)),
        crit_pow=float(wn * np.sum(np.abs(u) ** params.two_star * meas)),
    )


def _relative(lhs: float, rhs: float) -> float:
    scale = abs(lhs) or abs(rhs)
    if scale == 0.0:
        return 0.0
    return (lhs - rhs) / scale


def _energy_density(profile, params: Params) -> np.ndarray:
    """E(r) at the knots."""
    u = profile.values
    v = profile.derivs
    return (
        0.5 * v * v
        + 0.5 * params.lam * u * u
        + np.abs(u) ** params.two_star / params.two_star
    )


def _largest_rise(dens: np.ndarray) -> float:
    if dens.size < 2:
        return 0.0
    worst = float(np.max(np.diff(dens)))
    return max(worst, 0.0)


def certify(
    profile,
    params: Params,
    features=None,
    *,
    residual_tol: float = RESIDUAL_TOL,
) -> Residuals:
    """Run every identity check; raise CertificationFailed naming each miss.

    Nehari: ||u||^2 - lambda|u|_2^2 = |u|_{2*}^{2*}, relative to ||u||^2;
    undefined (UndefinedResidual) for the zero profile.

    Pohozaev, relative to lambda|u|_2^2 on each side: with a node at
    r_lambda, lambda * int_{B_{r_lambda}} u^2 equals
    (omega_n/2) r_lambda^n u'(r_lambda)^2, and on the annulus
    lambda * int_A u^2 equals (omega_n/2){u'(1)^2 - u'(r_lambda)^2 r_lambda^n}.
    Without node features the ball identity is taken over the whole domain
    against the outer-boundary flux and the annulus residual is 0.0 by
    convention.

    Energy: the action I = (||u||^2 - lambda|u|_2^2)/2 - |u|_{2*}^{2*}/2*.
    The norms are taken once on the nodal ball and once on the annulus
    (once on the whole domain without features) and summed, since they
    are additive over subdomains.

    The energy-density slack is measured against E at the innermost knot,
    which dominates E everywhere else for a genuine solution.
    """
    wn = omega_n(params.n)
    if features is None:
        whole = radial_norms(profile, params)
        radius = float(profile.r_end)
        flux = 0.5 * wn * radius**params.n * float(profile.du(radius)) ** 2
        ball_res, ann_res = _relative(params.lam * whole.l2_sq, flux), 0.0
    else:
        r_node = features.r_lambda
        ball = radial_norms(profile, params, domain=(0.0, r_node))
        annulus = radial_norms(profile, params, domain=(r_node, profile.r_end))
        whole = RadialNorms(*(b + a for b, a in zip(ball, annulus)))
        flux_node = features.du_node**2 * r_node**params.n
        ball_res = _relative(params.lam * ball.l2_sq, 0.5 * wn * flux_node)
        ann_res = _relative(
            params.lam * annulus.l2_sq,
            0.5 * wn * (features.du_boundary**2 - flux_node),
        )
    if whole.grad_sq == 0.0:
        raise UndefinedResidual("Nehari residual undefined for the zero profile")
    dens = _energy_density(profile, params)
    res = Residuals(
        nehari=(whole.grad_sq - params.lam * whole.l2_sq - whole.crit_pow)
        / whole.grad_sq,
        pohozaev_ball=ball_res,
        pohozaev_annulus=ann_res,
        energy=0.5 * (whole.grad_sq - params.lam * whole.l2_sq)
        - whole.crit_pow / params.two_star,
        e_monotone_violation=_largest_rise(dens),
    )
    failures = [
        f"{label} residual {value:.3e}"
        for label, value in (
            ("Nehari", res.nehari),
            ("Pohozaev ball", res.pohozaev_ball),
            ("Pohozaev annulus", res.pohozaev_annulus),
        )
        if abs(value) >= residual_tol
    ]
    allowed = ENERGY_TOL * float(dens[0])
    if res.e_monotone_violation > allowed:
        failures.append(
            f"energy density rises by {res.e_monotone_violation:.3e} "
            f"(allowed {allowed:.3e})"
        )
    if failures:
        raise CertificationFailed("; ".join(failures))
    return res
