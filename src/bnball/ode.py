"""Radial ODE integration with event detection.

A radial solution of -Delta u = lambda u + |u|^(2*-2) u satisfies

    u'' + (n-1)/r u' + lambda u + |u|^(2*-2) u = 0,    u'(0) = 0,

which is singular at the origin; integration starts from a second-order
Taylor expansion at a small radius r0 instead.

Rather than integrating u directly, the solver always integrates the
unit-amplitude rescaling.  If u solves the equation with u(0) = a, then
uhat(y) := u(y |a|^(-beta)) / a solves the same equation with uhat(0) = 1
and coefficient lamhat = lambda |a|^(-2 beta), because the nonlinearity is
homogeneous of the matching degree.  Radii, values, derivatives and events
are mapped back to physical variables afterwards.

The scaled problem is still stiff in an unusual way: uhat hugs the
standard bubble delta(y) = (K/(K+y^2))^((n-2)/2), K = n(n-2), which decays
through arbitrarily many decades before the lamhat-driven deviation
surfaces and creates the nodal structure.  Integrating uhat itself loses
that deviation in the integrator's relative-error floor long before the
first zero.  The solver therefore integrates the deviation

    v(y) := uhat(y) - delta(y),

using that -delta'' - (n-1)/y delta' = delta^(2*-1) exactly, so

    v'' + (n-1)/y v' + lamhat (delta+v)
        + |delta+v|^(2*-2)(delta+v) - delta^(2*-1) = 0.

v stays on the single scale of the lamhat-correction from the origin out
through the node region, so relative error control on v resolves the node
and the outer hump no matter how many decades the bubble itself fell.
The nonlinear difference is evaluated with expm1/log1p where it would
otherwise cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .model import (
    BlowUpDetected,
    IntegrationFailed,
    Params,
    SingularPoint,
)

# Fixed start radius of the unit-amplitude problem; physical start radius is
# SCALED_START * |a|^(-beta).
SCALED_START = 1e-6

# |uhat| beyond this triggers the blow-up guard.  Outward integration of a
# genuine profile cannot reach it (the energy density is nonincreasing), so
# it only fires on pathological input.
BLOWUP_BOUND = 1e12

# Sign events fire only when lam_hat clears the absolute noise floor by this
# factor; see the trust note in integrate.
ZERO_TRUST_FACTOR = 1e3

# Dense-output samples stored between consecutive integrator steps.
DENSE_SAMPLES = 8

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12


@dataclass(frozen=True)
class Event:
    """A located sign change along the profile.

    kind is "zero-crossing" (u = 0; value holds u' there) or
    "derivative-zero" (u' = 0; value holds u there).
    """

    kind: str
    r: float
    value: float


@dataclass
class RadialProfile:
    """Densely sampled radial solution on [r0, r_end].

    knots are strictly increasing radii starting at the series-start radius;
    values and derivs are u and u' there.  events lists the located
    zero-crossings of u and u' in radius order.  dense maps radii to
    (u, u') and is what u() and du() evaluate above the first knot.
    Treated as immutable after construction.
    """

    params: Params
    a: float
    knots: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    events: list[Event]
    r_end: float
    dense: object = field(repr=False)  # r -> (u, u')
    steps: np.ndarray | None = None  # integrator step radii; quadrature pieces
    rtol: float = DEFAULT_RTOL  # integrator tolerance; sets the boundary band

    def __post_init__(self):
        self.knots = np.asarray(self.knots, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.derivs = np.asarray(self.derivs, dtype=float)
        if self.steps is None:
            self.steps = self.knots
        for arr in (self.knots, self.values, self.derivs):
            arr.setflags(write=False)

    def _eval(self, r, component: int):
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        out = np.empty_like(r)
        inside = r >= self.knots[0]
        if np.any(inside):
            out[inside] = np.asarray(self.dense(r[inside])[component], dtype=float)
        if np.any(~inside):
            # Below the series-start radius, use the same Taylor expansion
            # the integration started from.
            f = self.params.nonlinearity(self.a)
            rr = r[~inside]
            if component == 0:
                out[~inside] = self.a - f * rr * rr / (2.0 * self.params.n)
            else:
                out[~inside] = -f * rr / self.params.n
        return float(out[0]) if scalar else out

    def u(self, r):
        return self._eval(r, 0)

    def du(self, r):
        return self._eval(r, 1)

    def zero_crossings(self) -> list[Event]:
        return [e for e in self.events if e.kind == "zero-crossing"]

    def interior_zeros(self) -> list[Event]:
        """Zero-crossings below 1 - 10 rtol.

        A converged shooting solution puts its last zero on r=1 only to the
        accuracy the integrator resolves; zeros within that band are the
        boundary zero itself, not interior structure.
        """
        return [e for e in self.zero_crossings() if e.r < 1.0 - 10.0 * self.rtol]

    def derivative_zeros(self) -> list[Event]:
        return [e for e in self.events if e.kind == "derivative-zero"]


def _bubble_terms(n: int, y):
    """Unit-center-value bubble delta and delta' at scaled radius y.

    Vectorized; delta^(2*-1) equals delta * t^2 with t = K/(K+y^2), which
    the integrand evaluation below exploits.
    """
    K = n * (n - 2.0)
    t = K / (K + y * y)
    d = t ** ((n - 2.0) / 2.0)
    dd = -(n - 2.0) * y * d * t / K
    return d, dd


def _zero_profile(params: Params, r_stop: float) -> RadialProfile:
    knots = np.linspace(SCALED_START, r_stop, 64)
    zeros = np.zeros_like(knots)
    return RadialProfile(
        params=params,
        a=0.0,
        knots=knots,
        values=zeros.copy(),
        derivs=zeros.copy(),
        events=[],
        r_end=r_stop,
        dense=lambda r: (np.zeros_like(np.asarray(r, float)),) * 2,
    )


def integrate(
    params: Params,
    a: float,
    r_stop: float,
    *,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> RadialProfile:
    """Integrate from the origin series start out to r_stop.

    Integrates the unit-amplitude deviation problem out to
    y = |a|^beta * r_stop and maps it back to physical variables.  All sign
    changes of u and u' are located on the dense output by the integrator's
    bracketed root-finding (well below 1e-12 radius accuracy) and recorded
    as events.  knots hold the integrator steps plus DENSE_SAMPLES interior
    samples per step; `steps` keeps the raw step radii, whose dense-output
    pieces downstream quadrature integrates piecewise.
    """
    if not math.isfinite(a):
        raise IntegrationFailed(f"amplitude must be finite, got {a}")
    if r_stop <= 0.0:
        raise SingularPoint(f"r_stop must be positive, got {r_stop}")
    if a == 0.0:
        return _zero_profile(params, r_stop)

    amp = abs(a)
    scale_r = amp**params.beta  # y = scale_r * r
    scale_v = a * scale_r  # u' = scale_v * vhat'
    lam_hat = params.lam * amp ** (-2.0 * params.beta)
    y_end = scale_r * r_stop

    n = params.n
    K = n * (n - 2.0)
    h = (n - 2.0) / 2.0
    p = params.two_star - 1.0
    n1 = n - 1.0
    lam = lam_hat

    # Deviation series start: uhat and delta share the lamhat-free part of
    # their expansions at 0, so v = uhat - delta starts at
    #   v(y) = -lamhat/(2n) y^2 + lamhat(lamhat+p+1)/(8n(n+2)) y^4 + O(y^6).
    y0 = SCALED_START
    c2 = lam / (2.0 * n)
    c4 = lam * (lam + p + 1.0) / (8.0 * n * (n + 2.0))
    v0 = -c2 * y0 * y0 + c4 * y0**4
    vp0 = -2.0 * c2 * y0 + 4.0 * c4 * y0**3

    def f(y, s):
        v, vp = s
        t = K / (K + y * y)
        d = t**h
        w = d + v
        if w > 0.0 and abs(v) < 0.5 * d:
            # delta^(2*-1) = d t^2; difference kept in stable form
            df = d * t * t * math.expm1(p * math.log1p(v / d))
        else:
            df = abs(w) ** (p - 1.0) * w - d * t * t
        return (vp, -n1 / y * vp - lam * w - df)

    def ev_blow(y, s):
        t = K / (K + y * y)
        return abs(t**h + s[0]) - BLOWUP_BOUND

    ev_blow.terminal = True
    ev_blow.direction = 1

    def ev_zero(y, s):
        t = K / (K + y * y)
        return t**h + s[0]

    def ev_dzero(y, s):
        t = K / (K + y * y)
        return -(n - 2.0) * y * t**h * t / K + s[1]

    # The deviation signal has magnitude of order lam_hat while the additive
    # integration noise sits at the absolute tolerance floor atol/amp.  Sign
    # structure is certifiable only when the signal clears that floor; below
    # it (lambda = 0, or n <= 6 at blow-up amplitudes where 2*beta >= 1 lets
    # the floor overtake lam_hat) a crossing of uhat is noise, so the sign
    # events are not tracked at all.
    atol_scaled = atol / max(amp, 1.0)
    trusted = lam_hat >= ZERO_TRUST_FACTOR * atol_scaled
    event_fns = (ev_blow, ev_zero, ev_dzero) if trusted else (ev_blow,)

    # v lives on the scale of the lamhat-correction, far below uhat(0) = 1
    # at large amplitude, so the absolute floor shrinks with the amplitude.
    sol = solve_ivp(
        f,
        (y0, y_end),
        (v0, vp0),
        method="DOP853",
        rtol=rtol,
        atol=atol_scaled,
        dense_output=True,
        events=event_fns,
    )
    if sol.t_events[0].size > 0:
        raise BlowUpDetected(
            f"|u| exceeded {BLOWUP_BOUND:g} * |a| at r = "
            f"{sol.t_events[0][0] / scale_r:g}"
        )
    if not sol.success:
        last = sol.t[-1] / scale_r if sol.t.size else None
        raise IntegrationFailed(
            f"integration failed: {sol.message}", last_radius=last
        )

    def at_y(y):
        """(u, u') at scaled radius y, from the dense output."""
        d, dd = _bubble_terms(n, y)
        s = sol.sol(y)
        return a * (d + s[0]), scale_v * (dd + s[1])

    # Zero crossings store u' there, derivative zeros store u; untrusted
    # integrations have no sign events to read.
    events = [
        Event(kind=kind, r=y / scale_r, value=at_y(y)[component])
        for kind, component, found in zip(
            ("zero-crossing", "derivative-zero"), (1, 0), sol.t_events[1:]
        )
        for y in found
    ]
    events.sort(key=lambda e: e.r)

    ys = sol.t
    fill = np.linspace(ys[:-1], ys[1:], DENSE_SAMPLES + 2, axis=1)[:, 1:-1]
    ys = np.sort(np.concatenate([ys, fill.ravel()]))
    values, derivs = at_y(ys)

    return RadialProfile(
        params=params,
        a=a,
        knots=ys / scale_r,
        values=values,
        derivs=derivs,
        events=events,
        r_end=sol.t[-1] / scale_r,
        dense=lambda r: at_y(np.asarray(r, dtype=float) * scale_r),
        steps=sol.t / scale_r,
        rtol=rtol,
    )
