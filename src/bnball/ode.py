"""Radial ODE integration: full profiles with events, and shooting evaluations.

A radial solution of -Delta u = lambda u + |u|^(2*-2) u satisfies

    u'' + (n-1)/r u' + lambda u + |u|^(2*-2) u = 0,    u'(0) = 0,

which is singular at the origin.  integrate starts from the two-term
series of the deviation below at a small radius r0 instead; a shot starts
further out, where the 8-term series is exact to rounding, or, at small
lamhat, further still, past the bubble's core, from lamhat times the
bubble's linear response phi_1, tabulated once per n (_linear_response)
and exact there to a tenth of the shot's rtol.  Every profile answers
radii below its first knot from the 8-term series; the profile of a shot
that started past the series start runs the core from it again.

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

integrate returns the full profile (events, dense output) that features,
certification and records read, on _FloatDop853: stock DOP853 bit for bit
on Python floats; the stepper holds no reference cycle, so reference
counting frees it.  shot runs _dop853, DOP853 (Hairer, Norsett and
Wanner, Solving ODEs I, II.5-II.6) with Hairer's dop853 step rules, which
records its steps up to r = 1 and runs on to the k-th zero of u; the run,
a Shot, gives that zero's radius r_k and a profile() built from its
record, so a solve's profile is its accepted shot.  Both steppers are
float code generated at import with the right-hand side inlined in each
stage: the shot's stage sums are float sums without the tableau's zeros,
an attempted step of integrate keeps scipy's numpy products.  Both build
the problem with _deviation, whose rhs comes from the same source lines,
and record their steps alike, one packed row of _ROW floats per step;
the steppers only step, record and stop (at zero k, the end or the
blow-up guard).  Each run is a Shot, and Shot.profile is the one profile
builder: after the run, one pass, _finish_steps, builds the dense output
of the record, finds the steps on which u or u' changes sign from their
recorded states, locates the sign changes on their dense output and
names a blown step, and the profile reads its pieces from the record.
One evaluator of DOP853's dense output, _dense_state, locates roots on
floats and evaluates profiles on arrays.
"""

from __future__ import annotations

import itertools
import math
import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np
from scipy.integrate import DOP853, solve_ivp
from scipy.integrate._ivp import dop853_coefficients
from scipy.integrate._ivp.rk import MAX_FACTOR, MIN_FACTOR, SAFETY
from scipy.optimize import brentq

from .model import (BlowUpDetected, ConfigError, IntegrationFailed, OutOfDomain, Params,
                    SingularPoint)

# Fixed start radius of the unit-amplitude problem; physical start radius is
# SCALED_START * |a|^(-beta).
SCALED_START = 1e-6

# |uhat| beyond this triggers the blow-up guard.  Outward integration of a
# genuine profile cannot reach it (the energy density is nonincreasing), so
# it only fires on pathological input.
BLOWUP_BOUND = 1e12

# Sign changes count only when lam_hat clears the absolute noise floor by
# this factor; see the trust note in _deviation.
ZERO_TRUST_FACTOR = 1e3

# Dense-output samples stored between consecutive integrator steps.
DENSE_SAMPLES = 8

# Step budget of one shooting evaluation, rejected steps included; a full
# integration to r=1 takes a few hundred steps.
SHOOT_MAX_STEPS = 100_000

# Outer end of a shooting evaluation: zero k beyond it counts as absent.
SHOOT_END = 1e6

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12

# A shot starts from this many terms of the deviation's Taylor series in
# y^2, at the largest radius where the last term is at most SERIES_CUTOFF
# of the first.
SERIES_TERMS = 8
SERIES_CUTOFF = 1e-19

# To first order in lamhat the deviation is lamhat phi_1(y), the bubble's
# linear response, which depends on n alone (Brezis and Peletier 1989, Rey
# 1990).  _linear_response tabulates phi_1 on RESPONSE_GRID radii per
# decade from _dop853 runs of the deviation problem at RESPONSE_LAM_HAT,
# where v / lamhat is phi_1, at RESPONSE_RTOL and at ten times it (the
# table's error), and at RESPONSE_PROBE (the second-order term), each at an
# atol of RESPONSE_ATOL times its lamhat.  A run takes at most 21 attempts
# per grid interval at n = 7-12; an interval it cannot finish in
# RESPONSE_STEPS attempts ends the table (at n = 40,000 the first, which
# took 1.4 s to fail without the bound).  A shot may start from the table
# where the start is exact to RESPONSE_SHARE of its rtol and lamhat phi_1
# is at most that share of the bubble.
RESPONSE_LAM_HAT = 1e-100
RESPONSE_PROBE = 1e-14
RESPONSE_RTOL = 1e-13
RESPONSE_ATOL = 1e-20
RESPONSE_GRID = 8
RESPONSE_STEPS = 1_000
RESPONSE_SHARE = 0.1


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
    zero-crossings of u and u' in radius order.  dense maps an array of
    radii to (u, u') and is what u_du() evaluates; u() and du() read
    through u_du().  dense answers radii below the first knot from the
    series the run started from.
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
    steps: np.ndarray  # integrator step radii; quadrature pieces

    def __post_init__(self):
        self.knots = np.asarray(self.knots, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.derivs = np.asarray(self.derivs, dtype=float)
        for arr in (self.knots, self.values, self.derivs):
            arr.setflags(write=False)

    def u_du(self, r):
        """(u, u') at r from one dense evaluation; floats for scalar r.  A
        radius outside [0, r_end] by more than radial_norms' slack, 1e-12
        max(1, r_end), or NaN raises OutOfDomain."""
        radii = np.atleast_1d(np.asarray(r, dtype=float))
        slack = 1e-12 * max(1.0, self.r_end)
        if (radii > self.r_end + slack).any():
            raise OutOfDomain(f"radius {radii.max():g} lies beyond r_end = {self.r_end:g}")
        below = ~(radii >= -slack)  # NaN too
        if below.any():
            raise OutOfDomain(f"radius {radii[below][0]:g} lies outside [0, {self.r_end:g}]")
        u, du = self.dense(radii)
        return (float(u[0]), float(du[0])) if np.ndim(r) == 0 else (u, du)

    def u(self, r):
        return self.u_du(r)[0]

    def du(self, r):
        return self.u_du(r)[1]

    def rescaled(self, M: float) -> "RadialProfile":
        """The inner rescaling of the whole profile: u~(y) = u(y M^{-beta}) / M.

        Valid for any radial function, not only solutions.  The rescaled
        profile solves the same equation with lambda replaced by
        lambda M^{-2 beta}, so that is the params it carries; M =
        lambda^{(n-2)/4} carries lambda to 1, the lambda-absorbing frame.
        An M that is not positive and finite, or whose radius factor M^beta
        or derivative factor 1/(M M^beta) is not a positive float, is a
        ConfigError.
        """
        if not (math.isfinite(M) and M > 0.0):
            raise ConfigError(f"scaling parameter must be positive, got {M}")
        params = self.params
        try:
            c, lam = M**params.beta, params.lam * M ** (-2.0 * params.beta)
            dc = 1.0 / (M * c)  # u' scales by it
        except (OverflowError, ZeroDivisionError):
            c = dc = math.inf
        if not (0.0 < c < math.inf and 0.0 < dc < math.inf):
            raise ConfigError(f"scaling parameter {M} takes M^beta or 1/(M M^beta) "
                              "out of the positive floats")
        events = []
        for e in self.events:
            # zero crossings store u' there, derivative zeros store u
            factor = dc if e.kind == "zero-crossing" else 1.0 / M
            events.append(Event(kind=e.kind, r=c * e.r, value=factor * e.value))

        def dense(y):
            u, du = self.u_du(np.asarray(y, dtype=float) / c)
            return u / M, du / (M * c)

        return RadialProfile(
            params=Params(n=params.n, lam=lam),
            a=self.a / M,
            knots=c * self.knots,
            values=self.values / M,
            derivs=self.derivs / (M * c),
            events=events,
            r_end=c * self.r_end,
            dense=dense,
            steps=c * np.asarray(self.steps, dtype=float),
        )

    def zero_crossings(self) -> list[Event]:
        return [e for e in self.events if e.kind == "zero-crossing"]

    def derivative_zeros(self) -> list[Event]:
        return [e for e in self.events if e.kind == "derivative-zero"]


@dataclass(frozen=True)
class _Deviation:
    """The unit-amplitude deviation problem of one nonzero amplitude.

    rhs(y, v, vp) is the right-hand side (v', v'') at the scaled radius y,
    on Python floats.  integrate runs from the two-term series state s0
    at y0 out to y_end, a shot from shot_start(); every profile answers
    below its first knot from series_state.
    trusted says whether sign changes of u can be told from integration
    noise.
    """

    params: Params
    n: int
    K: float  # n(n-2), and h = (n-2)/2: the bubble's constants
    h: float
    p: float  # 2* - 1
    a: float
    lam_hat: float
    scale_r: float  # y = scale_r * r
    scale_v: float  # u' = scale_v * uhat'
    y0: float
    y_end: float
    atol_scaled: float
    trusted: bool
    rhs: object = field(repr=False)

    def bubble(self, y):
        """The unit-center-value bubble delta = (K/(K+y^2))^h and delta' at
        scaled radius y, scalar or array."""
        t = self.K / (self.K + y * y)
        d = t**self.h
        return d, -(self.n - 2.0) * y * d * t / self.K

    @cached_property
    def series(self) -> tuple[float, ...]:
        """The coefficients v_0 = 0, v_1, ..., v_J, J = SERIES_TERMS, of the
        Taylor series v = sum_j v_j z^j in z = y^2.

        The deviation equation gives, term by term,

            2(j+1)(2j+n) v_{j+1} = -lamhat (delta_j + v_j) - D_j,

        with delta = (1 + z/K)^(-h) and D = delta^p ((1 + v/delta)^p - 1);
        (1 + q)^p, q = v/delta, is expanded by Miller's power recurrence.
        Every coefficient is O(lamhat), so nothing cancels however small
        lamhat is; v_1 = -lamhat/(2n) and v_2 = lamhat(lamhat+p+1)/(8n(n+2))
        are the coefficients of integrate's two-term start.
        """
        n, K, h, p, lam = self.n, self.K, self.h, self.p, self.lam_hat
        # series of delta, 1/delta and delta^p
        d, d_inv, d_p = [1.0], [1.0], [1.0]
        for j in range(SERIES_TERMS):
            d.append(d[j] * (-h - j) / ((j + 1) * K))
            d_inv.append(d_inv[j] * (h - j) / ((j + 1) * K))
            d_p.append(d_p[j] * (-h * p - j) / ((j + 1) * K))
        v, q, g = [0.0], [0.0], [1.0]  # v, q = v/delta and g = (1 + q)^p
        for j in range(SERIES_TERMS):
            D = sum(d_p[i] * g[j - i] for i in range(j))  # g_m = (g - 1)_m, m >= 1
            v.append((-lam * (d[j] + v[j]) - D) / (2.0 * (j + 1) * (2 * j + n)))
            m = j + 1
            q.append(sum(v[i] * d_inv[m - i] for i in range(1, m + 1)))
            g.append(sum(((p + 1.0) * i - m) * q[i] * g[m - i] for i in range(1, m + 1)) / m)
        return tuple(v)

    @property
    def s0(self) -> tuple[float, float]:
        """integrate's start (v, v') at y0: the two-term series v_1 z + v_2
        z^2 of series."""
        _, v1, v2 = self.series[:3]
        y = self.y0
        return v1 * y * y + v2 * y**4, 2.0 * v1 * y + 4.0 * v2 * y**3

    def series_start(self) -> tuple[float, tuple[float, float]]:
        """The scaled radius y_s where a shot starts and the state (v, v')
        there from series.

        y_s is the largest y <= 1, and below half of y_end, at which the
        last term is at most SERIES_CUTOFF of the first, so that the series
        is exact to rounding there, but never below SCALED_START; a series
        that overflows gives integrate's start.  Every profile of a shot
        starts here, though at small lamhat the shot itself starts further
        out (shot_start).
        """
        v = self.series
        J = SERIES_TERMS
        ratio = abs(v[J] / v[1]) if v[1] else 0.0
        if not ratio < math.inf:  # overflowed at an absurd lamhat
            return self.y0, self.s0
        y = (SERIES_CUTOFF / ratio) ** (0.5 / (J - 1)) if ratio else 1.0
        y = max(min(y, 1.0, 0.5 * self.y_end), SCALED_START)
        return y, self.series_state(y)

    def shot_start(self, rtol: float) -> tuple[float, tuple[float, float], float]:
        """The scaled radius where a shot at rtol starts, the state (v, v')
        there and its first step: series_start, with 0 for the first step
        that hinit picks, unless the linear response reaches further.

        Then it is the last grid radius y* of _linear_response(n) below
        scale_r (r = 1) at which lam_hat times the table's state is within
        RESPONSE_SHARE rtol of the deviation (the second-order term and the
        table's own error each) and lam_hat |phi_1| within RESPONSE_SHARE
        of the bubble, there and at every grid radius before it.  The state
        is lam_hat times the table's recorded floats at y*, and the first
        step the table's step there scaled to rtol as DOP853's steps scale,
        by rtol^(1/8).  Never at lam_hat = 0.
        """
        y, state = self.series_start()
        if self.lam_hat > 0.0:
            table = _linear_response(self.n)
            j = table.last(self.lam_hat, rtol, self.scale_r)
            if j >= 0 and table.radii[j] > y:
                phi, dphi = table.states[j]
                step = table.steps[j] * (rtol / RESPONSE_RTOL) ** 0.125
                return table.radii[j], (self.lam_hat * phi, self.lam_hat * dphi), step
        return y, state, 0.0

    def series_state(self, y):
        """The state (v, v') of series at scaled radius y, scalar or array,
        by Horner's rule in z = y^2."""
        v, z = self.series, y * y
        w = wp = 0.0
        for j in range(SERIES_TERMS, 0, -1):
            w = w * z + v[j]
            wp = wp * z + j * v[j]
        return w * z, 2.0 * y * wp

    def signs(self, y, s):
        """(u/a, u'/(a scale_r)) at scaled radius y from the deviation state
        s: the values whose sign changes _finish_steps locates as events."""
        d, dd = self.bubble(y)
        return d + s[0], dd + s[1]

    def u_du(self, y, s):
        """(u, u') at scaled radius y from the deviation state s there."""
        w, wp = self.signs(y, s)
        return self.a * w, self.scale_v * wp


def _deviation(params: Params, a: float, r_stop: float, atol: float) -> _Deviation:
    """The deviation problem of u(0) = a out to r_stop, at an atol that
    run_tolerances has passed."""
    if not math.isfinite(a):
        raise IntegrationFailed(f"amplitude must be finite, got {a}")
    if r_stop <= 0.0:
        raise SingularPoint(f"r_stop must be positive, got {r_stop}")

    amp = abs(a)
    scale_r = amp**params.beta
    y_end = scale_r * r_stop
    if y_end <= SCALED_START:
        # The integration would start at or beyond r_stop and run inward,
        # toward the singular origin; at a = 0 the start radius is infinite.
        start = SCALED_START / scale_r if scale_r > 0.0 else math.inf
        raise SingularPoint(
            f"r_stop = {r_stop:g} does not lie beyond the series-start radius "
            f"{start:g} of amplitude {a:g}"
        )
    lam_hat = params.lam * amp ** (-2.0 * params.beta)

    n = params.n
    K = n * (n - 2.0)
    h = (n - 2.0) / 2.0
    p = params.two_star - 1.0

    # The deviation signal has magnitude of order lam_hat while the additive
    # integration noise sits at the absolute tolerance floor atol/amp.  Sign
    # structure is certifiable only when the signal clears that floor; below
    # it (lambda = 0, or n <= 6 at blow-up amplitudes where 2*beta >= 1 lets
    # the floor overtake lam_hat) a crossing of uhat is noise, so sign
    # changes are not tracked at all.  v lives on the scale of the
    # lamhat-correction, far below uhat(0) = 1 at large amplitude, so the
    # absolute floor shrinks with the amplitude.
    atol_scaled = atol / max(amp, 1.0)
    return _Deviation(
        params=params,
        n=n,
        K=K,
        h=h,
        p=p,
        a=a,
        lam_hat=lam_hat,
        scale_r=scale_r,
        scale_v=a * scale_r,
        y0=SCALED_START,
        y_end=y_end,
        atol_scaled=atol_scaled,
        trusted=lam_hat >= ZERO_TRUST_FACTOR * atol_scaled,
        rhs=_make_rhs(K, h, p, n - 1.0, lam_hat),
    )


@dataclass(frozen=True)
class _StepPolynomials:
    """DOP853's dense output of a step record, every step polynomial read
    from arrays.

    Evaluates the deviation state at an array of scaled radii in one pass
    of _dense_state, elementwise over the pieces the radii fall in, with
    exactly the arithmetic of scipy's OdeSolution over Dop853DenseOutput
    pieces, so every value is bit-identical to it.  rows, (steps, _ROW),
    is the record of an outward run, whose step i spans rows[i, 0] to
    rows[i, 6] from the state rows[i, 1:3]; on a step radius the step that
    ends there is used, as OdeSolution does.  F stacks the coefficient
    rows _finish_steps builds, one per step.
    """

    rows: np.ndarray  # (steps, _ROW) step record
    F: np.ndarray  # (steps, 7, 2) polynomial coefficients

    def __call__(self, y):
        """State (v, v') at y, each of y's shape."""
        rows = self.rows
        i = np.minimum(np.searchsorted(rows[:, 6], y, side="left"), len(rows) - 1)
        F = self.F.transpose(1, 2, 0)[..., i]  # 7 rows of (v, v') coefficients
        return _dense_state(y, (rows[i, 0], rows[i, 6], rows[i, 1], rows[i, 2], F))


def run_tolerances(rtol: float, atol: float) -> tuple[float, float]:
    """The (rtol, atol) a run uses.  ConfigError names the first that is
    not a positive, finite number; rtol is raised to 100 eps, as solve_ivp
    would."""
    for name, value in (("rtol", rtol), ("atol", atol)):
        # NaN fails every comparison, so "<= 0" alone would let it through
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigError(f"{name} must be positive and finite, got {value}")
    return max(rtol, 100.0 * math.ulp(1.0)), atol


def _blow_up(r_old: float) -> BlowUpDetected:
    """The guard's error, naming the blown step by its start radius."""
    return BlowUpDetected(f"|u| exceeded {BLOWUP_BOUND:g} * |a| on the step from r = {r_old:g}")


_EVENT_KINDS = ("zero-crossing", "derivative-zero")  # of u, of u'

NON_FINITE_STEP = "Dense output of the step is not finite."  # _finish_steps fails it


def _dense_state(y, step):
    """(v, v') at scaled radius y on the dense output of one step, step =
    (t_old, t, v, v', F) with F its seven coefficient rows (v, v'): bit for
    bit scipy's Dop853DenseOutput(t_old, t, (v, v'), F) at y (Hairer,
    Norsett and Wanner, Solving ODEs I, II.6).  On floats for a scalar y;
    on arrays, elementwise over one piece per radius."""
    t_old, t, v, vp, F = step
    x = (y - t_old) / (t - t_old)
    factors = (x, 1 - x)
    w = wp = 0.0
    for i, (f, fp) in enumerate(reversed(F)):
        w = (w + f) * factors[i % 2]
        wp = (wp + fp) * factors[i % 2]
    return w + v, wp + vp


def _sign(y: float, step, dev: _Deviation, c: int) -> float:
    """u/a (c = 0) or u'/(a scale_r) (c = 1) at y on step's dense output."""
    return dev.signs(y, _dense_state(y, step))[c]


def _root(step, g, *args) -> float:
    """The root of g(y, step, *args) over one step, located as solve_ivp
    locates an event: brentq at xtol = rtol = 4 eps on the step's dense
    output.  The step-end state and the polynomial there may disagree in
    sign in the last bit; brentq's ValueError is then IntegrationFailed.
    g is a module function and its data go to brentq as args: its NaN
    guard wraps g in a closure over itself, a cycle that would keep a
    closure's data alive."""
    tol = 4 * np.finfo(float).eps
    try:
        return brentq(g, step[0], step[1], args=(step, *args), xtol=tol, rtol=tol)
    except ValueError as exc:
        raise IntegrationFailed(f"integration failed: {exc}") from exc


def _finish_steps(dev: _Deviation, rows, events, derivative=True) -> np.ndarray:
    """The end-of-run pass of Shot.r_k and Shot.profile, run once the run
    has ended: every step's dense-output rows F, (steps, 7, 2), and the
    roots of the steps on which u or u' changes sign (u's alone without
    derivative).

    rows, (steps, _ROW), holds each step as (t_old, v, v', h, v_new,
    v'_new, t_new) and its 13 stage rows.  The extra stages and F are
    scipy's _dense_output_impl per step, batched on the same products,
    each extra stage's RHS in one _rhs_pass.  The first step whose F is not
    finite raises IntegrationFailed at its start radius, ahead of any later
    step.  Each step before it compares dev.signs, (u/a, u'/(a scale_r)),
    at its start and at its end, on Python floats (a step starts where the
    one before it ended, so each is computed once): while dev.trusted, a
    component that changes sign there by solve_ivp's rule for an event of
    direction 0 has its root located on the step's dense output as
    solve_ivp locates an event and appended to events (a zero crossing
    stores u', a derivative zero u).  A step that ends with |u/a| at or
    beyond BLOWUP_BOUND is blown: it raises BlowUpDetected naming the step
    by its start radius instead, since its polynomial leaps past the bound
    at no radius that means anything.  Run under np.errstate(all="ignore")."""
    n_rows = DOP853.n_stages + 1
    steps = len(rows)
    t_old, y_old, h, y_new = rows[:, 0], rows[:, 1:3], rows[:, 3:4], rows[:, 4:6]
    KX = np.empty((steps, dop853_coefficients.N_STAGES_EXTENDED, 2))
    KX[:, :n_rows] = rows[:, 7:].reshape(steps, n_rows, 2)
    k = memoryview(KX.reshape(-1))
    for s, (a, c) in enumerate(zip(DOP853.A_EXTRA, DOP853.C_EXTRA), start=n_rows):
        dy = np.matmul(KX[:, :s].transpose(0, 2, 1), a[:s])
        _rhs_pass(
            dev.K, dev.h, dev.p, dev.n - 1.0, dev.lam_hat,
            (t_old + c * h[:, 0]).tolist(), (y_old + dy * h).tolist(),
            k, 2 * s, 2 * KX.shape[1],
        )
    dy = y_new - y_old
    f_old, f = KX[:, 0], KX[:, DOP853.n_stages]
    F = np.empty((steps, 3 + len(DOP853.D), 2))
    F[:, 0] = dy
    F[:, 1] = h * f_old - dy
    F[:, 2] = 2 * dy - h * (f + f_old)
    F[:, 3:] = h[..., None] * np.matmul(DOP853.D, KX)
    finite = np.isfinite(F).all(axis=(1, 2))
    good = steps if finite.all() else int(np.argmin(finite))  # steps before the first bad

    trusted = dev.trusted  # else sign changes are noise
    head = rows[:good, :7].tolist()
    w, dw = dev.signs(head[0][0], head[0][1:3]) if head else (0.0, 0.0)
    K, power, n2 = dev.K, dev.h, -(dev.n - 2.0)
    for i, (y0, v, vp, _, v1, vp1, y1) in enumerate(head):
        g, dg = w, dw
        t = K / (K + y1 * y1)  # dev.signs(y1, (v1, vp1)), inlined
        d = t**power
        w, dw = d + v1, n2 * y1 * d * t / K + vp1
        if abs(w) >= BLOWUP_BOUND:
            raise _blow_up(y0 / dev.scale_r)
        # solve_ivp's rule for an event of direction 0
        zero = trusted and (g <= 0.0 <= w or w <= 0.0 <= g)
        dzero = derivative and trusted and (dg <= 0.0 <= dw or dw <= 0.0 <= dg)
        if zero or dzero:
            step = (y0, y1, v, vp, F[i].tolist())
            for c, change in enumerate((zero, dzero)):
                if change:
                    root = _root(step, _sign, dev, c)
                    value = dev.u_du(root, _dense_state(root, step))[1 - c]
                    events.append(Event(_EVENT_KINDS[c], root / dev.scale_r, value))
    if good < steps:
        raise IntegrationFailed(f"integration failed: {NON_FINITE_STEP}",
                                last_radius=float(rows[good, 0]) / dev.scale_r)
    return F


class _FloatDop853(DOP853):
    """scipy's DOP853 stepping outward on Python floats, recording its steps
    as a shot does.

    Takes the steps and counts the RHS evaluations (nfev) of stock DOP853
    bit for bit.  Each attempted step is one call of the generated
    _make_attempt closure: its 11 stages and the new state inline the
    right-hand side, every reduction over the stages stays the dot product
    scipy takes, on the same views of the stage array, because OpenBLAS
    may fuse its multiply-adds, and each error norm stays
    sqrt(err.dot(err))**2 on an array for the same reason, each written to
    one reused 2-array read back through a memoryview.  The rest is float
    arithmetic in scipy's order.  fun is a float RHS fun(y, v, v') -> (v',
    v''), like _Deviation.rhs, for scipy's start.

    _step_impl commits each step that passes error control and appends it
    to record as a shot records its steps, a packed row of _ROW floats:
    (t_old, v, v', h, v_new, v'_new, t_new) and its 13 stage rows.  A step
    whose end state trips the blow-up guard ends the run as a failed step;
    _finish_steps finds it and the sign changes in the record.  nfev
    counts the 3 extra stages of each committed step, which _finish_steps
    evaluates once solve_ivp has returned.  Callers run the stepper under
    np.errstate(all="ignore"): a NaN trial step is then rejected as in
    stock DOP853, without a warning, and a NaN step size is too small.
    Runs go outward (_deviation refuses inward ones) without a cap on the
    step.

    scipy's OdeSolver wraps the RHS in closures over the solver, a
    reference cycle, and calls them only for its start (f0 and the initial
    step), since integrate asks solve_ivp for neither dense output nor
    events.  __init__ drops them after the start, so the stepper holds no
    cycle and reference counting frees it however its run ends.
    """

    def __init__(self, fun, t0, y0, t_bound, *, deviation, record, **options):
        # scipy's own start: the first RHS call and the initial step size
        super().__init__(
            lambda t, y: fun(float(t), *y.tolist()), t0, y0, t_bound, **options
        )
        # scipy's closures over the solver, a reference cycle; only the start
        # above calls them
        self.fun = self.fun_single = self.fun_vectorized = None
        self.record = record
        self.y = tuple(self.y.tolist())
        self.f = tuple(self.f.tolist())
        self.h_abs = float(self.h_abs)
        self.rtol, self.atol = float(self.rtol), float(self.atol)
        K = self.K_extended
        # Stage s is written to k[2s], k[2s+1], a flat float view of K:
        # numpy's row assignment costs as much as the RHS call itself.
        self.k = memoryview(K.reshape(-1))
        # the views scipy's rk_step and _estimate_error_norm reduce over
        dots = [K[:s].T.dot for s in range(1, self.n_stages)]
        dots += [self.K[:-1].T.dot, self.K.T.dot, self.K.T.dot]
        self.attempt = _make_attempt(
            deviation.K, deviation.h, deviation.p, deviation.n - 1.0, deviation.lam_hat,
            self.rtol, self.atol, self.k, dots, np.empty(2),
        )

    def _step_impl(self):
        t, t_bound, attempt, k = self.t, self.t_bound, self.attempt, self.k
        v, vp = self.y

        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(self.h_abs, min_step)

        k[0], k[1] = self.f
        step_rejected = False
        while True:
            if not h_abs >= min_step:  # NaN too: atol scaled to 0 on a zero state
                return False, self.TOO_SMALL_STEP

            t_new = min(t + h_abs, t_bound)
            h = h_abs = t_new - t

            error_norm, v_new, vp_new, f_new, w = attempt(t, v, vp, h, t_new)
            self.nfev += self.n_stages

            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm**self.error_exponent)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm**self.error_exponent)
            step_rejected = True

        self.t = t_new
        self.y = (v_new, vp_new)
        self.h_abs = h_abs
        self.f = (vp_new, f_new)
        self.nfev += len(self.A_EXTRA)
        record = self.record
        record += _pack_step(t, v, vp, h, v_new, vp_new, t_new)
        record += self.K.data  # stage rows 0..n_stages
        return (False, "blow-up") if abs(w) >= BLOWUP_BOUND else (True, None)


def integrate(
    params: Params,
    a: float,
    r_stop: float,
    *,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> RadialProfile:
    """Integrate from the origin series start out to r_stop.

    Integrates the unit-amplitude deviation problem out to y = |a|^beta *
    r_stop on _FloatDop853 at run_tolerances(rtol, atol) (a bad tolerance
    raises before any step), in one solve_ivp call, from the two-term
    series state _Deviation.s0, and returns the profile() of the run as a
    Shot to y_end, in physical variables.  That profile locates each sign
    change of u or u' on the dense output of the step that found it, by
    solve_ivp's bracketed root-finding (well below 1e-12 radius accuracy),
    as an event; knots hold the integrator steps plus DENSE_SAMPLES
    interior samples per step, and `steps` keeps the raw step radii, whose
    dense-output pieces downstream quadrature integrates piecewise.
    Everything returned is bit-identical to solve_ivp with method="DOP853"
    and the same checks as event functions, its dense output from the
    first knot on; below it the profile answers from the 8-term series, as
    a shot's does.  A step whose dense output is not finite is
    IntegrationFailed at its start radius, under any warnings filter,
    whatever later steps would have found.
    """
    rtol, atol = run_tolerances(rtol, atol)
    dev = _deviation(params, a, r_stop, atol)
    record = bytearray()
    with np.errstate(all="ignore"):
        sol = solve_ivp(
            dev.rhs,
            (dev.y0, dev.y_end),
            dev.s0,
            method=_FloatDop853,
            rtol=rtol,
            atol=dev.atol_scaled,
            deviation=dev,
            record=record,
        )
    return Shot(dev, dev.y0, dev.y_end, sol.message, sol.t[-1], None, record, sol.nfev,
                rtol).profile()


def _rhs_lines(y: str, v: str, vp: str, out: str) -> list[str]:
    """Source lines that set out to v'' of the deviation at scaled radius y
    and state (v, vp) from float locals K, h, p, n1 and lam, leaving u/a in
    w; on Python floats, numpy scalars' IEEE results at a third the cost."""
    return [
        f"t = K / (K + {y} * {y})",
        "d = t**h",
        f"w = d + {v}",
        f"if w > 0.0 and abs({v}) < 0.5 * d:",
        "    # delta^(2*-1) = d t^2; difference kept in stable form",
        f"    df = d * t * t * expm1(p * log1p({v} / d))",
        "else:",
        "    try:",
        "        g = abs(w) ** (p - 1.0)",
        "    except OverflowError:",
        "        g = inf  # numpy's result, without its warning",
        "    df = g * w - d * t * t",
        f"{out} = -n1 / {y} * {vp} - lam * w - df",
    ]


def _sum(coefficients, names) -> str:
    """Source of the sum of c * name over the nonzero coefficients c."""
    return " + ".join(f"{c!r} * {x}" for c, x in zip(coefficients.tolist(), names) if c)


def _stage_lines(s: int, sum_v: str, sum_p: str) -> list[str]:
    """Stage s of step hh from (y, v, vp), given the sources of its stage
    sums of the k_j v and k_j p: radius x{s}, state and RHS k{s}."""
    c = float(dop853_coefficients.C[s])
    return [
        f"x{s} = y + {c!r} * hh",
        f"v{s} = v + hh * ({sum_v})",
        f"k{s}v = vp + hh * ({sum_p})",
        *_rhs_lines(f"x{s}", f"v{s}", f"k{s}v", f"k{s}p"),
    ]


def _shot_stage_lines(s: int) -> list[str]:
    """Stage s of a shot: its stage sums as float sums over the tableau."""
    a = dop853_coefficients.A[s, :s]
    return _stage_lines(
        s, _sum(a, [f"k{j}v" for j in range(s)]), _sum(a, [f"k{j}p" for j in range(s)])
    )


def _attempt_stage_lines(s: int) -> list[str]:
    """Stage s of an attempt of integrate: its stage sums on scipy's product
    dot{s}(A{s}) = K[:s].T.dot(A[s, :s]), written to out and read through
    o, its RHS written to stage row s."""
    return [
        f"dot{s}(A{s}, out)",
        "sv, sp = o",
        *_stage_lines(s, "sv", "sp"),
        f"k[{2 * s}], k[{2 * s + 1}] = k{s}v, k{s}p",
    ]


# Hairer's dop853 (FAC1 = 0.333, FAC2 = 6, SAFE = 0.9, UROUND = 2.3e-16)
# from y, the shot's start.  After a step of error norm err the next is
# h/fac, fac = min(1/FAC1, err^(1/8)/SAFE): the step is accepted if err <=
# 1, with fac at least 1/FAC2, and at least 1 if it follows a rejection.
# The first step is h0 if positive (as dop853's initial step guess), else
# hinit picks it; 0.1 h <= y UROUND is too small.  A step
# that would end within 1.01 h of an end, y_stop (the scaled r = 1) while
# the run lies inside it and y_end after, is clipped to end there.  The
# estimate misses what the kink of |u|^(p-1) u at u = 0 costs a step
# across a zero (85 times the tolerance at n=7, lambda=2, a = 4.25e19,
# rtol 2.3e-14), so the step on which u changes sign for the k-th time,
# and the step to y_stop while zero k is next (near a* zero k lies within
# that cost of r = 1), is taken again in steps of at most an eighth of it
# (hlim) until its end (until).  Each step accepted below y_stop goes to
# record as a packed row of _ROW floats, the step that trips the guard too;
# _finish_steps finds the sign changes in the record.  The run ends at the
# later of zero k and y_stop, at y_stop if that is y_end; k = 0 seeks no
# zero.  Returns (RHS evaluations, end, radius, row):
# end "zero", "blow-up", "end" at y_end, or why the run failed; row is the
# row of zero k's step once found, else that of the step that trips the
# guard.
_SHOT_SOURCE = """\
def _dop853(K, h, p, n1, lam, k, y, v, vp, h0, y_stop, y_end, rtol, atol, max_steps, record):
{start}
    k0v, hmax, hlim, until = vp, y_end - y, y_end - y, inf
    if h0 > 0.0:
        hh, nfev = min(h0, hmax), 1
    else:
        sk1, sk2 = atol + rtol * abs(v), atol + rtol * abs(vp)
        e1, e2, e3, e4 = k0v / sk1, k0p / sk2, v / sk1, vp / sk2
        dnf, dny = e1 * e1 + e2 * e2, e3 * e3 + e4 * e4
        hh = min(1e-6 if dnf <= 1e-10 or dny <= 1e-10 else sqrt(dny / dnf) * 0.01, hmax)
        xe, ve, ke = y + hh, v + hh * k0v, vp + hh * k0p
{euler}
        e1, e2 = (ke - k0v) / sk1, (kep - k0p) / sk2
        der12 = max(sqrt(e1 * e1 + e2 * e2) / hh, sqrt(dnf))
        h1 = max(1e-6, hh * 1e-3) if der12 <= 1e-15 else (0.01 / der12) ** 0.125
        hh, nfev = min(100.0 * hh, h1, hmax), 2
    attempts, zeros, reject, last, zero = 0, 0, False, False, None
    while True:
        if attempts >= max_steps:
            return nfev, "step budget spent", y, zero
        if not 0.1 * hh > y * {uround!r}:
            return nfev, "step size becomes too small", y, zero
        inside = y < y_stop
        if inside:
            if y + 1.01 * hh - y_stop > 0.0:
                hh, last = y_stop - y, True
        elif y + 1.01 * hh - y_end > 0.0:
            hh, last = y_end - y, True
        attempts, nfev = attempts + 1, nfev + 11
{stages}
        vnew, pnew = v + hh * ({b_v}), vp + hh * ({b_p})
        sk1, sk2 = atol + rtol * max(abs(v), abs(vnew)), atol + rtol * max(abs(vp), abs(pnew))
        e1, e2, e3, e4 = ({e5_v}) / sk1, ({e5_p}) / sk2, ({e3_v}) / sk1, ({e3_p}) / sk2
        err = e1 * e1 + e2 * e2
        deno = err + 0.01 * (e3 * e3 + e4 * e4)
        err = hh * err * sqrt(1.0 / (2.0 * (1.0 if deno <= 0.0 else deno)))
        fac11 = err ** 0.125
        if not err <= 1.0:
            hh /= min({facc1!r}, fac11 / {safe!r})
            reject, last = True, False
            continue
        xnew = y_stop if inside and last else y + hh
{new}
        k12v, nfev = pnew, nfev + 1
        step = (y, v, vp, hh, vnew, pnew, xnew, {k_rows})
        if abs(w) >= {blowup!r}:
            if inside:
                record += pack(*step)
            return nfev, "blow-up", xnew, step if zero is None else zero
        crossed = (w < 0.0) != zeros % 2
        if zeros + 1 == k and until == inf and (crossed or inside and last):
            until, hlim, hh, last = y + hh, hh / 8.0, hh / 8.0, False
            continue
        if crossed:
            zeros += 1
            if zeros == k:
                zero = step
                if not inside:
                    return nfev, "zero", xnew, zero
        if inside:
            record += pack(*step)
            if last and zero is not None:  # at y_stop, past zero k
                return nfev, "zero", xnew, zero
            if last and y_stop == y_end:  # a run that ends at y_stop
                return nfev, "end", xnew, None
            last = False
        elif last:
            return nfev, "end", xnew, None
        if xnew >= until:  # re-taken without the sign change
            hlim, until = hmax, inf
        hnew = min(hh / max({facc2!r}, min({facc1!r}, fac11 / {safe!r})), hlim)
        y, v, vp, k0v, k0p = xnew, vnew, pnew, k12v, k12p
        hh, reject = min(hnew, hh) if reject else hnew, False
"""

# One attempted step of scipy's DOP853 (rk_step and _estimate_error_norm)
# for _FloatDop853, from (y, v, vp) to ynew, with h = ynew - y as hh.  dots
# are the bound dot methods of the views K[:s].T, s = 1..11, K[:-1].T and
# K.T (twice) of the run's stage array, k a flat float view of it, out a
# 2-array that every product is written to, read through the memoryview o,
# and that the error norms are taken on.  The 14 products and 2 norm dots
# are scipy's; the rest is float arithmetic in scipy's order, the error
# scale with np.maximum's NaN rule.  Returns the error norm, the new state
# and its v'', and u/a at ynew.
#
# _rhs_pass is the RHS over many states, for the extra stages of the steps
# _finish_steps takes: it writes the (v', v'') of radii[i] and states[i]
# to k[j + i * stride] and the slot after, k a flat float view of the
# stage array.  _make_rhs makes the RHS of one state, _Deviation.rhs.
_ATTEMPT_SOURCE = """\
def _make_attempt(K, h, p, n1, lam, rtol, atol, k, dots, out):
    {dots} = dots
    o, norm = memoryview(out), out.dot
    def attempt(y, v, vp, hh, ynew):
{stages}
        dotb(B, out)
        sv, sp = o
        vnew, pnew = v + hh * sv, vp + hh * sp
        xnew = y + hh
{new}
        k[{last}], k[{last1}] = pnew, k12p
        a1, a2, a3, a4 = abs(v), abs(vnew), abs(vp), abs(pnew)
        sk1 = atol + (a1 if a1 >= a2 or a1 != a1 else a2) * rtol
        sk2 = atol + (a3 if a3 >= a4 or a3 != a3 else a4) * rtol
        dote5(E5, out)
        sv, sp = o
        o[0], o[1] = sv / sk1, sp / sk2
        err5 = sqrt(norm(out)) ** 2
        dote3(E3, out)
        sv, sp = o
        o[0], o[1] = sv / sk1, sp / sk2
        err3 = sqrt(norm(out)) ** 2
        if err5 == 0 and err3 == 0:
            error = 0.0
        else:
            error = abs(hh) * err5 / sqrt((err5 + 0.01 * err3) * 2)
        if xnew != ynew:  # the RHS's u/a is at xnew, which y + hh rounded off
            w = (K / (K + ynew * ynew)) ** h + vnew
        return error, vnew, pnew, k12p, w
    return attempt


def _rhs_pass(K, h, p, n1, lam, radii, states, k, j, stride):
    for y, (v, vp) in zip(radii, states):
{rhs}
        k[j], k[j + 1] = vp, vpp
        j += stride


def _make_rhs(K, h, p, n1, lam):
    def rhs(y, v, vp):
{rhs}
        return vp, vpp
    return rhs
"""


# Floats per row of a step record: (y, v, v', h, v_new, v'_new, y_new), k0..k12.
_ROW = 7 + 2 * (DOP853.n_stages + 1)
_pack_step = struct.Struct("7d").pack  # a row's first 7 floats


def _generate() -> dict:
    """Compile _SHOT_SOURCE and _ATTEMPT_SOURCE with DOP853's coefficients
    written in, the attempt's as arrays A1..A11, B, E5 and E3."""
    T = dop853_coefficients
    kv, kp = ([f"k{j}{c}" for j in range(T.N_STAGES + 1)] for c in "vp")

    def block(lines, depth):
        return "\n".join(" " * depth + line for line in lines)

    shot = _SHOT_SOURCE.format(
        start=block(_rhs_lines("y", "v", "vp", "k0p"), 4),
        euler=block(_rhs_lines("xe", "ve", "ke", "kep"), 8),
        stages=block([x for s in range(1, T.N_STAGES) for x in _shot_stage_lines(s)], 8),
        new=block(_rhs_lines("xnew", "vnew", "pnew", "k12p"), 8),
        k_rows=", ".join(f"{v}, {p}" for v, p in zip(kv, kp)),
        b_v=_sum(T.B, kv), b_p=_sum(T.B, kp), e5_v=_sum(T.E5, kv), e5_p=_sum(T.E5, kp),
        e3_v=_sum(T.E3, kv), e3_p=_sum(T.E3, kp),
        facc1=1.0 / 0.333, facc2=1.0 / 6.0, safe=0.9, uround=2.3e-16, blowup=BLOWUP_BOUND,
    )
    attempt = _ATTEMPT_SOURCE.format(
        dots=", ".join([f"dot{s}" for s in range(1, T.N_STAGES)] + ["dotb", "dote5", "dote3"]),
        stages=block([x for s in range(1, T.N_STAGES) for x in _attempt_stage_lines(s)], 8),
        new=block(_rhs_lines("xnew", "vnew", "pnew", "k12p"), 8),
        last=2 * T.N_STAGES, last1=2 * T.N_STAGES + 1,
        rhs=block(_rhs_lines("y", "v", "vp", "vpp"), 8),
    )
    # the row views scipy's rk_step takes, and its B, E5 and E3
    A = DOP853.A
    namespace = {f"A{s}": A[s, :s] for s in range(1, T.N_STAGES)}
    namespace.update(B=DOP853.B, E5=DOP853.E5, E3=DOP853.E3, expm1=math.expm1,
                     log1p=math.log1p, sqrt=math.sqrt, inf=math.inf,
                     pack=struct.Struct(f"{_ROW}d").pack)
    for part in (shot, attempt):  # one at a time: a smaller peak for the compiler
        exec(compile(part, "<bnball.ode DOP853>", "exec"), namespace)
    return dict(namespace, source="\n\n".join([shot, attempt]))


_GENERATED = _generate()
_make_rhs, _dop853 = _GENERATED["_make_rhs"], _GENERATED["_dop853"]
_make_attempt, _rhs_pass = _GENERATED["_make_attempt"], _GENERATED["_rhs_pass"]


@dataclass(frozen=True)
class Shot:
    """One outward run on u(0) = a from its start at the scaled radius y0:
    how it ended, at the scaled radius `radius` ("untrusted", without
    either, where no run was made), the row of zero k's step if the run
    found zero k, else of its blown step, and the steps committed up to
    the scaled radius stop, the record _finish_steps and profile() take
    once the run has ended; nfev counts the run's RHS evaluations, and
    rtol is its own.  shot fills one from _dop853 with stop at r = 1,
    integrate from _FloatDop853 with stop at r_stop and its solve_ivp
    message as end."""

    dev: _Deviation
    y0: float | None
    stop: float
    end: str
    radius: float | None
    row: tuple | None = field(repr=False)
    record: bytearray = field(repr=False)
    nfev: int
    rtol: float

    @cached_property
    def r_k(self) -> float:
        """Radius of zero k, the zero crossing _finish_steps locates on its
        step's row as integrate locates an event (u's alone: no root of u'
        is sought there), however the run ended after it; else inf where
        the run reached SHOOT_END or made none, and a blown or failed run
        raises as integrate would at the radius it reached."""
        if self.row is None:
            if self.end in ("end", "untrusted"):
                return math.inf
            raise self._failure()
        zeros = []  # a blown row raises before it gives one
        with np.errstate(all="ignore"):
            _finish_steps(self.dev, np.reshape(self.row, (1, _ROW)), zeros, derivative=False)
        if not zeros:
            raise IntegrationFailed("integration failed: u does not change sign on zero k's step",
                                    last_radius=self.row[0] / self.dev.scale_r)
        return zeros[0].r

    def profile(self) -> RadialProfile:
        """The profile in physical variables out to stop, the one builder
        of a run's profile: _finish_steps runs on the record first, so a
        blown step or one whose dense output is not finite raises ahead of
        a run that failed short of stop, which raises as r_k does.  The
        located events are sorted by radius (stably, so a zero crossing
        stays before a derivative zero at the same radius); knots hold the
        steps plus DENSE_SAMPLES interior samples per step, and below the
        first knot the profile answers from the 8-term series.  For a
        shot that started past series_start, the record is first preceded
        by the core: the rows of a _dop853 run at the shot's rtol from
        series_start to the shot's start, its last step clipped to end
        there, which are the rows of a shot from the series start up to
        that step; so the knots start at series_start.  SingularPoint
        where the start lies at or beyond stop; IntegrationFailed without a
        run."""
        if self.y0 is None:
            raise IntegrationFailed("integration failed: untrusted, so the shot made no run")
        dev, y0, record = self.dev, self.y0, self.record
        scale_r = dev.scale_r
        if not y0 < self.stop:
            raise SingularPoint(f"r = {self.stop / scale_r:g} does not lie beyond the "
                                f"series-start radius {y0 / scale_r:g} of amplitude {dev.a:g}")
        y_s, state = dev.series_start()
        if y_s < y0:  # started from the linear response: the core from the series
            core = bytearray()
            _, end, radius, _ = _dop853(
                dev.K, dev.h, dev.p, dev.n - 1.0, dev.lam_hat, 0, y_s, *state, 0.0, y0, y0,
                self.rtol, dev.atol_scaled, SHOOT_MAX_STEPS, core,
            )
            if end != "end":
                raise IntegrationFailed(f"integration failed: {end}",
                                        last_radius=radius / scale_r)
            record, y0 = core + record, y_s
        rows = np.frombuffer(record).reshape(-1, _ROW)
        events = []
        with np.errstate(all="ignore"):
            F = _finish_steps(dev, rows, events)
        if self.end != "blow-up" and self.radius < self.stop:
            raise self._failure()
        ts = np.concatenate([[y0], rows[:, 6]])
        events.sort(key=lambda e: e.r)
        dense = _StepPolynomials(rows, F)
        fill = np.linspace(ts[:-1], ts[1:], DENSE_SAMPLES + 2, axis=1)[:, 1:-1]
        ys = np.sort(np.concatenate([ts, fill.ravel()]))
        knots = ys / scale_r

        def at_r(r):
            """(u, u') at radii r: the series below the first knot, the
            dense output from it on.  The first knot is read at the start
            radius, which fl(knots[0] * scale_r) does not always round back
            to, so that it gives the first sample exactly."""
            y = r * scale_r
            y[r == knots[0]] = y0
            v, vp = dense(y)
            below = r < knots[0]
            if below.any():  # the series costs about as much as the dense pass
                v[below], vp[below] = dev.series_state(y[below])
            return dev.u_du(y, (v, vp))

        values, derivs = dev.u_du(ys, dense(ys))
        return RadialProfile(
            params=dev.params,
            a=dev.a,
            knots=knots,
            values=values,
            derivs=derivs,
            events=events,
            r_end=ts[-1] / scale_r,
            dense=at_r,
            steps=ts / scale_r,
        )

    def _failure(self) -> IntegrationFailed:
        return IntegrationFailed(f"integration failed: {self.end}",
                                 last_radius=self.radius / self.dev.scale_r)


def shot(params: Params, a: float, k: int, *, rtol: float = DEFAULT_RTOL,
         atol: float = DEFAULT_ATOL) -> Shot:
    """One shooting evaluation of u(0) = a toward zero k: integrate's
    deviation problem on _dop853 at run_tolerances(rtol, atol), from
    _Deviation.shot_start: series_start, where the series is exact to
    rounding, or at small lamhat a grid radius of the linear response
    further out, with the first step that comes with it; none below the
    zero-trust floor, where sign changes are noise.  A bad
    tolerance raises before any step, an error scale of 0 as
    IntegrationFailed; other failures are the Shot's to raise.  Its r_k
    is the radius of zero k, inside the ball or beyond, inf where the
    problem is untrusted or zero k lies beyond SHOOT_END; its row is zero
    k's step, or the blown one; its record, and so its profile(), stops at
    r = 1."""
    rtol, atol = run_tolerances(rtol, atol)
    dev = _deviation(params, a, SHOOT_END, atol)
    record = bytearray()
    if not dev.trusted:
        return Shot(dev, None, dev.scale_r, "untrusted", None, None, record, 0, rtol)
    y0, state, h0 = dev.shot_start(rtol)
    try:
        nfev, end, radius, row = _dop853(
            dev.K, dev.h, dev.p, dev.n - 1.0, dev.lam_hat, k, y0, *state, h0, dev.scale_r,
            dev.y_end, rtol, dev.atol_scaled, SHOOT_MAX_STEPS, record,
        )
    except ZeroDivisionError as exc:  # error scale 0: atol scaled to 0 on a zero state
        raise IntegrationFailed(f"integration failed: {exc}") from exc
    return Shot(dev, y0, dev.scale_r, end, radius, row, record, nfev, rtol)


@dataclass(frozen=True)
class _LinearResponse:
    """phi_1 of one dimension on a grid of scaled radii, from the series
    start of lamhat -> 0 on, RESPONSE_GRID per decade, and how far lamhat
    phi_1 may be trusted there.

    states holds (phi_1, phi_1') at radii: the recorded float state of the
    table run at RESPONSE_LAM_HAT divided by it; steps the step the table
    run goes on with from there, the last it took before the one clipped
    to end on the radius.  second, error and size are running maxima over
    the grid up to each radius: of |phi_2 / phi_1|, from the run at
    RESPONSE_PROBE; of the table's relative error, its difference from the
    run at ten times RESPONSE_RTOL; and of |phi_1| / delta.  The first two
    measure a state (v, v') relative to |v|, with v' on the scale of v /
    y.  The table ends where a run fails to reach the next radius or where
    the probe's |v| exceeds RESPONSE_SHARE of delta, beyond which it no
    longer isolates phi_2.
    """

    radii: tuple
    states: tuple
    steps: tuple
    second: tuple
    error: tuple
    size: tuple

    def last(self, lam_hat: float, rtol: float, below: float) -> int:
        """Index of the last radius below `below` up to which lam_hat
        times the table is within RESPONSE_SHARE rtol of the deviation, in
        the second-order term and in the table's error each, and lam_hat
        |phi_1| within RESPONSE_SHARE of delta; -1 for none."""
        share = RESPONSE_SHARE
        return min(
            bisect_left(self.radii, below),
            bisect_right(self.second, share * rtol / lam_hat),
            bisect_right(self.error, share * rtol),
            bisect_right(self.size, share / lam_hat),
        ) - 1


def _relative(y: float, state, to) -> float:
    """How far state (v, v') lies from `to` at y, relative to |v| of
    `to`, with v' on the scale of v / y."""
    return max(abs(state[0] - to[0]), y * abs(state[1] - to[1])) / abs(to[0])


@cache
def _linear_response(n: int) -> _LinearResponse:
    """The _LinearResponse of dimension n, built on first use from the
    rows of _response_rows."""
    rows = list(_response_rows(n))
    return _LinearResponse(*(zip(*rows) if rows else [()] * 6))


def _response_rows(n: int):
    """(radius, (phi_1, phi_1'), step, second, error, size) at each grid
    radius of _LinearResponse, from three _dop853 runs, each from the
    series start of RESPONSE_LAM_HAT, stopped exactly on every grid radius
    and going on from there with the step it would have taken: the table
    at RESPONSE_LAM_HAT and RESPONSE_RTOL, its check at ten times that
    rtol, and the probe at RESPONSE_PROBE."""
    dev = _deviation(Params(n=n, lam=RESPONSE_LAM_HAT), 1.0, SHOOT_END, DEFAULT_ATOL)
    probe = _deviation(Params(n=n, lam=RESPONSE_PROBE), 1.0, SHOOT_END, DEFAULT_ATOL)
    y0, state = dev.series_start()
    runs = [  # lamhat, rtol, the state the run has reached and its next step
        [RESPONSE_LAM_HAT, RESPONSE_RTOL, state, 0.0],
        [RESPONSE_LAM_HAT, 10.0 * RESPONSE_RTOL, state, 0.0],
        [RESPONSE_PROBE, RESPONSE_RTOL, probe.series_state(y0), 0.0],
    ]
    second = error = size = 0.0
    y_run = y0
    for j in itertools.count(1):
        y = y0 * 10.0 ** (j / RESPONSE_GRID)
        for run in runs:
            lam, rtol, (v, vp), h0 = run
            record = bytearray()
            _, end, _, _ = _dop853(dev.K, dev.h, dev.p, n - 1.0, lam, 0, y_run, v, vp, h0, y,
                                   y, rtol, RESPONSE_ATOL * lam, RESPONSE_STEPS, record)
            if end != "end":
                return
            floats = memoryview(record).cast("d")
            last = len(floats) - _ROW  # the last row, its step clipped to end on y
            # the step before the clipped one, with which the run goes on
            run[2:] = (floats[last + 4], floats[last + 5]), floats[max(last - _ROW, 0) + 3]
        phi, check, probed = [(v / lam, vp / lam) for lam, _, (v, vp), _ in runs]
        delta = dev.bubble(y)[0]
        if not RESPONSE_PROBE * abs(probed[0]) <= RESPONSE_SHARE * delta:
            return
        second = max(second, _relative(y, probed, phi) / RESPONSE_PROBE)
        error = max(error, _relative(y, check, phi))
        size = max(size, abs(phi[0]) / delta)
        if not second + error + size < math.inf:
            return
        yield y, phi, runs[0][3], second, error, size
        y_run = y
