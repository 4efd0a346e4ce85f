"""Radial ODE integration: full profiles with events, and shooting evaluations.

A radial solution of -Delta u = lambda u + |u|^(2*-2) u satisfies

    u'' + (n-1)/r u' + lambda u + |u|^(2*-2) u = 0,    u'(0) = 0,

which is singular at the origin.  integrate starts from a second-order
Taylor expansion at a small radius r0 instead; shoot starts further out,
where a longer Taylor series of the deviation below is exact to rounding.

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
certification and records read; shoot returns only the radius of the k-th
zero of u, which is all a shooting evaluation needs.  Both build the
problem with _deviation, so the right-hand side and the blow-up guard are
defined once.

integrate runs solve_ivp with _FloatDop853, scipy's DOP853 stepping on
Python floats.  It takes the steps, builds the dense output and counts the
RHS evaluations of stock DOP853 bit for bit.  Each step is finished inside
the stepper: it records the step's dense-output polynomial, checks the
blow-up guard and the sign changes in place of solve_ivp's event
functions, and fails a step whose polynomial is not finite.  shoot
locates its zero with the same stepper.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import DOP853, solve_ivp
from scipy.integrate import ode as scipy_ode
from scipy.integrate._ivp.rk import MAX_FACTOR, MIN_FACTOR, SAFETY, Dop853DenseOutput
from scipy.optimize import brentq

from .model import (
    BlowUpDetected,
    ConfigError,
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

# Sign changes count only when lam_hat clears the absolute noise floor by
# this factor; see the trust note in _deviation.
ZERO_TRUST_FACTOR = 1e3

# Dense-output samples stored between consecutive integrator steps.
DENSE_SAMPLES = 8

# Step budget of one shooting evaluation; a full integration to r=1 takes a
# few hundred steps.
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
    (u, u') and is what u_du() evaluates above the first knot; u() and
    du() read through u_du().
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
        """(u, u') at r from one dense evaluation; floats for scalar r."""
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        u = np.empty_like(r)
        du = np.empty_like(r)
        inside = r >= self.knots[0]
        if np.any(inside):
            u[inside], du[inside] = self.dense(r[inside])
        if not np.all(inside):
            # Below the series-start radius, use the same Taylor expansion
            # the integration started from.
            f = self.params.nonlinearity(self.a)
            rr = r[~inside]
            u[~inside] = self.a - f * rr * rr / (2.0 * self.params.n)
            du[~inside] = -f * rr / self.params.n
        return (float(u[0]), float(du[0])) if scalar else (u, du)

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
        """
        if not (math.isfinite(M) and M > 0.0):
            raise ConfigError(f"scaling parameter must be positive, got {M}")
        params = self.params
        c = M**params.beta
        scaled_params = Params(n=params.n, lam=params.lam / (M * M) ** params.beta)
        events = []
        for e in self.events:
            # zero crossings store u' there, derivative zeros store u
            factor = 1.0 / (M * c) if e.kind == "zero-crossing" else 1.0 / M
            events.append(Event(kind=e.kind, r=c * e.r, value=factor * e.value))

        def dense(y):
            u, du = self.u_du(np.asarray(y, dtype=float) / c)
            return u / M, du / (M * c)

        return RadialProfile(
            params=scaled_params,
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

    f is the right-hand side in s = (v, v') at the scaled radius y, in
    scipy.integrate.ode's convention; rhs(y, v, vp) is the same on floats,
    returning (v', v'').  f returns one float64 array of shape (2,), the
    same array on every call, overwritten by the next: a caller that keeps
    a result must copy it.  integrate runs from the two-term series state
    s0 at y0 out to y_end, shoot from series_start().  trusted says whether
    sign changes of u can be told from integration noise.
    """

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
    s0: tuple[float, float]
    atol_scaled: float
    trusted: bool
    f: object = field(repr=False)
    rhs: object = field(repr=False)

    def bubble(self, y):
        """The unit-center-value bubble delta = (K/(K+y^2))^h and delta' at
        scaled radius y, scalar or array."""
        t = self.K / (self.K + y * y)
        d = t**self.h
        return d, -(self.n - 2.0) * y * d * t / self.K

    def series(self) -> list[float]:
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
        return v

    def series_start(self) -> tuple[float, tuple[float, float]]:
        """The scaled radius y_s where a shot starts and the state (v, v')
        there from series().

        y_s is the largest y <= 1, and below half of y_end, at which the
        last term is at most SERIES_CUTOFF of the first, so that the series
        is exact to rounding there, but never below SCALED_START; a series
        that overflows gives integrate's start.
        """
        v = self.series()
        J = SERIES_TERMS
        ratio = abs(v[J] / v[1]) if v[1] else 0.0
        if not ratio < math.inf:  # overflowed at an absurd lamhat
            return self.y0, self.s0
        y = (SERIES_CUTOFF / ratio) ** (0.5 / (J - 1)) if ratio else 1.0
        y = max(min(y, 1.0, 0.5 * self.y_end), SCALED_START)
        z = y * y
        w = wp = 0.0
        for j in range(J, 0, -1):  # Horner in z
            w = w * z + v[j]
            wp = wp * z + j * v[j]
        return y, (w * z, 2.0 * y * wp)

    def signs(self, y, s):
        """(u/a, u'/(a scale_r)) at scaled radius y from the deviation state
        s: the values whose sign changes integrate records as events."""
        d, dd = self.bubble(y)
        return d + s[0], dd + s[1]

    def u_du(self, y, s):
        """(u, u') at scaled radius y from the deviation state s there."""
        w, wp = self.signs(y, s)
        return self.a * w, self.scale_v * wp


def _blown_up(w: float) -> bool:
    """Whether u/a = w has reached the blow-up guard."""
    return abs(w) >= BLOWUP_BOUND


def _deviation(params: Params, a: float, r_stop: float, atol: float) -> _Deviation:
    """The deviation problem of u(0) = a out to r_stop."""
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

    # f's one result, which scipy.integrate.ode copies at once
    out = np.empty(2)
    slots = memoryview(out)

    def f(y, s):
        # On Python floats: the same IEEE results as on numpy scalars, at a
        # third of the cost per call.
        v, vp = s.tolist()
        y = float(y)
        t = K / (K + y * y)
        d = t**h
        w = d + v
        if w > 0.0 and abs(v) < 0.5 * d:
            # delta^(2*-1) = d t^2; difference kept in stable form
            df = d * t * t * math.expm1(p * math.log1p(v / d))
        else:
            try:
                g = abs(w) ** (p - 1.0)
            except OverflowError:
                g = math.inf  # numpy's result, without its warning
            df = g * w - d * t * t
        slots[0], slots[1] = vp, -n1 / y * vp - lam * w - df
        return out

    def rhs(y, v, vp):
        # f's body on float arguments, without its unpacking, for the
        # float stepper of integrate
        t = K / (K + y * y)
        d = t**h
        w = d + v
        if w > 0.0 and abs(v) < 0.5 * d:
            df = d * t * t * math.expm1(p * math.log1p(v / d))
        else:
            try:
                g = abs(w) ** (p - 1.0)
            except OverflowError:
                g = math.inf
            df = g * w - d * t * t
        return vp, -n1 / y * vp - lam * w - df

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
        n=n,
        K=K,
        h=h,
        p=p,
        a=a,
        lam_hat=lam_hat,
        scale_r=scale_r,
        scale_v=a * scale_r,
        y0=y0,
        y_end=y_end,
        s0=(v0, vp0),
        atol_scaled=atol_scaled,
        trusted=lam_hat >= ZERO_TRUST_FACTOR * atol_scaled,
        f=f,
        rhs=rhs,
    )


@dataclass(frozen=True)
class _StepPolynomials:
    """DOP853's dense output with every step polynomial stacked in arrays.

    Evaluates the deviation state at any scaled radii, scalar or array, in
    one numpy pass, with exactly the arithmetic of scipy's OdeSolution over
    Dop853DenseOutput pieces (Hairer, Norsett, Wanner, Solving ODEs I,
    II.6), so every value is bit-identical to it.  ts holds the ascending
    step radii of an outward integration and piece i spans ts[i]..ts[i+1];
    on a step radius the step that ends there is used, as OdeSolution
    does.  The other fields stack the rows _FloatDop853 records, one per
    step.
    """

    ts: np.ndarray
    t_old: np.ndarray  # (pieces,) start of each step
    h: np.ndarray  # (pieces,) step length
    F: np.ndarray  # (pieces, 7, 2) polynomial coefficients
    y_old: np.ndarray  # (pieces, 2) state at t_old

    def __call__(self, y):
        """State (v, v') at y: shape (2,) for scalar y, else (2, len(y))."""
        y = np.asarray(y, dtype=float)
        i = np.clip(np.searchsorted(self.ts, y, side="left") - 1, 0, len(self.h) - 1)
        x = ((y - self.t_old[i]) / self.h[i])[..., None]
        factors = (x, 1 - x)
        F = self.F[i]
        s = np.zeros(y.shape + (2,))
        for j in range(F.shape[-2]):
            s += F[..., -1 - j, :]
            s *= factors[j % 2]
        s += self.y_old[i]
        return s.T


def run_rtol(rtol: float) -> float:
    """The rtol integrate and shoot run: raised to 100 eps, as solve_ivp would."""
    return max(rtol, 100.0 * math.ulp(1.0))


def _blow_up(radius: float) -> BlowUpDetected:
    return BlowUpDetected(f"|u| exceeded {BLOWUP_BOUND:g} * |a| at r = {radius:g}")


def _callback_failure(exc: BaseException) -> IntegrationFailed:
    """IntegrationFailed naming the exception at the bottom of exc's chain.

    scipy's dop853 wrapper reports an exception raised in its callbacks as
    a ValueError on top of a chain of SystemErrors (one per later callback
    call); the exception that started it is the last in __context__.
    """
    cause = exc
    while isinstance(cause, (ValueError, SystemError)):
        if cause.__context__ is None:
            break
        cause = cause.__context__
    return IntegrationFailed(
        f"integration failed: {type(cause).__name__}: {cause}"
    )


def _maximum(a: float, b: float) -> float:
    """np.maximum on floats: NaN if either is."""
    return a if a >= b or a != a else b


_EVENT_KINDS = ("zero-crossing", "derivative-zero")  # of u, of u'


def _root(piece: Dop853DenseOutput, g) -> float:
    """The root of g(y, (v, v')) over one step, located as solve_ivp
    locates an event: brentq at xtol = rtol = 4 eps on the step's dense
    output.  The step-end state and the polynomial there may disagree in
    sign in the last bit; brentq's ValueError is then IntegrationFailed.
    piece and g go to brentq as args: its NaN guard wraps the function in
    a closure over itself, a cycle that would keep them alive."""
    tol = 4 * np.finfo(float).eps
    try:
        return brentq(_on_piece, piece.t_old, piece.t, args=(piece, g), xtol=tol, rtol=tol)
    except ValueError as exc:
        raise IntegrationFailed(f"integration failed: {exc}") from exc


def _on_piece(y: float, piece: Dop853DenseOutput, g) -> float:
    return g(y, piece(y))


class _FloatDop853(DOP853):
    """scipy's DOP853 stepping on Python floats, with the events of integrate.

    Takes the steps, builds the dense output and counts the RHS evaluations
    (nfev) of stock DOP853 bit for bit.  Every reduction over the stages
    stays the dot product scipy takes, on the same views of the stage
    array, because OpenBLAS may fuse its multiply-adds, so a float sum can
    differ in the last bit; each error norm stays sqrt(err.dot(err))**2 on
    an array for the same reason.  The rest (stage states, error scale,
    step factor, the first three dense-output coefficients) is float
    arithmetic in scipy's order.  fun is a float RHS
    fun(y, v, v') -> (v', v''), like _Deviation.rhs.

    _step_impl finishes each step that passes error control: it computes
    the three extra stages and the dense-output coefficients F, fails the
    step before committing it if F is not finite (t stays the last
    accepted radius), and otherwise appends the row (t_old, h, F, y_old)
    to rows and checks the step in place of solve_ivp's events.  The first
    state past the blow-up guard raises BlowUpDetected at the radius
    solve_ivp's event location gives, and while the problem is trusted,
    each change of sign of u or u' over the step, by solve_ivp's rule for
    an event of direction 0, is located on the step's dense output as
    solve_ivp locates an event and appended to crossings as a finished
    Event.  Callers run the stepper under np.errstate(all="ignore"): a NaN
    trial step is then rejected as in stock DOP853, without a warning.

    scipy's OdeSolver wraps the RHS in closures over the solver, a
    reference cycle; a run that ends (finished, failed or raising) drops
    them, and the RHS and deviation, through release(), so reference
    counting frees the stepper.  A caller that stops stepping a running
    stepper calls release() itself.
    """

    NON_FINITE_STEP = "Dense output of the step is not finite."

    def __init__(self, fun, t0, y0, t_bound, *, deviation, crossings, rows, **options):
        # scipy's own start: the first RHS call and the initial step size
        super().__init__(
            lambda t, y: fun(float(t), *y.tolist()), t0, y0, t_bound, **options
        )
        self.rhs = fun
        self.deviation = deviation
        self.crossings = crossings
        self.rows = rows
        self.y = tuple(self.y.tolist())
        self.f = tuple(self.f.tolist())
        self.direction = float(self.direction)
        self.h_abs = float(self.h_abs)
        self.rtol, self.atol = float(self.rtol), float(self.atol)
        K = self.K_extended
        # Stage s is written to k[2s], k[2s+1], a flat float view of K:
        # numpy's row assignment costs as much as the RHS call itself.
        self.k = memoryview(K.reshape(-1))
        self.stages = [
            (2 * s, K[:s].T, a[:s], float(c))
            for s, (a, c) in enumerate(zip(self.A[1:], self.C[1:]), start=1)
        ]
        self.extra_stages = [
            (2 * s, K[:s].T, a[:s], float(c))
            for s, (a, c) in enumerate(
                zip(self.A_EXTRA, self.C_EXTRA), start=self.n_stages + 1
            )
        ]
        self.signs = deviation.signs(t0, self.y)

    def step(self):
        try:
            message = super().step()
        except BaseException:
            self.release()
            raise
        if self.status != "running":
            self.release()
        return message

    def release(self):
        """Drop the references that keep the stepper in a cycle."""
        self.fun = self.fun_single = self.fun_vectorized = None
        self.rhs = self.deviation = None

    def _step_impl(self):
        t = self.t
        v, vp = self.y
        rhs = self.rhs
        rtol, atol = self.rtol, self.atol
        k = self.k
        KT, KT_B = self.K.T, self.K[:-1].T
        last = 2 * self.n_stages

        min_step = 10 * abs(math.nextafter(t, self.direction * math.inf) - t)
        if self.h_abs > self.max_step:
            h_abs = self.max_step
        elif self.h_abs < min_step:
            h_abs = min_step
        else:
            h_abs = self.h_abs

        step_rejected = False
        while True:
            if h_abs < min_step:
                return False, self.TOO_SMALL_STEP

            h = h_abs * self.direction
            t_new = t + h
            if self.direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = abs(h)

            k[0], k[1] = self.f
            for i, KsT, a, c in self.stages:
                dv, dvp = KsT.dot(a).tolist()
                k[i], k[i + 1] = rhs(t + c * h, v + dv * h, vp + dvp * h)
            bv, bvp = KT_B.dot(self.B).tolist()
            v_new = v + h * bv
            vp_new = vp + h * bvp
            f_new = rhs(t + h, v_new, vp_new)
            k[last], k[last + 1] = f_new
            self.nfev += self.n_stages

            scale = np.array((
                atol + _maximum(abs(v), abs(v_new)) * rtol,
                atol + _maximum(abs(vp), abs(vp_new)) * rtol,
            ))
            err5 = KT.dot(self.E5) / scale
            err3 = KT.dot(self.E3) / scale
            err5_norm_2 = float(np.sqrt(err5.dot(err5)) ** 2)
            err3_norm_2 = float(np.sqrt(err3.dot(err3)) ** 2)
            if err5_norm_2 == 0 and err3_norm_2 == 0:
                error_norm = 0.0
            else:
                denom = err5_norm_2 + 0.01 * err3_norm_2
                error_norm = h_abs * err5_norm_2 / math.sqrt(denom * 2)

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

        # the step's dense output, as scipy's _dense_output_impl builds it
        for i, KsT, a, c in self.extra_stages:
            dv, dvp = KsT.dot(a).tolist()
            k[i], k[i + 1] = rhs(t + c * h, v + dv * h, vp + dvp * h)
        self.nfev += len(self.extra_stages)
        f, fp = f_new
        f_old, fp_old = k[0], k[1]
        dv, dvp = v_new - v, vp_new - vp
        F = np.empty((3 + len(self.D), 2))
        F[:3] = (
            (dv, dvp),
            (h * f_old - dv, h * fp_old - dvp),
            (2 * dv - h * (f + f_old), 2 * dvp - h * (fp + fp_old)),
        )
        F[3:] = h * self.D.dot(self.K_extended)
        if not np.isfinite(F).all():
            return False, self.NON_FINITE_STEP

        self.t = t_new
        self.y = (v_new, vp_new)
        self.h_abs = h_abs
        self.f = f_new
        self.rows.append((t, h, F, (v, vp)))
        self._check_step(t, (v, vp), F)
        return True, None

    def _check_step(self, t_old, y_old, F):
        """The blow-up guard and the sign changes over the step just taken
        from t_old, y_old, whose dense-output coefficients are F.

        The same order as solve_ivp's event handling: the blow-up radius is
        located first, then the sign changes of the step are located and
        recorded, then BlowUpDetected ends the run.  Zero crossings store u'
        there, derivative zeros store u.  The step's Dop853DenseOutput is
        built only when there is a root to locate.
        """
        dev = self.deviation
        signs = dev.signs(self.t, self.y)
        blown = _blown_up(signs[0])
        changes = [
            c for c, (g, g_new) in enumerate(zip(self.signs, signs))
            if dev.trusted and ((g <= 0 and g_new >= 0) or (g >= 0 and g_new <= 0))
        ]
        self.signs = signs
        if not (blown or changes):
            return
        piece = Dop853DenseOutput(t_old, self.t, np.array(y_old), F)
        if blown:
            blown_at = _root(piece, lambda y, s: abs(dev.signs(y, s)[0]) - BLOWUP_BOUND)
        for c in changes:
            root = _root(piece, lambda y, s: dev.signs(y, s)[c])
            value = dev.u_du(root, piece(root))[1 - c]
            self.crossings.append(Event(_EVENT_KINDS[c], root / dev.scale_r, value))
        if blown:
            raise _blow_up(blown_at / dev.scale_r)


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
    r_stop on _FloatDop853 at run_rtol(rtol), in one solve_ivp call, and
    maps it back to physical variables.  The stepper locates each sign
    change of u or u' on the dense output of the step that finds it, by
    solve_ivp's bracketed root-finding (well below 1e-12 radius accuracy),
    and records it as an event; the dense output is stacked from the rows
    it records.  knots hold the integrator steps plus DENSE_SAMPLES
    interior samples per step; `steps` keeps the raw step radii, whose
    dense-output pieces downstream quadrature integrates piecewise.
    Everything returned is bit-identical to solve_ivp with method="DOP853"
    and the same checks as event functions.  A step whose dense output is
    not finite is IntegrationFailed at the last accepted radius, under any
    warnings filter.
    """
    dev = _deviation(params, a, r_stop, atol)
    scale_r = dev.scale_r
    rtol = run_rtol(rtol)
    events, rows = [], []
    with np.errstate(all="ignore"):
        sol = solve_ivp(
            dev.rhs,
            (dev.y0, dev.y_end),
            dev.s0,
            method=_FloatDop853,
            rtol=rtol,
            atol=dev.atol_scaled,
            deviation=dev,
            crossings=events,
            rows=rows,
        )
    if not sol.success:
        raise IntegrationFailed(
            f"integration failed: {sol.message}", last_radius=sol.t[-1] / scale_r
        )
    # Untrusted integrations have no sign events.  The stable sort keeps a
    # zero crossing before a derivative zero at the same radius.
    events.sort(key=lambda e: e.r)

    dense = _StepPolynomials(sol.t, *(np.array(column) for column in zip(*rows)))

    def at_y(y):
        """(u, u') at scaled radius y, from the dense output."""
        return dev.u_du(y, dense(y))

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
    )


def shoot(
    params: Params,
    a: float,
    k: int,
    *,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> float:
    """Radius r_k of the k-th zero of the solution with u(0) = a.

    One shooting evaluation: the deviation problem of integrate on Hairer's
    Fortran DOP853 (scipy.integrate.ode) at run_rtol(rtol), without events
    or dense output, from _Deviation.series_start (further out than
    integrate's start, where the series is exact to rounding) to the
    accepted step on which u changes sign for the k-th time (a double
    crossing inside one step goes uncounted), past r=1 if need be;
    _locate_zero then locates zero k on that step.  inf where the problem
    is not trusted (at once) or zero k lies beyond SHOOT_END.  Raises
    BlowUpDetected and IntegrationFailed where integrate does.
    """
    dev = _deviation(params, a, SHOOT_END, atol)
    if not dev.trusted:
        return math.inf
    rtol = run_rtol(rtol)
    zeros = 0
    blown_at = None
    y0, s0 = dev.series_start()
    before = (y0, list(s0))  # the state at the start of the last step
    K, h = dev.K, dev.h

    def solout(y, s):
        nonlocal zeros, blown_at, before
        state = s.tolist()
        w = (K / (K + y * y)) ** h + state[0]  # u/a, as dev.signs(y, s)[0]
        if _blown_up(w):
            blown_at = y
            return -1
        if (w < 0.0) != zeros % 2:
            zeros += 1
            if zeros == k:
                return -1
        before = (y, state)
        return 0

    solver = scipy_ode(dev.f).set_integrator(
        "dop853", rtol=rtol, atol=dev.atol_scaled, nsteps=SHOOT_MAX_STEPS
    )
    solver.set_solout(solout)
    solver.set_initial_value(s0, y0)
    try:
        with warnings.catch_warnings(record=True) as caught:
            # A failed run warns and returns a truncated state; the warning's
            # text is reported through IntegrationFailed below instead.
            warnings.filterwarnings(
                "always", category=UserWarning, module="scipy.integrate._ode"
            )
            try:
                solver.integrate(dev.y_end)
            except ValueError as exc:
                # An exception inside the RHS or solout (a RuntimeWarning when
                # warnings are errors) comes out of the Fortran wrapper as this
                # ValueError.
                raise _callback_failure(exc) from exc
        if blown_at is not None:
            raise _blow_up(blown_at / dev.scale_r)
        if not solver.successful():
            reason = "; ".join(str(w.message) for w in caught)
            raise IntegrationFailed(
                f"integration failed: {reason} "
                f"(return code {solver.get_return_code()})",
                last_radius=solver.t / dev.scale_r,
            )
    finally:
        # scipy's dop853 wrapper keeps a reference to the integrator's bound
        # _solout on every run; emptied, the integrator no longer keeps its
        # work arrays, solout's closure and the deviation alive.
        solver._integrator.__dict__.clear()
    if zeros < k:
        return math.inf
    return _locate_zero(dev, *before, solver.t, rtol)


def _locate_zero(dev: _Deviation, y: float, state, end: float, rtol: float) -> float:
    """Radius of the zero of u on a Fortran step from scaled radius y, with
    deviation state there, to end: _FloatDop853 runs over the step from
    half its length, and its step check locates the zero as in integrate.
    A run that has not yet crossed at the end puts the zero there."""
    crossings = []
    with np.errstate(all="ignore"):
        stepper = _FloatDop853(
            dev.rhs, y, state, end, deviation=dev, crossings=crossings, rows=[],
            rtol=rtol, atol=dev.atol_scaled, first_step=(end - y) / 2.0,
        )
        try:
            while stepper.status == "running":
                message = stepper.step()
                if stepper.status == "failed":
                    raise IntegrationFailed(
                        f"integration failed: {message}",
                        last_radius=stepper.t / dev.scale_r,
                    )
                for event in crossings:
                    if event.kind == "zero-crossing":
                        return event.r
        finally:
            stepper.release()
    return end / dev.scale_r
