"""Radial ODE integration: full profiles with events, and shooting evaluations.

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

integrate returns the full profile (events, dense output) that features,
certification and records read; shoot returns only the zero count and the
end state at r=1, which is all a shooting evaluation needs.  Both build
the problem with _deviation, so the right-hand side and the blow-up guard
are defined once.

integrate runs solve_ivp with _FloatDop853, scipy's DOP853 stepping on
Python floats.  It takes the steps, builds the dense output and counts the
RHS evaluations of stock DOP853 bit for bit, and it checks the blow-up
guard and the sign changes at each accepted step in place of solve_ivp's
event functions.
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


@dataclass(frozen=True)
class _Deviation:
    """The unit-amplitude deviation problem of one nonzero amplitude.

    f is the right-hand side in s = (v, v') at the scaled radius y, in
    scipy.integrate.ode's convention; rhs(y, v, vp) is the same on floats,
    returning (v', v'').  f returns one float64 array of shape (2,), the
    same array on every call, overwritten by the next: a caller that keeps
    a result must copy it.  The integration runs from the series state s0
    at y0 out to y_end.  trusted says whether sign changes of u can be told
    from integration noise.
    """

    n: int
    a: float
    scale_r: float  # y = scale_r * r
    scale_v: float  # u' = scale_v * uhat'
    y0: float
    y_end: float
    s0: tuple[float, float]
    atol_scaled: float
    trusted: bool
    f: object = field(repr=False)
    rhs: object = field(repr=False)

    def uhat(self, y, s):
        """u/a, a float, at scaled radius y from the deviation state s there."""
        return _bubble_terms(self.n, float(y))[0] + float(s[0])

    def signs(self, y: float, s) -> tuple[float, float]:
        """(u/a, u'/(a scale_r)) at scaled radius y from the float state s:
        the values whose sign changes integrate records as events."""
        d, dd = _bubble_terms(self.n, y)
        return d + s[0], dd + s[1]

    @staticmethod
    def blown_up(w: float) -> bool:
        """Whether u/a = w has reached the blow-up guard."""
        return abs(w) >= BLOWUP_BOUND

    def u_du(self, y, s):
        """(u, u') at scaled radius y from the deviation state s there."""
        d, dd = _bubble_terms(self.n, y)
        return self.a * (d + s[0]), self.scale_v * (dd + s[1])


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
                # numpy gives inf and a RuntimeWarning where a float raises;
                # keep both, so a failed run reads as it does on numpy.
                g = np.float64(abs(w)) ** (p - 1.0)
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
                g = np.float64(abs(w)) ** (p - 1.0)
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
        a=a,
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
    does.
    """

    ts: np.ndarray
    t_old: np.ndarray  # (pieces,) start of each step
    h: np.ndarray  # (pieces,) step length
    F: np.ndarray  # (pieces, 7, 2) polynomial coefficients
    y_old: np.ndarray  # (pieces, 2) state at t_old

    @classmethod
    def of(cls, sol) -> "_StepPolynomials":
        """Stack the pieces of an ascending DOP853 OdeSolution."""
        pieces = sol.interpolants
        return cls(
            ts=sol.ts,
            t_old=np.array([p.t_old for p in pieces]),
            h=np.array([p.h for p in pieces]),
            F=np.array([p.F for p in pieces]),
            y_old=np.array([p.y_old for p in pieces]),
        )

    def __call__(self, y):
        """State (v, v') at y: shape (2,) for scalar y, else (2, len(y))."""
        y = np.asarray(y, dtype=float)
        i = np.clip(np.searchsorted(self.ts, y, side="left") - 1, 0, len(self.h) - 1)
        x = ((y - self.t_old[i]) / self.h[i])[..., None]
        s = np.zeros(y.shape + (2,))
        for j in range(self.F.shape[1]):
            s += self.F[i, -1 - j]
            s *= x if j % 2 == 0 else 1 - x
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


def _root(piece: Dop853DenseOutput, g) -> float:
    """The root of g(y, (v, v')) over one step, located as solve_ivp
    locates an event: brentq at xtol = rtol = 4 eps on the step's dense
    output, evaluated here on floats with Dop853DenseOutput's arithmetic."""
    coefficients = piece.F[::-1].tolist()
    t_old, h = piece.t_old, piece.h
    v_old, vp_old = piece.y_old.tolist()

    def state(y):
        x = (y - t_old) / h
        v = vp = 0.0
        for j, (c, cp) in enumerate(coefficients):
            factor = x if j % 2 == 0 else 1 - x
            v = (v + c) * factor
            vp = (vp + cp) * factor
        return v + v_old, vp + vp_old

    eps4 = 4 * np.finfo(float).eps
    return brentq(lambda y: g(y, state(y)), piece.t_old, piece.t, xtol=eps4, rtol=eps4)


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

    In place of solve_ivp's events, each accepted step is checked against
    the deviation problem once its dense output is built (integrate asks
    for dense output, so that is once per step): the first state past the
    blow-up guard raises BlowUpDetected at the radius solve_ivp's event
    location gives, and while the problem is trusted, every step over
    which u or u' changes sign by solve_ivp's rule for an event of
    direction 0 is appended to crossings as (0 for u or 1 for u', the
    step's dense output).
    """

    def __init__(self, fun, t0, y0, t_bound, *, deviation, crossings, **options):
        # scipy's own start: the first RHS call and the initial step size
        super().__init__(
            lambda t, y: fun(float(t), *y.tolist()), t0, y0, t_bound, **options
        )
        self.rhs = fun
        self.deviation = deviation
        self.crossings = crossings
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

        self.h_previous = h
        self.y_old = (v, vp)
        self.t = t_new
        self.y = (v_new, vp_new)
        self.h_abs = h_abs
        self.f = f_new
        return True, None

    def _dense_output_impl(self):
        k = self.k
        h = self.h_previous
        t_old = self.t_old
        v, vp = self.y_old
        for i, KsT, a, c in self.extra_stages:
            dv, dvp = KsT.dot(a).tolist()
            k[i], k[i + 1] = self.rhs(t_old + c * h, v + dv * h, vp + dvp * h)
        self.nfev += len(self.extra_stages)

        f, fp = self.f
        f_old, fp_old = k[0], k[1]
        dv, dvp = self.y[0] - v, self.y[1] - vp
        F = np.empty((3 + len(self.D), 2))
        F[:3] = (
            (dv, dvp),
            (h * f_old - dv, h * fp_old - dvp),
            (2 * dv - h * (f + f_old), 2 * dvp - h * (fp + fp_old)),
        )
        F[3:] = h * self.D.dot(self.K_extended)
        piece = Dop853DenseOutput(t_old, self.t, np.array(self.y_old), F)
        self._check_step(piece)
        return piece

    def _check_step(self, piece):
        """The blow-up guard and the sign changes over the step just taken.

        The same order as solve_ivp's event handling: the blow-up radius is
        located first, then the sign changes of the step are recorded, then
        BlowUpDetected ends the run.
        """
        dev = self.deviation
        signs = dev.signs(self.t, self.y)
        blown_at = None
        if dev.blown_up(signs[0]):
            blown_at = _root(piece, lambda y, s: abs(dev.uhat(y, s)) - BLOWUP_BOUND)
        if dev.trusted:
            for component, (g, g_new) in enumerate(zip(self.signs, signs)):
                if (g <= 0 and g_new >= 0) or (g >= 0 and g_new <= 0):
                    self.crossings.append((component, piece))
        self.signs = signs
        if blown_at is not None:
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
    r_stop on _FloatDop853 at run_rtol(rtol) and maps it back to physical
    variables.  The stepper records each step over which u or u' changes
    sign; the change is then located on that step's dense output by
    solve_ivp's bracketed root-finding (well below 1e-12 radius accuracy)
    and recorded as an event.  knots hold the integrator steps plus
    DENSE_SAMPLES interior samples per step; `steps` keeps the raw step
    radii, whose dense-output pieces downstream quadrature integrates
    piecewise.  Everything returned is bit-identical to solve_ivp with
    method="DOP853" and the same checks as event functions.
    """
    dev = _deviation(params, a, r_stop, atol)
    scale_r = dev.scale_r
    rtol = run_rtol(rtol)
    crossings = []
    try:
        try:
            sol = solve_ivp(
                dev.rhs,
                (dev.y0, dev.y_end),
                dev.s0,
                method=_FloatDop853,
                rtol=rtol,
                atol=dev.atol_scaled,
                dense_output=True,
                deviation=dev,
                crossings=crossings,
            )
        finally:
            # solve_ivp would have located each sign change at its own
            # step, so a root-finder failure there comes before whatever
            # ends the run later.
            located = [
                (c, _root(piece, lambda y, s, c=c: dev.signs(y, s)[c]))
                for c, piece in crossings
            ]
    except ValueError as exc:
        # brentq refuses a NaN that a step's dense output reaches.
        raise IntegrationFailed(f"integration failed: {exc}") from exc
    except RuntimeWarning as exc:
        # The right-hand side's overflow, or NaN in the stepper's numpy
        # reductions, when warnings are errors.
        raise _callback_failure(exc) from exc
    if not sol.success:
        last = sol.t[-1] / scale_r if sol.t.size else None
        raise IntegrationFailed(
            f"integration failed: {sol.message}", last_radius=last
        )

    dense = _StepPolynomials.of(sol.sol)

    def at_y(y):
        """(u, u') at scaled radius y, from the dense output."""
        return dev.u_du(y, dense(y))

    # Zero crossings store u' there, derivative zeros store u; untrusted
    # integrations have no sign events to read.  Ties in r keep the zero
    # crossing first.
    events = [
        Event(kind=kind, r=y / scale_r, value=at_y(y)[1 - component])
        for component, kind in enumerate(("zero-crossing", "derivative-zero"))
        for c, y in located
        if c == component
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
    )


def shoot(
    params: Params,
    a: float,
    *,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> tuple[int, float, float]:
    """Zero count and (u(1), u'(1)) of the solution with u(0) = a.

    One shooting evaluation: the deviation problem of integrate, out to
    r = 1 on Hairer's Fortran DOP853 (scipy.integrate.ode) at run_rtol(rtol),
    without event location or dense output.  Zeros are the sign changes of
    u between accepted steps, counted only when integrate would track them;
    a double crossing inside one step goes uncounted.  Raises
    BlowUpDetected and IntegrationFailed where integrate does.
    """
    dev = _deviation(params, a, 1.0, atol)
    zeros = 0
    negative = False
    blown_at = None
    K, h = dev.n * (dev.n - 2.0), (dev.n - 2.0) / 2.0

    def solout(y, s):
        nonlocal zeros, negative, blown_at
        w = (K / (K + y * y)) ** h + float(s[0])  # u/a, as dev.uhat(y, s)
        if dev.blown_up(w):
            blown_at = y
            return -1
        if dev.trusted and (w < 0.0) != negative:
            zeros += 1
            negative = not negative
        return 0

    solver = scipy_ode(dev.f).set_integrator(
        "dop853", rtol=run_rtol(rtol), atol=dev.atol_scaled, nsteps=SHOOT_MAX_STEPS
    )
    solver.set_solout(solout)
    solver.set_initial_value(dev.s0, dev.y0)
    with warnings.catch_warnings(record=True) as caught:
        # A failed run warns and returns a truncated state; the warning's
        # text is reported through IntegrationFailed below instead.
        warnings.filterwarnings(
            "always", category=UserWarning, module="scipy.integrate._ode"
        )
        try:
            s1 = solver.integrate(dev.y_end)
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
    u1, du1 = dev.u_du(dev.y_end, s1)
    return zeros, float(u1), float(du1)
